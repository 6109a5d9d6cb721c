// Package jsonwire holds the hand-written JSON primitives the repository
// shares in place of encoding/json reflection: number and string
// scanners and appenders for the serve request codec, and a single-pass
// Encoder/Decoder pair for the model and registry file formats.
//
// Everything here reproduces encoding/json's observable behaviour
// exactly: floats are formatted as its float64 encoder formats them,
// strings are escaped as its HTML-safe string encoder escapes them,
// numbers are accepted under the strict JSON grammar and parsed with the
// same strconv routines, and string escapes (including surrogate pairs
// and invalid UTF-8) decode to the same runes. The callers' tests pin
// each of these against encoding/json itself.
package jsonwire

import (
	"fmt"
	"io"
	"math"
	"strconv"
	"unicode/utf8"
)

const hexDigits = "0123456789abcdef"

// AppendFloat appends f exactly as encoding/json encodes a float64:
// 'f' form in the human range, 'e' form with the exponent's leading
// zero trimmed outside it. f must be finite (see Encoder.Float).
func AppendFloat(b []byte, f float64) []byte {
	abs := math.Abs(f)
	format := byte('f')
	if abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	b = strconv.AppendFloat(b, f, format, -1, 64)
	if format == 'e' {
		if n := len(b); n >= 4 && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
			b[n-2] = b[n-1]
			b = b[:n-1]
		}
	}
	return b
}

// AppendString appends s as a JSON string literal with encoding/json's
// default escaping: quotes, backslashes, control characters (\b, \f,
// \n, \r and \t in short form), the HTML trio (<, >, &), invalid UTF-8
// as U+FFFD, and U+2028/U+2029.
func AppendString(dst []byte, s string) []byte {
	dst = append(dst, '"')
	start := 0
	for i := 0; i < len(s); {
		if c := s[i]; c < utf8.RuneSelf {
			if c >= ' ' && c != '"' && c != '\\' && c != '<' && c != '>' && c != '&' {
				i++
				continue
			}
			dst = append(dst, s[start:i]...)
			switch c {
			case '\\', '"':
				dst = append(dst, '\\', c)
			case '\b':
				dst = append(dst, '\\', 'b')
			case '\f':
				dst = append(dst, '\\', 'f')
			case '\n':
				dst = append(dst, '\\', 'n')
			case '\r':
				dst = append(dst, '\\', 'r')
			case '\t':
				dst = append(dst, '\\', 't')
			default:
				dst = append(dst, '\\', 'u', '0', '0', hexDigits[c>>4], hexDigits[c&0xF])
			}
			i++
			start = i
			continue
		}
		c, size := utf8.DecodeRuneInString(s[i:])
		if c == utf8.RuneError && size == 1 {
			dst = append(dst, s[start:i]...)
			dst = append(dst, '\\', 'u', 'f', 'f', 'f', 'd')
			i += size
			start = i
			continue
		}
		if c == '\u2028' || c == '\u2029' {
			dst = append(dst, s[start:i]...)
			dst = append(dst, '\\', 'u', '2', '0', '2', hexDigits[c&0xF])
			i += size
			start = i
			continue
		}
		i += size
	}
	dst = append(dst, s[start:]...)
	return append(dst, '"')
}

// Encoder appends one JSON document to B. Callers write punctuation and
// keys with Raw and values with the typed methods. A float JSON cannot
// represent (NaN, ±Inf) is an error, as it is for encoding/json: the
// first error is kept, and WriteLine then writes nothing.
type Encoder struct {
	B   []byte
	err error
}

// Fail records err unless an earlier error is already recorded.
func (e *Encoder) Fail(err error) {
	if e.err == nil {
		e.err = err
	}
}

// Err reports the first recorded error.
func (e *Encoder) Err() error { return e.err }

// Raw appends s verbatim.
func (e *Encoder) Raw(s string) { e.B = append(e.B, s...) }

// Int appends i.
func (e *Encoder) Int(i int) { e.B = strconv.AppendInt(e.B, int64(i), 10) }

// Float appends f, failing on NaN and ±Inf.
func (e *Encoder) Float(f float64) {
	if math.IsNaN(f) || math.IsInf(f, 0) {
		e.Fail(fmt.Errorf("jsonwire: unsupported value: %v", f))
		return
	}
	e.B = AppendFloat(e.B, f)
}

// OmitZero appends key and f unless f is zero (of either sign) — an
// omitempty float field. key carries the field's leading punctuation.
func (e *Encoder) OmitZero(key string, f float64) {
	if f != 0 {
		e.Raw(key)
		e.Float(f)
	}
}

// String appends s as an escaped string literal.
func (e *Encoder) String(s string) { e.B = AppendString(e.B, s) }

// Floats appends fs as an array, or null when fs is nil.
func (e *Encoder) Floats(fs []float64) {
	if fs == nil {
		e.Raw("null")
		return
	}
	e.B = append(e.B, '[')
	for i, f := range fs {
		if i > 0 {
			e.B = append(e.B, ',')
		}
		e.Float(f)
	}
	e.B = append(e.B, ']')
}

// Strings appends ss as an array, or null when ss is nil.
func (e *Encoder) Strings(ss []string) {
	if ss == nil {
		e.Raw("null")
		return
	}
	e.B = append(e.B, '[')
	for i, s := range ss {
		if i > 0 {
			e.B = append(e.B, ',')
		}
		e.String(s)
	}
	e.B = append(e.B, ']')
}

// WriteLine terminates the document with a newline, as
// json.Encoder.Encode does, and writes it to w in one Write. Nothing is
// written if an error was recorded.
func (e *Encoder) WriteLine(w io.Writer) error {
	if e.err != nil {
		return e.err
	}
	e.B = append(e.B, '\n')
	_, err := w.Write(e.B)
	return err
}
