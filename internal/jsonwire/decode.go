package jsonwire

import (
	"fmt"
	"strconv"
	"unicode"
	"unicode/utf16"
	"unicode/utf8"
	"unsafe"
)

// SkipWS advances past JSON whitespace (the exact set encoding/json
// skips: space, tab, newline, carriage return).
func SkipWS(d []byte, p int) int {
	for p < len(d) && (d[p] == ' ' || d[p] == '\t' || d[p] == '\n' || d[p] == '\r') {
		p++
	}
	return p
}

// ScanPlainString scans a string literal containing only printable
// ASCII and no escapes, returning the raw bytes between the quotes.
// Anything else — backslash escapes, control bytes, non-ASCII (where
// encoding/json's invalid-UTF-8 coercion could change the decoded
// value) — reports false, so an accept-or-abstain scanner can abstain.
func ScanPlainString(d []byte, p int) ([]byte, int, bool) {
	if p >= len(d) || d[p] != '"' {
		return nil, p, false
	}
	p++
	start := p
	for p < len(d) {
		switch c := d[p]; {
		case c == '"':
			return d[start:p], p + 1, true
		case c == '\\' || c < 0x20 || c >= 0x80:
			return nil, p, false
		default:
			p++
		}
	}
	return nil, p, false
}

// numberEnd scans a number under the strict JSON grammar (no leading
// zeros, no "+", no hex, no Inf — shapes strconv would take but
// encoding/json rejects) starting at p. It returns the end of the
// literal and whether it is an integer literal (no fraction or
// exponent); ok is false on a grammar violation.
func numberEnd(d []byte, p int) (end int, integer, ok bool) {
	if p < len(d) && d[p] == '-' {
		p++
	}
	switch {
	case p < len(d) && d[p] == '0':
		p++
	case p < len(d) && d[p] >= '1' && d[p] <= '9':
		for p < len(d) && d[p] >= '0' && d[p] <= '9' {
			p++
		}
	default:
		return p, false, false
	}
	integer = true
	if p < len(d) && d[p] == '.' {
		integer = false
		p++
		if p >= len(d) || d[p] < '0' || d[p] > '9' {
			return p, false, false
		}
		for p < len(d) && d[p] >= '0' && d[p] <= '9' {
			p++
		}
	}
	if p < len(d) && (d[p] == 'e' || d[p] == 'E') {
		integer = false
		p++
		if p < len(d) && (d[p] == '+' || d[p] == '-') {
			p++
		}
		if p >= len(d) || d[p] < '0' || d[p] > '9' {
			return p, false, false
		}
		for p < len(d) && d[p] >= '0' && d[p] <= '9' {
			p++
		}
	}
	return p, integer, true
}

// ScanNumber scans a number under the strict JSON grammar and parses it
// with strconv.ParseFloat, the routine encoding/json uses for float64
// targets, so accepted values are bit-identical to it. A grammar
// violation or a range overflow reports false.
func ScanNumber(d []byte, p int) (float64, int, bool) {
	end, _, ok := numberEnd(d, p)
	if !ok {
		return 0, end, false
	}
	v, err := strconv.ParseFloat(unsafeString(d[p:end]), 64)
	if err != nil {
		return 0, end, false
	}
	return v, end, true
}

// unsafeString views a byte slice as a string without copying, for
// strconv (which has no []byte parsers). The bytes are not mutated
// while the view is alive.
func unsafeString(b []byte) string {
	if len(b) == 0 {
		return ""
	}
	return unsafe.String(&b[0], len(b))
}

// Decoder reads one JSON document from a byte slice in a single pass,
// driven by the caller's schema: objects with Begin/Member/Next (or Key
// for maps), arrays with Begin/Next, and values with the typed readers.
// A null value reads as the type's zero value, as encoding/json leaves
// the target untouched. Errors are sticky: after the first, every read
// returns a zero value and Begin/Next report false, so loops unwind and
// the caller checks End (or Err) once.
type Decoder struct {
	data []byte
	p    int
	err  error
	buf  []byte    // unescaped string scratch
	fs   []float64 // Floats scratch
}

// NewDecoder returns a decoder over data.
func NewDecoder(data []byte) *Decoder { return &Decoder{data: data} }

// Err reports the first error.
func (d *Decoder) Err() error { return d.err }

// Fail records err unless an earlier error is already recorded. Schema
// validation failures go through here, so a caller's first check of
// Err or End sees them alongside syntax errors.
func (d *Decoder) Fail(err error) {
	if d.err == nil {
		d.err = err
	}
}

func (d *Decoder) syntax(format string, args ...any) {
	d.Fail(fmt.Errorf("jsonwire: offset %d: %s", d.p, fmt.Sprintf(format, args...)))
}

// End checks that nothing but whitespace follows the document and
// returns the first error.
func (d *Decoder) End() error {
	if d.err == nil {
		if d.p = SkipWS(d.data, d.p); d.p != len(d.data) {
			d.syntax("data after top-level value")
		}
	}
	return d.err
}

// peek skips whitespace and returns the next byte, or 0 at the end.
func (d *Decoder) peek() byte {
	d.p = SkipWS(d.data, d.p)
	if d.p < len(d.data) {
		return d.data[d.p]
	}
	return 0
}

// Null consumes a null literal if one comes next and reports whether
// it did.
func (d *Decoder) Null() bool {
	if d.err != nil || d.peek() != 'n' {
		return false
	}
	if len(d.data)-d.p < 4 || string(d.data[d.p:d.p+4]) != "null" {
		d.syntax("invalid literal")
		return false
	}
	d.p += 4
	return true
}

// Begin consumes the opening byte ('{' or '[') of an object or array and
// reports whether a member or element follows. An empty object or
// array is consumed whole and reports false.
func (d *Decoder) Begin(open byte) bool {
	if d.err != nil {
		return false
	}
	if d.peek() != open {
		d.syntax("expected %q", open)
		return false
	}
	d.p++
	if c := d.peek(); c == '}' && open == '{' || c == ']' && open == '[' {
		d.p++
		return false
	}
	return true
}

// Next consumes what follows a member or element: a comma (another one
// follows: true) or the closing byte close (false).
func (d *Decoder) Next(close byte) bool {
	if d.err != nil {
		return false
	}
	switch d.peek() {
	case ',':
		d.p++
		return true
	case close:
		d.p++
		return false
	}
	d.syntax("expected ',' or %q", close)
	return false
}

// Key reads a member's key and the colon after it. The bytes are valid
// until the next string is read.
func (d *Decoder) Key() []byte {
	k := d.str()
	if d.err == nil {
		if d.peek() != ':' {
			d.syntax("expected ':'")
			return nil
		}
		d.p++
	}
	return k
}

// Member reads a member's key and returns its index in keys, the
// object's schema. A key outside the schema — including one differing
// only in case, which encoding/json would fold onto a field — and a key
// already marked in seen are errors; Member then returns -1.
func (d *Decoder) Member(keys []string, seen *uint32) int {
	k := d.Key()
	if d.err != nil {
		return -1
	}
	for i, name := range keys {
		if string(k) == name {
			if *seen&(1<<i) != 0 {
				d.syntax("duplicate key %q", k)
				return -1
			}
			*seen |= 1 << i
			return i
		}
	}
	d.syntax("unknown key %q", k)
	return -1
}

// Int reads an integer literal (no fraction or exponent, as
// encoding/json requires for int targets) that fits an int.
func (d *Decoder) Int() int {
	if d.Null() || d.err != nil {
		return 0
	}
	end, integer, ok := numberEnd(d.data, d.p)
	if !ok || !integer {
		d.syntax("expected integer")
		return 0
	}
	n, err := strconv.Atoi(unsafeString(d.data[d.p:end]))
	if err != nil {
		d.syntax("integer %s out of range", d.data[d.p:end])
		return 0
	}
	d.p = end
	return n
}

// Float reads a number, parsed as encoding/json parses float64 targets.
func (d *Decoder) Float() float64 {
	if d.Null() || d.err != nil {
		return 0
	}
	v, end, ok := ScanNumber(d.data, d.p)
	if !ok {
		d.syntax("expected number")
		return 0
	}
	d.p = end
	return v
}

// String reads a string, decoding escapes and replacing invalid UTF-8
// exactly as encoding/json does.
func (d *Decoder) String() string {
	if d.Null() {
		return ""
	}
	return string(d.str())
}

// Floats reads an array of numbers: nil for null, empty for [].
func (d *Decoder) Floats() []float64 {
	if d.Null() {
		return nil
	}
	d.fs = d.fs[:0]
	for more := d.Begin('['); more; more = d.Next(']') {
		d.fs = append(d.fs, d.Float())
	}
	return append(make([]float64, 0, len(d.fs)), d.fs...)
}

// Strings reads an array of strings: nil for null, empty for [].
func (d *Decoder) Strings() []string {
	if d.Null() {
		return nil
	}
	out := []string{}
	for more := d.Begin('['); more; more = d.Next(']') {
		out = append(out, d.String())
	}
	return out
}

// str reads a string literal. Printable ASCII without escapes — every
// string this repository writes — is returned as a view of the input;
// anything else takes the unescaping path.
func (d *Decoder) str() []byte {
	if d.err != nil {
		return nil
	}
	if d.peek() != '"' {
		d.syntax("expected string")
		return nil
	}
	start := d.p + 1
	for p := start; p < len(d.data); p++ {
		switch c := d.data[p]; {
		case c == '"':
			d.p = p + 1
			return d.data[start:p]
		case c == '\\' || c < 0x20 || c >= utf8.RuneSelf:
			return d.unquote(start)
		}
	}
	d.syntax("unterminated string")
	return nil
}

// unquote decodes the string literal whose body starts at start into
// d.buf, following encoding/json's scanner (which rejects control bytes
// and unknown escapes) and its unquote (which maps \uXXXX escapes,
// combines surrogate pairs, and turns lone surrogates and invalid UTF-8
// bytes into U+FFFD).
func (d *Decoder) unquote(start int) []byte {
	b := d.buf[:0]
	s := d.data
	for p := start; p < len(s); {
		switch c := s[p]; {
		case c == '"':
			d.buf = b
			d.p = p + 1
			return b
		case c == '\\':
			if p+1 >= len(s) {
				d.p = p
				d.syntax("unterminated string")
				return nil
			}
			switch s[p+1] {
			case '"', '\\', '/':
				b = append(b, s[p+1])
			case 'b':
				b = append(b, '\b')
			case 'f':
				b = append(b, '\f')
			case 'n':
				b = append(b, '\n')
			case 'r':
				b = append(b, '\r')
			case 't':
				b = append(b, '\t')
			case 'u':
				rr := getu4(s[p:])
				if rr < 0 {
					d.p = p
					d.syntax("invalid \\u escape")
					return nil
				}
				p += 6
				if utf16.IsSurrogate(rr) {
					if dec := utf16.DecodeRune(rr, getu4(s[p:])); dec != unicode.ReplacementChar {
						b = utf8.AppendRune(b, dec)
						p += 6
						continue
					}
					rr = unicode.ReplacementChar
				}
				b = utf8.AppendRune(b, rr)
				continue
			default:
				d.p = p
				d.syntax("invalid escape")
				return nil
			}
			p += 2
		case c < ' ':
			d.p = p
			d.syntax("control character in string")
			return nil
		case c < utf8.RuneSelf:
			b = append(b, c)
			p++
		default:
			r, size := utf8.DecodeRune(s[p:])
			b = utf8.AppendRune(b, r)
			p += size
		}
	}
	d.p = len(s)
	d.syntax("unterminated string")
	return nil
}

// getu4 decodes a \uXXXX escape at the start of s, or returns -1.
func getu4(s []byte) rune {
	if len(s) < 6 || s[0] != '\\' || s[1] != 'u' {
		return -1
	}
	var r rune
	for _, c := range s[2:6] {
		switch {
		case '0' <= c && c <= '9':
			c -= '0'
		case 'a' <= c && c <= 'f':
			c = c - 'a' + 10
		case 'A' <= c && c <= 'F':
			c = c - 'A' + 10
		default:
			return -1
		}
		r = r*16 + rune(c)
	}
	return r
}
