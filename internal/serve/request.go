package serve

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
)

// MaxRequestBody caps how much of a /predict body the daemon will read.
// A prediction request is a handful of named floats; anything beyond this
// is malformed or hostile and is rejected before it costs memory.
const MaxRequestBody = 1 << 20

// PredictRequest is the wire form of one prediction request.
//
//	{"src":"ANL","dst":"NERSC","features":{"Ksout":12.5,"C":4},"deadline_ms":50}
//
// Features is a sparse map over the registry's feature names; missing
// features default to zero. DeadlineMS optionally bounds how long the
// client is willing to wait end to end; past it the daemon sheds the
// request with 429 rather than answer late.
type PredictRequest struct {
	Src        string             `json:"src"`
	Dst        string             `json:"dst"`
	Features   map[string]float64 `json:"features"`
	DeadlineMS float64            `json:"deadline_ms,omitempty"`
}

// ErrBadRequest marks requests that must be answered with 400. The
// decoder guarantees: malformed bodies produce an error, never a panic
// (FuzzPredictRequest pins this), and every accepted request has at least
// one feature, finite values (JSON cannot encode NaN/Inf), and a
// non-negative deadline.
var ErrBadRequest = errors.New("bad request")

// ParseRequest decodes and validates one /predict body.
func ParseRequest(data []byte) (*PredictRequest, error) {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var req PredictRequest
	if err := dec.Decode(&req); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadRequest, err)
	}
	// Reject trailing garbage ({"..."}junk): exactly one JSON value.
	if err := checkEOF(dec); err != nil {
		return nil, err
	}
	if err := req.validate(); err != nil {
		return nil, err
	}
	return &req, nil
}

// validate applies the rules every entry point holds a request to: at
// least one feature and a non-negative deadline.
func (req *PredictRequest) validate() error {
	if len(req.Features) == 0 {
		return fmt.Errorf("%w: no features", ErrBadRequest)
	}
	if req.DeadlineMS < 0 {
		return fmt.Errorf("%w: negative deadline_ms", ErrBadRequest)
	}
	return nil
}

func checkEOF(dec *json.Decoder) error {
	if _, err := dec.Token(); err != io.EOF {
		return fmt.Errorf("%w: trailing data after request object", ErrBadRequest)
	}
	return nil
}

// PredictResponse is the wire form of one successful prediction.
type PredictResponse struct {
	Rate       float64 `json:"rate"`       // predicted transfer rate, MB/s
	Model      string  `json:"model"`      // "edge:SRC->DST" or "global"
	Generation int64   `json:"generation"` // registry generation that answered
	QueueMS    float64 `json:"queue_ms"`   // admission-queue wait
}

// errorResponse is the JSON body of every non-200 answer.
type errorResponse struct {
	Error string `json:"error"`
}
