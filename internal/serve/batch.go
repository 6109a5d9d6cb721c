package serve

import (
	"bytes"
	"fmt"
	"net/http"
	"strconv"
	"time"
)

// MaxBatchBody caps a /predict/batch request body.
const MaxBatchBody = 8 << 20

// handlePredictBatch is the batch front door: NDJSON in, NDJSON out.
// Each input line is one predict request (same schema as /predict); the
// response carries one JSON line per input line, in input order, each
// byte-identical to what /predict would have answered for that line.
// The whole batch is ONE admission unit — one queue slot, one batcher
// wake, and all-or-nothing shed semantics: either every line is answered
// 200, or the batch as a whole is 429 (Retry-After set) or 400.
func (s *Server) handlePredictBatch(w http.ResponseWriter, r *http.Request) {
	s.mBatchRequests.Inc()
	if r.Method != http.MethodPost {
		w.Header().Set("Allow", http.MethodPost)
		writeJSON(w, http.StatusMethodNotAllowed, errorResponse{Error: "POST only"})
		return
	}
	if !s.ready.Load() || s.draining.Load() {
		s.batchShed(w, "draining")
		return
	}
	buf := getBuf()
	defer putBuf(buf)
	body, err := readBody(r.Body, *buf, MaxBatchBody)
	*buf = body[:0]
	if err != nil {
		s.badRequest(w, fmt.Errorf("reading body: %w", err))
		return
	}

	snap := s.reg.Load()
	nf := len(snap.Features)

	// Count non-blank lines first so the job's slabs are sized once.
	n := 0
	for p := 0; p < len(body); {
		q := lineEnd(body, p)
		if !blankLine(body[p:q]) {
			n++
		}
		p = q + 1
	}
	if n == 0 {
		s.badRequest(w, fmt.Errorf("%w: empty batch", ErrBadRequest))
		return
	}
	if n > s.cfg.MaxBatchRows {
		s.badRequest(w, fmt.Errorf("%w: %d rows exceeds max %d", ErrBadRequest, n, s.cfg.MaxBatchRows))
		return
	}

	j := newJob(n, nf)
	deadlineMS := 0.0
	i := 0
	line := 0
	var fr fastReq
	for p := 0; p < len(body); {
		q := lineEnd(body, p)
		raw := body[p:q]
		p = q + 1
		line++
		if blankLine(raw) {
			continue
		}
		x := j.x[i*nf : (i+1)*nf]
		var dl float64
		if decodeFast(raw, snap, x, &fr) {
			if e := snap.lookupEntryB(fr.src, fr.dst); e.isGlobal {
				j.srcs[i], j.dsts[i] = string(fr.src), string(fr.dst)
			} else {
				j.srcs[i], j.dsts[i] = e.src, e.dst
			}
			dl = fr.deadline
		} else {
			req, perr := ParseRequest(raw)
			if perr != nil {
				j.free()
				s.badRequest(w, fmt.Errorf("line %d: %w", line, perr))
				return
			}
			if verr := snap.Vectorize(req.Features, x); verr != nil {
				j.free()
				s.badRequest(w, fmt.Errorf("line %d: %w: %v", line, ErrBadRequest, verr))
				return
			}
			j.srcs[i], j.dsts[i] = req.Src, req.Dst
			dl = req.DeadlineMS
		}
		// The batch completes as one unit, so its effective deadline is
		// the tightest row deadline.
		if dl > 0 && (deadlineMS == 0 || dl < deadlineMS) {
			deadlineMS = dl
		}
		i++
	}
	s.quantizeJob(j, snap)
	s.mBatchRows.Observe(float64(n))
	j.enq = time.Now()

	s.inflight.Add(1)
	defer s.inflight.Done()
	if !s.admit(j) {
		j.free()
		s.batchShed(w, "queue_full")
		return
	}
	s.mQueueDepth.Set(float64(s.queueLen()))

	wait := s.cfg.RequestTimeout
	if deadlineMS > 0 {
		if d := time.Duration(deadlineMS * float64(time.Millisecond)); d < wait {
			wait = d
		}
	}
	t := getTimer(wait)
	select {
	case <-j.done:
		putTimer(t, false)
		s.respondBatchJob(w, j)
		j.free()
	case <-t.C:
		putTimer(t, true)
		s.batchShed(w, "deadline")
	case <-s.hardStop:
		putTimer(t, false)
		s.batchShed(w, "drain_deadline")
	}
}

// respondBatchJob streams a completed batch job's answers as NDJSON, one
// line per input row in input order, encoded by the same pooled encoder
// as the singleton path (so line i is byte-identical to /predict's body
// for that row).
func (s *Server) respondBatchJob(w http.ResponseWriter, j *job) {
	switch {
	case j.err != nil:
		s.mPanics.Inc()
		s.cfg.Logf("serve: batch failure: %v", j.err)
		writeJSON(w, http.StatusInternalServerError, errorResponse{Error: "internal error"})
	case j.shed:
		s.batchShed(w, "queue_wait")
	default:
		s.mPredictions.Add(int64(j.n))
		totalMS := float64(time.Since(j.enq)) / float64(time.Millisecond)
		s.mLatency.Observe(totalMS)
		buf := getBuf()
		b := *buf
		for i := 0; i < j.n; i++ {
			b = appendPredictResponse(b, j.out[i], j.ents[i].jlabel, j.gen, j.queueMS)
		}
		w.Header().Set("Content-Type", "application/x-ndjson")
		w.Header().Set("X-Rows", strconv.Itoa(j.n))
		w.WriteHeader(http.StatusOK)
		_, _ = w.Write(b)
		*buf = b[:0]
		bufPool.Put(buf)
	}
}

// batchShed answers a batch the daemon chose not to serve right now —
// same 429 + Retry-After contract as the singleton shed, counted under
// its own per-reason family so operators can tell batch pressure from
// singleton pressure.
func (s *Server) batchShed(w http.ResponseWriter, reason string) {
	s.cfg.Metrics.Counter(`serve.batch_shed{reason="` + reason + `"}`).Inc()
	w.Header().Set("Retry-After", strconv.Itoa(int((s.cfg.RetryAfter+time.Second-1)/time.Second)))
	writeJSON(w, http.StatusTooManyRequests, errorResponse{Error: "overloaded: " + reason})
}

// lineEnd returns the index of the newline terminating the line starting
// at p (len(b) for the final unterminated line).
func lineEnd(b []byte, p int) int {
	if q := bytes.IndexByte(b[p:], '\n'); q >= 0 {
		return p + q
	}
	return len(b)
}

// blankLine reports whether a line holds only whitespace.
func blankLine(b []byte) bool {
	for _, c := range b {
		if c != ' ' && c != '\t' && c != '\r' {
			return false
		}
	}
	return true
}
