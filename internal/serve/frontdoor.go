package serve

import (
	"bytes"
	"context"
	"fmt"
	"net/http"
	"strconv"
	"time"

	"repro/internal/obs"
)

// This file is the daemon's one front door. Its four entry points —
// POST /predict, POST /predict/batch, PredictSync and PredictBatchSync —
// differ only in how rows arrive and how answers leave. Each builds one
// job and takes the same path: decode (decodeRow, putRequest) → admit
// and await (submit) → respond (respond writes HTTP bodies; submitSync
// copies answers out for the Sync APIs).
// A singleton is a one-row job; a batch is one job of many rows, so it
// takes one queue slot, one batcher wake and all-or-nothing shed
// semantics.

// MaxBatchBody caps a /predict/batch request body.
const MaxBatchBody = 8 << 20

// door is what differs between the two HTTP prediction routes. Each
// route has one, fixed when the server is built.
type door struct {
	requests    *obs.Counter // serve.requests or serve.batch_requests
	shedFamily  string       // per-reason shed counter: serve.shed or serve.batch_shed
	maxBody     int
	contentType string
	// batch selects NDJSON: one request per non-blank line in, one
	// response line per row out, an X-Rows header, and the
	// serve.batch_rows histogram. The singleton door instead reads the
	// whole body as one request (a pretty-printed object spans lines) and
	// records per-edge latency.
	batch bool
}

// Shed outcomes of submit. Each wraps ErrShed; the HTTP doors answer it
// with a 429 counted under its reason.
type shedError struct{ reason string }

func (e *shedError) Error() string { return "serve: shed (" + e.reason + ")" }
func (e *shedError) Unwrap() error { return ErrShed }

var (
	errDraining      = &shedError{"draining"}
	errQueueFull     = &shedError{"queue_full"}
	errQueueWait     = &shedError{"queue_wait"}
	errDeadline      = &shedError{"deadline"}
	errDrainDeadline = &shedError{"drain_deadline"}
)

// serveDoor answers one HTTP prediction request through door d: pooled
// body read, decode into one job, nonblocking admission, bounded wait,
// pooled response encoding. Every answer is 200 with one line per row,
// or a whole-request 400, 429 (Retry-After set) or 500.
func (s *Server) serveDoor(d *door, w http.ResponseWriter, r *http.Request) {
	d.requests.Inc()
	if r.Method != http.MethodPost {
		w.Header().Set("Allow", http.MethodPost)
		writeJSON(w, http.StatusMethodNotAllowed, errorResponse{Error: "POST only"})
		return
	}
	// Drain clears ready, so this turns new work away while draining
	// before the body is read.
	if !s.ready.Load() {
		s.shed(w, d, "draining")
		return
	}
	buf := getBuf()
	defer putBuf(buf)
	body, err := readBody(r.Body, *buf, d.maxBody)
	*buf = body[:0]
	if err != nil {
		s.badRequest(w, fmt.Errorf("reading body: %w", err))
		return
	}
	snap := s.reg.Load()
	j, deadlineMS, err := s.decodeBody(d, snap, body)
	if err != nil {
		s.badRequest(w, err)
		return
	}
	if d.batch {
		s.mBatchRows.Observe(float64(j.n))
	}
	if err := s.submit(context.Background(), j, snap, budget(deadlineMS, s.cfg.RequestTimeout), false); err != nil {
		if se, ok := err.(*shedError); ok {
			s.shed(w, d, se.reason)
			return
		}
		s.mPanics.Inc()
		s.cfg.Logf("serve: batch failure: %v", err)
		writeJSON(w, http.StatusInternalServerError, errorResponse{Error: "internal error"})
		return
	}
	s.respond(d, w, j)
	j.free()
}

// decodeBody vectorizes an HTTP body into a new job against snap: the
// whole body as one request on the singleton door, one request per
// non-blank line on the batch door. It also returns the job's
// deadline_ms: the tightest row's, since the job completes as one unit.
func (s *Server) decodeBody(d *door, snap *Registry, body []byte) (*job, float64, error) {
	n := 1
	if d.batch {
		// Count the rows first so the job's slabs are sized once.
		n = 0
		for p := 0; p < len(body); {
			q := lineEnd(body, p)
			if !blankLine(body[p:q]) {
				n++
			}
			p = q + 1
		}
		if err := s.checkBatchSize(n); err != nil {
			return nil, 0, err
		}
	}
	j := newJob(n, len(snap.Features))
	var fr fastReq
	deadlineMS := 0.0
	for i, p, line := 0, 0, 1; i < n; line++ {
		raw := body
		if d.batch {
			q := lineEnd(body, p)
			raw, p = body[p:q], q+1
			if blankLine(raw) {
				continue
			}
		}
		dl, err := decodeRow(j, i, snap, raw, &fr)
		if err != nil {
			j.free()
			if d.batch {
				err = fmt.Errorf("line %d: %w", line, err)
			}
			return nil, 0, err
		}
		if dl > 0 && (deadlineMS == 0 || dl < deadlineMS) {
			deadlineMS = dl
		}
		i++
	}
	return j, deadlineMS, nil
}

// decodeRow vectorizes one request into row i of j and returns its
// deadline_ms. The fast codec decodes every shape it is certain of;
// anything else falls back to ParseRequest + Vectorize, which produces
// every error.
func decodeRow(j *job, i int, snap *Registry, data []byte, fr *fastReq) (float64, error) {
	nf := len(snap.Features)
	if decodeFast(data, snap, j.x[i*nf:(i+1)*nf], fr) {
		// Intern src/dst out of the transient body buffer: a resolved
		// edge entry carries the canonical strings; only the global
		// fallback needs copies.
		if e := snap.lookupEntryB(fr.src, fr.dst); e.isGlobal {
			j.srcs[i], j.dsts[i] = string(fr.src), string(fr.dst)
		} else {
			j.srcs[i], j.dsts[i] = e.src, e.dst
		}
		return fr.deadline, nil
	}
	req, err := ParseRequest(data)
	if err != nil {
		return 0, err
	}
	return req.DeadlineMS, putRequest(j, i, snap, req)
}

// putRequest vectorizes a decoded, validated request into row i of j.
func putRequest(j *job, i int, snap *Registry, req *PredictRequest) error {
	nf := len(snap.Features)
	if err := snap.Vectorize(req.Features, j.x[i*nf:(i+1)*nf]); err != nil {
		return fmt.Errorf("%w: %v", ErrBadRequest, err)
	}
	j.srcs[i], j.dsts[i] = req.Src, req.Dst
	return nil
}

// checkBatchSize enforces the row limits both batch entry points share.
func (s *Server) checkBatchSize(n int) error {
	if n == 0 {
		return fmt.Errorf("%w: empty batch", ErrBadRequest)
	}
	if n > s.cfg.MaxBatchRows {
		return fmt.Errorf("%w: %d rows exceeds max %d", ErrBadRequest, n, s.cfg.MaxBatchRows)
	}
	return nil
}

// budget is how long a request may wait for its answer: its deadline_ms
// when given, capped by limit when limit > 0. Zero means no bound
// beyond the caller's context.
func budget(deadlineMS float64, limit time.Duration) time.Duration {
	wait := limit
	if deadlineMS > 0 {
		// A deadline under a nanosecond is already due, not unbounded.
		if d := max(time.Duration(deadlineMS*float64(time.Millisecond)), 1); wait <= 0 || d < wait {
			wait = d
		}
	}
	return wait
}

// submit is the admission and wait behind all four entry points. It
// quantizes j's rows against snap and admits j — without blocking for
// the HTTP doors, which shed queue_full when every shard is full; with
// backpressure for the Sync APIs (block) — then waits for the batcher's
// answer: at most wait when wait > 0, until ctx is done, or until the
// drain deadline passes. On nil j holds its answers and the caller frees
// it; on error j is no longer the caller's. A shed is a *shedError.
func (s *Server) submit(ctx context.Context, j *job, snap *Registry, wait time.Duration, block bool) error {
	s.quantizeJob(j, snap)
	j.enq = time.Now()
	s.inflight.Add(1)
	defer s.inflight.Done()
	var t *time.Timer
	var expired <-chan time.Time
	if wait > 0 {
		t = getTimer(wait)
		expired = t.C
	}
	own, err := s.await(ctx, j, expired, block)
	if t != nil {
		putTimer(t, err == errDeadline)
	}
	if err != nil && own {
		j.free()
	}
	return err
}

// await admits j and waits for its answer. own reports whether j is
// still the caller's to recycle: false once j was admitted and then
// abandoned, because a batcher may yet write into it.
func (s *Server) await(ctx context.Context, j *job, expired <-chan time.Time, block bool) (own bool, err error) {
	// Checked after submit joined inflight: either Drain waits for this
	// job, or this job sees the drain and never enters a shard no
	// batcher will drain again.
	if s.draining.Load() {
		return true, errDraining
	}
	if !s.admit(j) {
		if !block {
			return true, errQueueFull
		}
		select {
		case s.shards[s.rr.Add(1)%uint64(len(s.shards))] <- j:
		case <-expired:
			return true, errDeadline
		case <-ctx.Done():
			return true, ctx.Err()
		case <-s.hardStop:
			return true, errDrainDeadline
		}
	}
	s.mQueueDepth.Set(float64(s.queueLen()))
	select {
	case <-j.done:
		switch {
		case j.err != nil:
			return true, j.err
		case j.shed:
			return true, errQueueWait
		}
		return true, nil
	case <-expired:
		return false, errDeadline
	case <-ctx.Done():
		return false, ctx.Err()
	case <-s.hardStop:
		return false, errDrainDeadline
	}
}

// respond writes a completed job's answers, one appendPredictResponse
// line per row in row order: the whole body on the singleton door, so
// batch line i is byte-identical to /predict's answer for that row.
func (s *Server) respond(d *door, w http.ResponseWriter, j *job) {
	s.mPredictions.Add(int64(j.n))
	totalMS := float64(time.Since(j.enq)) / float64(time.Millisecond)
	s.mLatency.Observe(totalMS)
	buf := getBuf()
	b := *buf
	for i := 0; i < j.n; i++ {
		b = appendPredictResponse(b, j.out[i], j.ents[i].jlabel, j.gen, j.queueMS)
	}
	h := w.Header()
	h.Set("Content-Type", d.contentType)
	if d.batch {
		h.Set("X-Rows", strconv.Itoa(j.n))
	} else if e := j.ents[0]; !e.isGlobal {
		s.cfg.Metrics.Histogram(e.latKey, s.latBuckets).Observe(totalMS)
	}
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write(b)
	*buf = b
	putBuf(buf)
}

// shed answers a request the daemon chose not to serve right now. Always
// 429 + Retry-After: the condition is transient (queue pressure, reload
// churn, drain) and the client should back off and retry — never a 5xx,
// which would look like failure to a health-checking load balancer.
// Each door counts its sheds per reason in its own family, so operators
// can tell batch pressure from singleton pressure.
func (s *Server) shed(w http.ResponseWriter, d *door, reason string) {
	s.cfg.Metrics.Counter(d.shedFamily + `{reason="` + reason + `"}`).Inc()
	w.Header().Set("Retry-After", strconv.Itoa(int((s.cfg.RetryAfter+time.Second-1)/time.Second)))
	writeJSON(w, http.StatusTooManyRequests, errorResponse{Error: "overloaded: " + reason})
}

func (s *Server) badRequest(w http.ResponseWriter, err error) {
	s.mBadRequests.Inc()
	writeJSON(w, http.StatusBadRequest, errorResponse{Error: err.Error()})
}

// PredictSync answers one request as a one-row job through the same
// path as POST /predict — the embedding entry point. It validates req
// like the HTTP decoder (ErrBadRequest), blocks for queue room instead
// of shedding queue_full, and waits at most until ctx is done or
// req.DeadlineMS passes. A shed is an error wrapping ErrShed.
func (s *Server) PredictSync(ctx context.Context, req *PredictRequest) (*PredictResponse, error) {
	if err := req.validate(); err != nil {
		return nil, err
	}
	snap := s.reg.Load()
	j := newJob(1, len(snap.Features))
	if err := putRequest(j, 0, snap, req); err != nil {
		j.free()
		return nil, err
	}
	out := make([]PredictResponse, 1)
	if err := s.submitSync(ctx, j, snap, budget(req.DeadlineMS, 0), out); err != nil {
		return nil, err
	}
	return &out[0], nil
}

// BatchRow is one pre-vectorized row of a batch prediction: X carries
// the feature values in registry column order (len(Registry.Features)).
type BatchRow struct {
	Src, Dst string
	X        []float64
}

// PredictBatchSync submits every row as ONE job and fills out[i] with
// row i's answer — the embedding twin of POST /predict/batch and the
// steady-state zero-allocation path: the job and all its slabs are
// pooled, labels are interned registry strings, and the caller owns out.
// All rows are answered by the same snapshot generation. Like
// PredictSync it blocks for queue room and waits until ctx is done; a
// shed sheds the whole batch with an error wrapping ErrShed.
func (s *Server) PredictBatchSync(ctx context.Context, rows []BatchRow, out []PredictResponse) error {
	if err := s.checkBatchSize(len(rows)); err != nil {
		return err
	}
	if len(out) != len(rows) {
		return fmt.Errorf("%w: out has %d slots for %d rows", ErrBadRequest, len(out), len(rows))
	}
	snap := s.reg.Load()
	nf := len(snap.Features)
	j := newJob(len(rows), nf)
	for i := range rows {
		if len(rows[i].X) != nf {
			j.free()
			return fmt.Errorf("%w: row %d has %d features, want %d", ErrBadRequest, i, len(rows[i].X), nf)
		}
		copy(j.x[i*nf:(i+1)*nf], rows[i].X)
		j.srcs[i], j.dsts[i] = rows[i].Src, rows[i].Dst
	}
	s.mBatchRows.Observe(float64(len(rows)))
	return s.submitSync(ctx, j, snap, 0, out)
}

// submitSync is submit with backpressure for the Sync APIs; on success
// it copies j's answers into out (one slot per row) and recycles j.
func (s *Server) submitSync(ctx context.Context, j *job, snap *Registry, wait time.Duration, out []PredictResponse) error {
	if err := s.submit(ctx, j, snap, wait, true); err != nil {
		return err
	}
	for i := range out {
		out[i] = PredictResponse{Rate: j.out[i], Model: j.ents[i].label, Generation: j.gen, QueueMS: j.queueMS}
	}
	j.free()
	return nil
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
