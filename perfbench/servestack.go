package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"strings"
	"sync"
	"time"

	"repro/internal/features"
	"repro/internal/logs"
	"repro/internal/ml/dataset"
	"repro/internal/ml/linreg"
	"repro/internal/obs"
	"repro/internal/serve"
)

// conns is the load generator's connection budget: at most two, so the
// client never outnumbers the cores it shares with the server.
const conns = 2

// rowInput is one logged transfer as a prediction request.
type rowInput struct {
	src, dst string
	x        []float64 // features.Names order
	rate     float64   // the rate the transfer achieved, MB/s
	line     []byte    // the /predict request body
}

// makeRows turns every record of the log, in log order, into a request.
func makeRows(l *logs.Log, vecs []features.Vector) ([]rowInput, error) {
	rows := make([]rowInput, len(vecs))
	for i := range vecs {
		v := &vecs[i]
		r := &l.Records[v.RecordIdx]
		x := v.Values(false)
		fm := make(map[string]float64, len(x))
		for j, name := range features.Names {
			fm[name] = x[j]
		}
		line, err := json.Marshal(serve.PredictRequest{Src: r.Src, Dst: r.Dst, Features: fm})
		if err != nil {
			return nil, err
		}
		rows[i] = rowInput{src: r.Src, dst: r.Dst, x: x, rate: v.Rate, line: line}
	}
	return rows, nil
}

// stack is a prediction daemon serving on a loopback listener.
type stack struct {
	srv     *serve.Server
	metrics *obs.Registry
	http    *http.Server
	url     string
	served  chan error
	regPath string
}

// bootStack starts a daemon on the registry file at regPath. The file
// watcher is off: the benchmark reloads explicitly, so no poll interval
// enters any measurement.
func bootStack(regPath string) (*stack, error) {
	m := obs.NewRegistry()
	srv, err := serve.New(serve.Config{
		RegistryPath:  regPath,
		WatchInterval: -1,
		Metrics:       m,
		Logf:          func(string, ...any) {},
	})
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	srv.Start()
	st := &stack{srv: srv, metrics: m, http: &http.Server{Handler: srv.Handler()},
		url: "http://" + ln.Addr().String(), served: make(chan error, 1), regPath: regPath}
	go func() { st.served <- st.http.Serve(ln) }()
	return st, nil
}

// close shuts the listener down and drains the daemon, returning once
// both have stopped.
func (s *stack) close() error {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err := s.http.Shutdown(ctx)
	if serr := <-s.served; !errors.Is(serr, http.ErrServerClosed) && err == nil {
		err = serr
	}
	if derr := s.srv.Drain(); err == nil {
		err = derr
	}
	return err
}

// writeRegistry writes reg where the daemon loads it, atomically.
func writeRegistry(path string, reg *serve.Registry) error {
	tmp := path + ".tmp"
	f, err := os.Create(tmp)
	if err != nil {
		return err
	}
	if err := serve.WriteRegistry(f, reg); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	return os.Rename(tmp, path)
}

// newClient returns an HTTP client that keeps at most conns connections
// to the daemon.
func newClient() *http.Client {
	return &http.Client{Transport: &http.Transport{
		MaxConnsPerHost:     conns,
		MaxIdleConnsPerHost: conns,
		DisableCompression:  true,
	}}
}

// post sends body and reads the whole answer into buf.
func post(c *http.Client, url, ctype string, body []byte, buf *bytes.Buffer) error {
	resp, err := c.Post(url, ctype, bytes.NewReader(body))
	if err != nil {
		return err
	}
	buf.Reset()
	_, err = buf.ReadFrom(resp.Body)
	resp.Body.Close()
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("HTTP %d: %s", resp.StatusCode, strings.TrimSpace(buf.String()))
	}
	return nil
}

// answer is one sampled answer, kept for checking after the phase.
type answer struct {
	row  int
	resp serve.PredictResponse
}

// sampler collects sampled answers from the load generator's workers.
type sampler struct {
	mu  sync.Mutex
	got []answer
}

func (s *sampler) add(row int, body []byte) error {
	var r serve.PredictResponse
	if err := json.Unmarshal(body, &r); err != nil {
		return fmt.Errorf("decoding answer for row %d: %w", row, err)
	}
	s.mu.Lock()
	s.got = append(s.got, answer{row, r})
	s.mu.Unlock()
	return nil
}

// verifyServed checks every sampled answer against the registry that
// answered it: the rate must equal, bit for bit, what gbt.Model.Predict
// gives through Registry.Lookup, and the model label must match.
func verifyServed(e *env, what string, got []answer, rows []rowInput, regs map[int64]*serve.Registry) {
	bad, first := 0, ""
	for _, s := range got {
		r := rows[s.row]
		reg := regs[s.resp.Generation]
		if reg == nil {
			bad++
			if first == "" {
				first = fmt.Sprintf("row %d answered by unknown generation %d", s.row, s.resp.Generation)
			}
			continue
		}
		m, label := reg.Lookup(r.src, r.dst)
		want, err := m.Predict(r.x)
		if err != nil || s.resp.Rate != want || s.resp.Model != label {
			bad++
			if first == "" {
				first = fmt.Sprintf("row %d: served %v by %q, Predict gives %v by %q (err %v)", s.row, s.resp.Rate, s.resp.Model, want, label, err)
			}
		}
	}
	e.check(what+" answers match gbt.Model.Predict", bad == 0 && len(got) > 0, "%d of %d sampled answers differ; first: %s", bad, len(got), first)
	e.note(what+".checked_answers", float64(len(got)))
}

// linearTwin fits the paper's linear model (standardized features,
// least squares) on ds and returns its predictor over raw feature rows.
func linearTwin(ds *dataset.Dataset) (func([]float64) (float64, error), error) {
	sc, err := dataset.FitScaler(ds)
	if err != nil {
		return nil, err
	}
	std, err := sc.Transform(ds)
	if err != nil {
		return nil, err
	}
	m, err := linreg.Fit(std)
	if err != nil {
		return nil, err
	}
	return func(x []float64) (float64, error) {
		z, err := sc.TransformRow(x)
		if err != nil {
			return 0, err
		}
		return m.Predict(z)
	}, nil
}

// serverStats reads the daemon's own instruments.
type serverStats struct {
	queueWaitMS, rowsPerBatch float64
	shed                      map[string]int64 // by reason, singleton and batch together
}

func readServerStats(m *obs.Registry) serverStats {
	snap := m.Snapshot()
	st := serverStats{
		queueWaitMS:  snap.Histograms["serve.queue_wait_ms"].Mean(),
		rowsPerBatch: snap.Histograms["serve.batch_size"].Mean(),
		shed:         map[string]int64{},
	}
	for name, v := range snap.Counters {
		for _, fam := range []string{"serve.shed{reason=\"", "serve.batch_shed{reason=\""} {
			if reason, ok := strings.CutPrefix(name, fam); ok {
				st.shed[strings.TrimSuffix(reason, "\"}")] += v
			}
		}
	}
	return st
}

func (e *env) setServerStats(st serverStats) {
	e.set("serve.queue_wait_ms", st.queueWaitMS)
	e.set("serve.rows_per_batch", st.rowsPerBatch)
	e.set("serve.shed_queue_full", float64(st.shed["queue_full"]))
	e.set("serve.shed_queue_wait", float64(st.shed["queue_wait"]))
	e.set("serve.shed_deadline", float64(st.shed["deadline"]))
	var other int64
	for reason, n := range st.shed {
		if reason != "queue_full" && reason != "queue_wait" && reason != "deadline" {
			other += n
		}
	}
	e.note("serve.shed_other", float64(other))
}

// discardWriter is a minimal http.ResponseWriter for driving Handler()
// in process without a recorder's bookkeeping.
type discardWriter struct {
	h    http.Header
	code int
	n    int
}

func (w *discardWriter) Header() http.Header { return w.h }
func (w *discardWriter) WriteHeader(code int) {
	w.code = code
}
func (w *discardWriter) Write(b []byte) (int, error) {
	if w.code == 0 {
		w.code = http.StatusOK
	}
	w.n += len(b)
	return len(b), nil
}

func (w *discardWriter) reset() {
	clear(w.h)
	w.code, w.n = 0, 0
}
