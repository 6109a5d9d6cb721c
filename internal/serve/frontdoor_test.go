package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

// serveHTTP sends one POST through the daemon's in-process handler.
func serveHTTP(h http.Handler, path string, body []byte) *httptest.ResponseRecorder {
	w := httptest.NewRecorder()
	h.ServeHTTP(w, httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body)))
	return w
}

// TestFrontDoorMatchesPredict is the HTTP differential for the one
// front door: on a registry mixing code-space edge models, an
// exact-trained edge (the float walk) and the global fallback, every
// rate /predict and /predict/batch answer equals Lookup +
// Model.Predict, every line is exactly what encoding/json emits for its
// values, and each /predict body equals the matching batch line byte
// for byte apart from queue_ms, the one timing field.
func TestFrontDoorMatchesPredict(t *testing.T) {
	s, _ := newMixedServer(t, testFeatures, nil)
	s.Start()
	defer s.Drain()
	h := s.Handler()
	reg := s.Registry()

	rng := rand.New(rand.NewSource(21))
	const n = 48
	reqs := make([]PredictRequest, n)
	var batch bytes.Buffer
	for i := range reqs {
		e := mixedEdges[i%len(mixedEdges)]
		reqs[i] = PredictRequest{Src: e[0], Dst: e[1], Features: map[string]float64{
			"a": rng.Float64()*4 - 2, // off the training surface on purpose
			"b": rng.Float64()*4 - 2,
			"c": rng.Float64()*4 - 2,
		}}
		line, err := json.Marshal(reqs[i])
		if err != nil {
			t.Fatal(err)
		}
		batch.Write(line)
		batch.WriteByte('\n')
	}
	bw := serveHTTP(h, "/predict/batch", batch.Bytes())
	if bw.Code != http.StatusOK {
		t.Fatalf("batch status %d: %s", bw.Code, bw.Body)
	}
	lines := strings.SplitAfter(bw.Body.String(), "\n")
	if lines = lines[:len(lines)-1]; len(lines) != n {
		t.Fatalf("%d batch lines for %d rows", len(lines), n)
	}

	x := make([]float64, len(reg.Features))
	for i := range reqs {
		body, err := json.Marshal(reqs[i])
		if err != nil {
			t.Fatal(err)
		}
		if i%7 == 0 {
			// A pretty-printed body spans lines and must still parse.
			if body, err = json.MarshalIndent(reqs[i], "", "  "); err != nil {
				t.Fatal(err)
			}
		}
		sw := serveHTTP(h, "/predict", body)
		if sw.Code != http.StatusOK {
			t.Fatalf("row %d: /predict status %d: %s", i, sw.Code, sw.Body)
		}
		if err := reg.Vectorize(reqs[i].Features, x); err != nil {
			t.Fatal(err)
		}
		for what, line := range map[string]string{"/predict": sw.Body.String(), "/predict/batch": lines[i]} {
			var got PredictResponse
			if err := json.Unmarshal([]byte(line), &got); err != nil {
				t.Fatalf("row %d %s: %v", i, what, err)
			}
			checkPredict(t, reg, what, reqs[i].Src, reqs[i].Dst, x, got.Rate, got.Model)
			var enc bytes.Buffer
			if err := json.NewEncoder(&enc).Encode(got); err != nil {
				t.Fatal(err)
			}
			if enc.String() != line {
				t.Fatalf("row %d %s: line %q, encoding/json writes %q", i, what, line, enc.String())
			}
		}
		single := stripQueueMS(t, strings.TrimSuffix(sw.Body.String(), "\n"))
		if got := stripQueueMS(t, strings.TrimSuffix(lines[i], "\n")); got != single {
			t.Fatalf("row %d: batch line %s, /predict body %s", i, got, single)
		}
	}
	code := s.cfg.Metrics.Counter(`serve.rows{path="code"}`).Value()
	float := s.cfg.Metrics.Counter(`serve.rows{path="float"}`).Value()
	if code == 0 || float == 0 || code+float != 2*n {
		t.Errorf("serve.rows code %d float %d: want both paths over %d rows", code, float, 2*n)
	}
}

// TestSyncShedsAfterDrain: once Drain has stopped the batchers, the
// Sync APIs shed at once with ErrShed — like HTTP's 429 draining —
// instead of admitting into shards no batcher drains and waiting on a
// context that may never end.
func TestSyncShedsAfterDrain(t *testing.T) {
	s, _ := newTestServer(t, 1, nil)
	s.Start()
	if err := s.Drain(); err != nil {
		t.Fatal(err)
	}
	errs := make(chan error, 2)
	go func() {
		_, err := s.PredictSync(context.Background(), &PredictRequest{Src: "S1", Dst: "D1", Features: map[string]float64{"a": 1}})
		errs <- err
	}()
	go func() {
		rows := []BatchRow{{Src: "S1", Dst: "D1", X: []float64{1, 0, 0}}}
		errs <- s.PredictBatchSync(context.Background(), rows, make([]PredictResponse, 1))
	}()
	for i := 0; i < 2; i++ {
		select {
		case err := <-errs:
			if !errors.Is(err, ErrShed) {
				t.Errorf("sync call after drain: %v, want ErrShed", err)
			}
		case <-time.After(2 * time.Second):
			t.Fatal("sync call after drain still waiting after 2s")
		}
	}
}

// TestPredictSyncValidation: PredictSync holds a request to the rules
// /predict's decoder applies, and deadline_ms bounds its wait.
func TestPredictSyncValidation(t *testing.T) {
	// Never started: no batcher answers, so only a deadline ends a wait.
	s, _ := newTestServer(t, 1, nil)
	feats := map[string]float64{"a": 1}
	cases := []struct {
		name string
		req  PredictRequest
		want error
	}{
		{"nil features", PredictRequest{Src: "S1", Dst: "D1"}, ErrBadRequest},
		{"empty features", PredictRequest{Src: "S1", Dst: "D1", Features: map[string]float64{}}, ErrBadRequest},
		{"unknown feature", PredictRequest{Features: map[string]float64{"nope": 1}}, ErrBadRequest},
		{"negative deadline", PredictRequest{Features: feats, DeadlineMS: -5}, ErrBadRequest},
		{"deadline passes", PredictRequest{Src: "S1", Dst: "D1", Features: feats, DeadlineMS: 20}, ErrShed},
	}
	for _, tc := range cases {
		errc := make(chan error, 1)
		go func() {
			_, err := s.PredictSync(context.Background(), &tc.req)
			errc <- err
		}()
		select {
		case err := <-errc:
			if !errors.Is(err, tc.want) {
				t.Errorf("%s: %v, want %v", tc.name, err, tc.want)
			}
		case <-time.After(2 * time.Second):
			t.Fatalf("%s: PredictSync still waiting after 2s", tc.name)
		}
	}
}

// discardWriter is a minimal reusable http.ResponseWriter.
type discardWriter struct {
	h    http.Header
	code int
}

func (w *discardWriter) Header() http.Header         { return w.h }
func (w *discardWriter) WriteHeader(code int)        { w.code = code }
func (w *discardWriter) Write(b []byte) (int, error) { return len(b), nil }

// TestFrontDoorAllocs guards the HTTP doors' steady-state allocations,
// measured through Handler() with a reused request. The counts are the
// header values each door sets (Content-Type; X-Rows on the batch
// door): body, job, codec and response buffers are all pooled.
func TestFrontDoorAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates on the measured path")
	}
	s, _ := newTestServer(t, 1, func(c *Config) { c.Batchers = 1 })
	s.Start()
	defer s.Drain()
	h := s.Handler()
	for _, tc := range []struct {
		path string
		body string
		max  float64
	}{
		{"/predict", goodBody, 1},
		{"/predict/batch", strings.Repeat(goodBody+"\n", 64), 2},
	} {
		body := []byte(tc.body)
		rd := bytes.NewReader(body)
		req := httptest.NewRequest(http.MethodPost, tc.path, nil)
		req.Body = io.NopCloser(rd)
		w := &discardWriter{h: http.Header{}}
		run := func() {
			rd.Reset(body)
			h.ServeHTTP(w, req)
			if w.code != http.StatusOK {
				t.Fatalf("%s: status %d", tc.path, w.code)
			}
		}
		for i := 0; i < 20; i++ { // warm the pools and the batcher scratch
			run()
		}
		if avg := testing.AllocsPerRun(200, run); avg > tc.max {
			t.Errorf("%s: %.2f allocs/op, want <= %v", tc.path, avg, tc.max)
		}
	}
}
