package main

import (
	"context"
	"encoding/json"
	"errors"
	"math"
	"os"
	"slices"
	"sort"
	"testing"
	"time"
)

func TestTailPercentile(t *testing.T) {
	for _, tc := range []struct {
		n    int
		want float64
		ok   bool
	}{
		{19, 0, false},
		{20, 50, true},
		{99, 50, true},
		{100, 90, true},
		{999, 90, true},
		{1000, 99, true},
		{9999, 99, true},
		{10000, 99.9, true},
		{100000, 99.99, true},
	} {
		got, ok := tailPercentile(tc.n)
		if got != tc.want || ok != tc.ok {
			t.Errorf("tailPercentile(%d) = %v, %v; want %v, %v", tc.n, got, ok, tc.want, tc.ok)
		}
	}
}

func TestPercentileNearestRank(t *testing.T) {
	xs := make([]float64, 1000)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	if got := percentile(xs, 99); got != 990 {
		t.Errorf("p99 of 1..1000 = %v, want 990 (10 samples beyond)", got)
	}
	if got := percentile(xs, 50); got != 500 {
		t.Errorf("p50 of 1..1000 = %v, want 500", got)
	}
	if got := percentile([]float64{7}, 99.9); got != 7 {
		t.Errorf("p99.9 of one sample = %v, want 7", got)
	}
}

func TestSummarizeCountsFailuresAsInfinitelySlow(t *testing.T) {
	lat := make([]time.Duration, 95)
	for i := range lat {
		lat[i] = time.Millisecond
	}
	s := summarize(lat, 5, 2)
	if s.N != 100 || s.P50MS != 1 {
		t.Fatalf("n %d p50 %v, want 100 and 1", s.N, s.P50MS)
	}
	if s.P99MS != math.MaxFloat64 || s.P99InLim {
		t.Errorf("p99 %v within limit %v; five failures in 100 must miss the limit", s.P99MS, s.P99InLim)
	}
}

// TestSelfTimeNested pins the self-time rule: a span's duration minus
// the union of its direct children's intervals, clipped to the span.
func TestSelfTimeNested(t *testing.T) {
	ms := time.Millisecond
	tr := &tracer{spans: []spanRec{
		{name: "root", parent: -1, start: 0, end: 100 * ms},
		{name: "a", parent: 0, start: 10 * ms, end: 40 * ms},
		{name: "a1", parent: 1, start: 15 * ms, end: 25 * ms},
		{name: "b", parent: 0, start: 30 * ms, end: 60 * ms},  // overlaps a
		{name: "b", parent: 0, start: 90 * ms, end: 120 * ms}, // runs past root's end
		{name: "open", parent: 0, start: 70 * ms, end: -1},    // never ended
	}}
	got := tr.selfTimes()
	want := map[string]time.Duration{
		"root": 100*ms - 50*ms - 10*ms, // a∪b covers 10..60 and 90..100
		"a":    30*ms - 10*ms,
		"a1":   10 * ms,
		"b":    30*ms + 30*ms,
	}
	for name, w := range want {
		if got[name] != w {
			t.Errorf("self(%s) = %v, want %v", name, got[name], w)
		}
	}
	if _, ok := got["open"]; ok {
		t.Errorf("an unfinished span reported self time %v", got["open"])
	}
}

func TestSpanNilIsNoop(t *testing.T) {
	var tr *tracer
	sp := tr.start("run")
	called := false
	if err := sp.child("x").timed("y", func() error { called = true; return nil }); err != nil || !called {
		t.Fatalf("timed on a nil span: err %v, called %v", err, called)
	}
	sp.end()
	if len(tr.selfTimes()) != 0 {
		t.Fatal("nil tracer reported spans")
	}
}

// TestOpenLoopTimesFromDueUnderStall stalls the server on the first
// request. Every request due during the stall must be charged the wait
// from its due time, and the wait must not be blamed on the generator.
func TestOpenLoopTimesFromDueUnderStall(t *testing.T) {
	const stall = 40 * time.Millisecond
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Millisecond)
	defer cancel()
	r := openLoop(ctx, "stall", 1000, 1, 10, time.Second, func(_, i int) (int, error) {
		if i == 0 {
			time.Sleep(stall)
		}
		return 1, nil
	})
	if r.Sent < 40 || r.Sent != r.Scheduled || r.Failed != 0 {
		t.Fatalf("sent %d of %d scheduled, %d failed; want every due request sent", r.Sent, r.Scheduled, r.Failed)
	}
	// Requests 0..39 were due 1 ms apart and all waited for the stall to
	// end, so the median request waited about a quarter of it or more.
	if r.Latency.MaxMS < 35 || r.Latency.P50MS < 5 {
		t.Errorf("max %.2f ms, p50 %.2f ms: the stall was not charged from due time", r.Latency.MaxMS, r.Latency.P50MS)
	}
	if r.GenLateMaxMS >= 20 || r.GenBehind {
		t.Errorf("generator lateness max %.2f ms, behind %v: the server's stall was blamed on the generator", r.GenLateMaxMS, r.GenBehind)
	}
}

func TestOpenLoopCountsFailures(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	r := openLoop(ctx, "fail", 1000, 2, 10, time.Second, func(_, i int) (int, error) {
		if i%2 == 1 {
			return 0, errors.New("refused")
		}
		return 1, nil
	})
	if r.Failed == 0 || r.Succeeded+r.Failed != r.Sent || r.Latency.MaxMS != math.MaxFloat64 {
		t.Fatalf("sent %d, ok %d, failed %d, max %v: failures must be counted and infinitely slow", r.Sent, r.Succeeded, r.Failed, r.Latency.MaxMS)
	}
}

func TestFingerprintComparable(t *testing.T) {
	a := takeFingerprint("serve-batch", 3, 10, false)
	b := a
	b.Commit, b.Dirty = "other", !a.Dirty
	if err := a.checkComparable(b); err != nil {
		t.Errorf("results differing only in commit must compare: %v", err)
	}
	for name, mutate := range map[string]func(*fingerprint){
		"nproc":    func(f *fingerprint) { f.NumCPU++ },
		"maxprocs": func(f *fingerprint) { f.GOMAXPROCS++ },
		"go":       func(f *fingerprint) { f.GoVersion = "go0" },
		"cpu":      func(f *fingerprint) { f.CPUModel = "other" },
		"seed":     func(f *fingerprint) { f.Seed++ },
		"workload": func(f *fingerprint) { f.Workload = "pipeline" },
	} {
		c := a
		mutate(&c)
		if a.checkComparable(c) == nil {
			t.Errorf("results differing in %s compared", name)
		}
	}
}

// TestBenchmarkJSONMatchesCode keeps BENCHMARK.json and the metrics the
// driver prints in step.
func TestBenchmarkJSONMatchesCode(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	var wl []string
	for _, w := range spec.Workloads {
		wl = append(wl, w.Name)
	}
	sort.Strings(wl)
	if got, want := wl, workloadNames(); !slices.Equal(got, want) {
		t.Errorf("workloads %v in BENCHMARK.json, %v in code", got, want)
	}
	var e2e, layers []metricDef
	for _, m := range spec.EndToEnd {
		e2e = append(e2e, metricDef{m.Name, m.Unit})
		if m.Bound <= 0 || m.Bound > 0.25 || (m.Better != "lower" && m.Better != "higher") {
			t.Errorf("%s: bound %v better %q", m.Name, m.Bound, m.Better)
		}
	}
	for _, m := range spec.PerLayer {
		layers = append(layers, metricDef{m.Name, m.Unit})
	}
	if !slices.Equal(e2e, endToEnd) {
		t.Errorf("end_to_end %v in BENCHMARK.json, %v in code", e2e, endToEnd)
	}
	if !slices.Equal(layers, perLayer) {
		t.Errorf("per_layer %v in BENCHMARK.json, %v in code", layers, perLayer)
	}
}

// TestWindowMedianIgnoresOneStall: one stalled window moves the whole
// phase's tail but not the median over windows.
func TestWindowMedianIgnoresOneStall(t *testing.T) {
	r := phaseResult{ElapsedS: 5}
	for k := range 5 {
		for i := range 1000 {
			lat := time.Millisecond
			if k == 2 && i < 100 {
				lat = 50 * time.Millisecond
			}
			r.done = append(r.done, completion{at: time.Duration(k)*time.Second + time.Duration(i)*time.Millisecond, lat: lat, rows: 2})
		}
	}
	r.window(time.Second, 10)
	if r.Windows != 5 || r.WindowP99MS != 1 || r.WindowP50MS != 1 || r.WindowRowsPS != 2000 {
		t.Errorf("windows %d, p50 %v, p99 %v, rows/s %v; want 5, 1, 1, 2000", r.Windows, r.WindowP50MS, r.WindowP99MS, r.WindowRowsPS)
	}
	if r.WindowP99s[2] != 50 {
		t.Errorf("stalled window p99 %v, want 50", r.WindowP99s[2])
	}
}
