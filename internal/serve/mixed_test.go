package serve

import (
	"context"
	"math"
	"math/rand"
	"testing"
	"time"

	"repro/internal/ml/dataset"
	"repro/internal/ml/gbt"
)

// mixedEdges are the edges of mixedRegistry, plus one ("X->Y") that no
// model serves, so it resolves to the global fallback.
var mixedEdges = [][2]string{{"S1", "D1"}, {"S2", "D2"}, {"S3", "D3"}, {"X", "Y"}}

// mixedModel trains a small ensemble on the surface scale*(3a-2b+c) with
// its columns in the given name order: histogram-trained (code-space)
// when bins > 0, exact-trained (no code forest) when bins == 0.
func mixedModel(t testing.TB, names []string, seed int64, scale float64, bins int) *gbt.Model {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	const rows = 300
	x := make([][]float64, rows)
	y := make([]float64, rows)
	for i := range x {
		v := map[string]float64{"a": rng.Float64(), "b": rng.Float64(), "c": rng.Float64()}
		x[i] = make([]float64, len(names))
		for k, name := range names {
			x[i][k] = v[name]
		}
		y[i] = scale * (3*v["a"] - 2*v["b"] + v["c"])
	}
	d, err := dataset.New(append([]string(nil), names...), x, y)
	if err != nil {
		t.Fatal(err)
	}
	p := gbt.DefaultParams()
	p.Rounds = 20
	p.Seed = seed
	p.Bins = bins
	m, err := gbt.Train(d, p)
	if err != nil {
		t.Fatal(err)
	}
	if m.CodeSpace() != (bins > 0) {
		t.Fatalf("bins %d: CodeSpace() = %v", bins, m.CodeSpace())
	}
	return m
}

// mixedRegistry serves two code-space edges, one exact-trained edge
// (float walk only) and a code-space global fallback, in the given
// feature layout.
func mixedRegistry(t testing.TB, names []string, scale float64) *Registry {
	t.Helper()
	reg := &Registry{
		Features: append([]string(nil), names...),
		Global:   mixedModel(t, names, 8, scale, 256),
		Edges: map[string]*gbt.Model{
			"S1->D1": mixedModel(t, names, 7, scale, 256),
			"S2->D2": mixedModel(t, names, 9, scale, 0),
			"S3->D3": mixedModel(t, names, 11, scale, 64),
		},
	}
	x := []float64{0.2, 0.4, 0.6}
	for edge, m := range reg.Edges {
		want, err := m.Predict(x)
		if err != nil {
			t.Fatal(err)
		}
		reg.Probes = append(reg.Probes, Probe{Edge: edge, X: x, Want: want})
	}
	if err := reg.init(); err != nil {
		t.Fatal(err)
	}
	return reg
}

// newMixedServer is newTestServer promoted to mixedRegistry(names, 1).
func newMixedServer(t testing.TB, names []string, mod func(*Config)) (*Server, string) {
	t.Helper()
	s, path := newTestServer(t, 1, mod)
	writeRegistryFile(t, path, mixedRegistry(t, names, 1))
	if err := s.Reload(); err != nil {
		t.Fatal(err)
	}
	return s, path
}

// checkPredict requires rate and label to equal what the snapshot's
// resolved model predicts for x through Model.Predict, bit for bit.
func checkPredict(t testing.TB, reg *Registry, what, src, dst string, x []float64, rate float64, label string) {
	t.Helper()
	m, wantLabel := reg.Lookup(src, dst)
	want, err := m.Predict(x)
	if err != nil {
		t.Fatal(err)
	}
	if rate != want || label != wantLabel {
		t.Fatalf("%s (%s->%s): got %v from %q, want %v from %q", what, src, dst, rate, label, want, wantLabel)
	}
}

// TestMixedBatchMatchesPredict: one batch spanning code-space models, an
// exact-trained model and the global fallback answers every row exactly
// as Lookup + Model.Predict does. Rows come in runs of three per edge, and
// one run carries a NaN feature the quantizer refuses, so that run takes
// the float walk; the path counters account for every row.
func TestMixedBatchMatchesPredict(t *testing.T) {
	s, _ := newMixedServer(t, testFeatures, nil)
	s.Start()
	defer s.Drain()
	rng := rand.New(rand.NewSource(5))
	const n = 120
	rows := make([]BatchRow, n)
	exact := 0
	for i := range rows {
		e := mixedEdges[(i/3)%len(mixedEdges)]
		rows[i] = BatchRow{Src: e[0], Dst: e[1], X: []float64{rng.Float64()*3 - 1, rng.Float64()*3 - 1, rng.Float64()*3 - 1}}
		if e[0] == "S2" {
			exact++
		}
	}
	rows[1].X[2] = math.NaN() // in the first S1->D1 run
	out := make([]PredictResponse, n)
	if err := s.PredictBatchSync(context.Background(), rows, out); err != nil {
		t.Fatal(err)
	}
	reg := s.Registry()
	for i, r := range rows {
		checkPredict(t, reg, "row", r.Src, r.Dst, r.X, out[i].Rate, out[i].Model)
	}
	code := s.cfg.Metrics.Counter(`serve.rows{path="code"}`).Value()
	float := s.cfg.Metrics.Counter(`serve.rows{path="float"}`).Value()
	if wantFloat := int64(exact + 3); code+float != n || float != wantFloat {
		t.Errorf("serve.rows code %d float %d, want %d float of %d", code, float, wantFloat, n)
	}
}

// admitRows builds jobs the way the front door does — vectorized and
// quantized against the current snapshot — one job per entry of sizes,
// rows cycling over mixedEdges.
func admitRows(s *Server, rng *rand.Rand, sizes []int) []*job {
	snap := s.reg.Load()
	nf := len(snap.Features)
	var jobs []*job
	k := 0
	for _, n := range sizes {
		j := newJob(n, nf)
		for r := 0; r < n; r++ {
			e := mixedEdges[k%len(mixedEdges)]
			k++
			j.srcs[r], j.dsts[r] = e[0], e[1]
			for c := 0; c < nf; c++ {
				j.x[r*nf+c] = rng.Float64()*3 - 1
			}
		}
		s.quantizeJob(j, snap)
		j.enq = time.Now()
		jobs = append(jobs, j)
	}
	return jobs
}

// runBatch hands jobs to the batcher as one coalesced batch and returns
// each job's rows by feature name (a, b, c) as they were admitted.
func runBatch(s *Server, jobs []*job) [][]map[string]float64 {
	feats := make([][]map[string]float64, len(jobs))
	for i, j := range jobs {
		nf := len(j.areg.Features)
		for r := 0; r < j.n; r++ {
			v := map[string]float64{}
			for c, name := range j.areg.Features {
				v[name] = j.x[r*nf+c]
			}
			feats[i] = append(feats[i], v)
		}
	}
	s.runJobs(&shardScratch{jobs: jobs})
	for _, j := range jobs {
		<-j.done
	}
	return feats
}

// checkJobs requires every row of every job to match Lookup +
// Model.Predict on the batch's snapshot, in its feature layout.
func checkJobs(t *testing.T, s *Server, jobs []*job, feats [][]map[string]float64) {
	t.Helper()
	reg := s.Registry()
	for i, j := range jobs {
		if j.err != nil || j.shed {
			t.Fatalf("job %d: err %v shed %v", i, j.err, j.shed)
		}
		if j.gen != reg.Generation {
			t.Fatalf("job %d answered by generation %d, want %d", i, j.gen, reg.Generation)
		}
		for r := 0; r < j.n; r++ {
			x := make([]float64, len(reg.Features))
			if err := reg.Vectorize(feats[i][r], x); err != nil {
				t.Fatal(err)
			}
			checkPredict(t, reg, "job row", j.srcs[r], j.dsts[r], x, j.out[r], j.ents[r].label)
		}
	}
}

// TestCoalescedSingletonsMixedEdges: one-row jobs on different edges,
// coalesced into one batch with a multi-row job, each get their own
// model's exact answer.
func TestCoalescedSingletonsMixedEdges(t *testing.T) {
	s, _ := newMixedServer(t, testFeatures, nil)
	rng := rand.New(rand.NewSource(11))
	jobs := admitRows(s, rng, []int{1, 1, 1, 1, 1, 7, 1, 1, 1})
	checkJobs(t, s, jobs, runBatch(s, jobs))
}

// TestMixedBatchAcrossReload: jobs admitted under one generation and
// batched after a reload to a registry with new models and a permuted
// feature layout are re-vectorized and re-quantized per row against the
// new snapshot (refreshJob).
func TestMixedBatchAcrossReload(t *testing.T) {
	s, path := newMixedServer(t, testFeatures, nil)
	rng := rand.New(rand.NewSource(13))
	jobs := admitRows(s, rng, []int{1, 5, 1, 9, 1})
	before := s.Generation()
	writeRegistryFile(t, path, mixedRegistry(t, []string{"c", "a", "b"}, 2.5))
	if err := s.Reload(); err != nil {
		t.Fatal(err)
	}
	if s.Generation() == before {
		t.Fatal("reload did not promote")
	}
	checkJobs(t, s, jobs, runBatch(s, jobs))
}
