package main

import (
	"bytes"
	"context"
	"fmt"
	"path/filepath"
	"runtime"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/features"
	"repro/internal/ml/gbt"
	"repro/internal/serve"
)

const (
	batchRows    = 256   // rows per /predict/batch body
	batchRate    = 400.0 // phase A schedule, batches/s: about 40% of loopback capacity on 2 cores
	batchLimitMS = 10.0  // latency limit per batch
	setupReps    = 3     // set-ups per run; setup_s is their median
	reloadReps   = 9     // registry promotions timed after the load phases
	sampleEvery  = 16    // every sampleEvery-th answer is checked in full
)

// batchWindow is the phase A window for latency percentiles: 1,000
// batches at 400/s, enough for a p99 with ten samples beyond it.
const batchWindow = 2500 * time.Millisecond

// genLimit is how late the generator may run at p99 before the run is
// invalid. The generator shares the daemon's process and cores, so under
// retraining it waits for a core as the daemon does, by up to a
// scheduler quantum or two; the limit catches a generator that cannot
// keep its schedule at all.
const genLimit = 50 * time.Millisecond

var globalTag = []byte(`"model":"global"`)

type batchState struct {
	p     *core.Pipeline
	edges []core.EdgeData
	reg   *serve.Registry
	st    *stack
}

// batchSetup is everything before the daemon answers its first batch:
// simulate the seed's log, engineer features, select the study edges,
// train the registry with serve.Build, write it and boot the daemon.
func batchSetup(ctx context.Context, parent *span, e *env) (*batchState, error) {
	p, err := buildPipeline(ctx, parent, e.seed)
	if err != nil {
		return nil, err
	}
	s := &batchState{p: p}
	_ = parent.timed("core.select_s", func() error { s.edges = p.StudyEdges(); return nil })
	if err := parent.timed("serve.build_s", func() (err error) {
		s.reg, err = serve.Build(ctx, p, s.edges)
		return err
	}); err != nil {
		return nil, err
	}
	regPath := filepath.Join(e.dir, "registry.json")
	if err := parent.timed("serve.boot", func() (err error) {
		if err := writeRegistry(regPath, s.reg); err != nil {
			return err
		}
		s.st, err = bootStack(regPath)
		return err
	}); err != nil {
		return nil, err
	}
	return s, nil
}

// setupMedian runs setup setupReps times and returns the last state and
// the median duration; earlier states are closed.
func setupMedian[T any](reps int, setup func() (T, error), closeState func(T) error) (T, float64, error) {
	var s T
	var times []float64
	for rep := range reps {
		if rep > 0 {
			if err := closeState(s); err != nil {
				return s, 0, err
			}
		}
		t0 := time.Now()
		var err error
		if s, err = setup(); err != nil {
			return s, 0, err
		}
		times = append(times, time.Since(t0).Seconds())
	}
	return s, median(times), nil
}

// tracedSetup runs setup once untraced and once under a span of root,
// records the difference as the tracing overhead, and returns the traced
// state.
func tracedSetup[T any](e *env, root *span, setup func(*span) (T, error), closeState func(T) error) (T, error) {
	u := root.child("bench.untraced_setup")
	t0 := time.Now()
	plain, err := setup(nil)
	plainS := time.Since(t0).Seconds()
	u.end()
	if err != nil {
		return plain, err
	}
	if err := closeState(plain); err != nil {
		return plain, err
	}
	sp := root.child("setup")
	t1 := time.Now()
	s, err := setup(sp)
	sp.end()
	e.set("trace.overhead_s", time.Since(t1).Seconds()-plainS)
	return s, err
}

func runServeBatch(ctx context.Context, e *env) error {
	root := e.tr.start("run")
	defer root.end()
	closeState := func(s *batchState) error { return s.st.close() }
	var s *batchState
	var err error
	if e.tr == nil {
		var setupS float64
		s, setupS, err = setupMedian(setupReps, func() (*batchState, error) { return batchSetup(ctx, nil, e) }, closeState)
		e.set("setup_s", setupS)
	} else {
		s, err = tracedSetup(e, root, func(sp *span) (*batchState, error) { return batchSetup(ctx, sp, e) }, closeState)
	}
	if err != nil {
		return err
	}
	defer s.st.close()

	var rows []rowInput
	var bodies [][]byte
	var xgb, lin float64
	if err := root.timed("bench.inputs", func() (err error) {
		if rows, err = makeRows(s.p.Log, s.p.Vecs); err != nil {
			return err
		}
		bodies = make([][]byte, len(rows)/batchRows)
		for b := range bodies {
			bodies[b] = bytes.Join(lines(rows[b*batchRows:(b+1)*batchRows]), []byte{'\n'})
		}
		e.note("batches_one_model", float64(oneModelBatches(s.reg, rows, len(bodies))))
		if e.tr == nil {
			xgb, lin, err = registryMdAPE(s, rows)
		}
		return err
	}); err != nil {
		return err
	}
	// Only the requests, the registry and the daemon stay live through
	// the load phases, so the collector's work there is the daemon's.
	s.p, s.edges = nil, nil
	for i := range rows {
		rows[i].line = nil
	}
	regs := map[int64]*serve.Registry{s.st.srv.Generation(): s.st.srv.Registry()}

	client := newClient()
	defer client.CloseIdleConnections()
	var bufs [conns]bytes.Buffer
	var globalRows atomic.Int64
	smp := &sampler{}
	url := s.st.url + "/predict/batch"
	send := func(w, i int) (int, error) {
		b := i % len(bodies)
		if err := post(client, url, "application/x-ndjson", bodies[b], &bufs[w]); err != nil {
			return 0, err
		}
		out := bufs[w].Bytes()
		if n := bytes.Count(out, []byte{'\n'}); n != batchRows {
			return 0, fmt.Errorf("batch %d: %d answer lines for %d rows", b, n, batchRows)
		}
		globalRows.Add(int64(bytes.Count(out, globalTag)))
		if i%sampleEvery == 0 {
			for k, line := range bytes.Split(bytes.TrimSuffix(out, []byte{'\n'}), []byte{'\n'}) {
				if err := smp.add(b*batchRows+k, line); err != nil {
					return 0, err
				}
			}
		}
		return batchRows, nil
	}

	gc(root)
	sp := root.child("phase_a")
	a := runPhase(ctx, e.seconds*55/100, func(ctx context.Context) phaseResult {
		return openLoop(ctx, "a-open-400bps", batchRate, conns, batchLimitMS, genLimit, send)
	})
	sp.end()
	gc(root)
	sp = root.child("phase_b")
	b := runPhase(ctx, e.seconds*35/100, func(ctx context.Context) phaseResult {
		return closedLoop(ctx, "b-closed-2conn", conns, batchLimitMS, send)
	})
	sp.end()
	a.window(batchWindow, batchLimitMS)
	b.window(time.Second, batchLimitMS)
	e.phase(a)
	e.phase(b)
	stats := readServerStats(s.st.metrics)

	_ = root.timed("bench.verify", func() error { verifyServed(e, "serve-batch", smp.got, rows, regs); return nil })
	e.note("phase_a.p99_within_limit", boolNum(a.Latency.P99InLim))

	// Registry promotion into the live daemon: write the registry file
	// and Reload it, a full retrain's serving half.
	regPath := s.st.regPath
	var reloads []float64
	for range reloadReps {
		gc(root)
		t0 := time.Now()
		if err := root.timed("serve.registry_write", func() error { return writeRegistry(regPath, s.reg) }); err != nil {
			return err
		}
		gen := s.st.srv.Generation()
		if err := root.timed("serve.reload_s", s.st.srv.Reload); err != nil {
			return err
		}
		reloads = append(reloads, time.Since(t0).Seconds())
		e.check("reload promotes the next generation", s.st.srv.Generation() == gen+1, "generation %d after reload from %d", s.st.srv.Generation(), gen)
	}

	if e.tr != nil {
		e.set("p50_ms", a.WindowP50MS)
		e.set("p99_ms", a.WindowP99MS)
		e.setServerStats(stats)
		e.set("serve.global_share", float64(globalRows.Load())/float64(max(a.Rows+b.Rows, 1)))
		e.set("gbt.trees", float64(registryTrees(s.reg)))
		e.set("loadgen.late_p99_ms", a.GenLateP99MS)
		e.set("loadgen.late_max_ms", a.GenLateMaxMS)
		return probeBatchLayers(ctx, e, root.child("probe"), s.st, rows, bodies)
	}

	e.set("wall_s", float64(len(rows))/b.WindowRowsPS)
	e.set("rows_per_s", b.WindowRowsPS)
	e.set("mdape_xgb_pct", xgb)
	e.set("mdape_lr_pct", lin)
	e.set("refresh_p50_s", median(reloads))
	e.set("ok_share", float64(a.Succeeded+b.Succeeded)/float64(max(a.Sent+b.Sent, 1)))
	return nil
}

// gc collects garbage left by set-up or an earlier phase, so each
// phase starts from the same heap.
func gc(sp *span) {
	_ = sp.timed("bench.gc", func() error { runtime.GC(); return nil })
}

// oneModelBatches counts the batch bodies whose rows one model serves.
func oneModelBatches(reg *serve.Registry, rows []rowInput, n int) int {
	count := 0
	for b := range n {
		first, _ := reg.Lookup(rows[b*batchRows].src, rows[b*batchRows].dst)
		same := true
		for _, r := range rows[b*batchRows : (b+1)*batchRows] {
			if m, _ := reg.Lookup(r.src, r.dst); m != first {
				same = false
				break
			}
		}
		if same {
			count++
		}
	}
	return count
}

// runPhase runs one load phase for d under ctx.
func runPhase(ctx context.Context, d time.Duration, f func(context.Context) phaseResult) phaseResult {
	ctx, cancel := context.WithTimeout(ctx, d)
	defer cancel()
	return f(ctx)
}

func lines(rows []rowInput) [][]byte {
	out := make([][]byte, len(rows))
	for i, r := range rows {
		out[i] = r.line
	}
	return out
}

func boolNum(b bool) float64 {
	if b {
		return 1
	}
	return 0
}

func registryTrees(reg *serve.Registry) int {
	n := reg.Global.NumTrees()
	for _, m := range reg.Edges {
		n += m.NumTrees()
	}
	return n
}

// registryMdAPE scores every row of the log with the served registry and
// with its linear twin: the paper's linear model fitted on the same rows
// as each registry model (each study edge's qualifying transfers, and
// all of them for the global fallback).
func registryMdAPE(s *batchState, rows []rowInput) (xgb, lin float64, err error) {
	twins := map[*gbt.Model]func([]float64) (float64, error){}
	var all []int
	for _, ed := range s.edges {
		ds, err := features.Dataset(s.p.VectorsAt(ed.Qualifying), false)
		if err != nil {
			return 0, 0, err
		}
		if twins[s.reg.Edges[ed.Edge.String()]], err = linearTwin(ds); err != nil {
			return 0, 0, err
		}
		all = append(all, ed.Qualifying...)
	}
	ds, err := features.Dataset(s.p.VectorsAt(all), false)
	if err != nil {
		return 0, 0, err
	}
	if twins[s.reg.Global], err = linearTwin(ds); err != nil {
		return 0, 0, err
	}
	pg, pl, actual := make([]float64, len(rows)), make([]float64, len(rows)), make([]float64, len(rows))
	for i, r := range rows {
		m, _ := s.reg.Lookup(r.src, r.dst)
		if pg[i], err = m.Predict(r.x); err != nil {
			return 0, 0, err
		}
		if pl[i], err = twins[m](r.x); err != nil {
			return 0, 0, err
		}
		actual[i] = r.rate
	}
	return mdapePct(pg, actual), mdapePct(pl, actual), nil
}
