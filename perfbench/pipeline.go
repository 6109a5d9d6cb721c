package main

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"time"

	"repro/internal/core"
	"repro/internal/features"
	"repro/internal/logs"
	"repro/internal/ml/dataset"
	"repro/internal/ml/gbt"
	"repro/internal/ml/linreg"
	"repro/internal/simulate"
)

// gbtBins is the histogram quantization the wanperf CLI trains with.
const gbtBins = 256

// simulateLog generates the seed's transfer log. Every seed runs the
// paper-scale fabric and workload of simulate.DefaultConfig — the world
// `wanperf models` simulates — and the seed drives the engine's own
// random streams: background-load episodes, jitter, faults and retries.
// So each seed is a different log of the same 46,811 transfers over the
// same edges, and timings compare across seeds; seeding the world itself
// changes the log's size and edge count by tens of percent. These are
// the calls core.RunObs makes, with the engine seed taken from the
// benchmark instead of from the world seed.
func simulateLog(ctx context.Context, seed int64) (*logs.Log, *simulate.Generated, error) {
	g, err := simulate.Generate(simulate.DefaultConfig())
	if err != nil {
		return nil, nil, err
	}
	eng := simulate.NewEngine(g.World, seed)
	eng.Submit(g.Specs...)
	l, err := eng.RunContext(ctx)
	if err != nil {
		return nil, nil, err
	}
	return l, g, nil
}

// pipelineRun is one `wanperf models` pass: simulate the seed's fabric,
// engineer features, select the study edges, train and test both model
// families on each, and aggregate the headline MdAPEs.
type pipelineRun struct {
	wall, evaluate           time.Duration
	records, selected, edges int
	lin, xgb                 float64
}

func modelsUntraced(ctx context.Context, seed int64) (pipelineRun, error) {
	t0 := time.Now()
	p, err := buildPipeline(ctx, nil, seed)
	if err != nil {
		return pipelineRun{}, err
	}
	edges := p.StudyEdges()
	t1 := time.Now()
	res, err := p.EvaluateEdgesContext(ctx, edges)
	if err != nil {
		return pipelineRun{}, err
	}
	t2 := time.Now()
	lin, xgb := core.HeadlineMdAPE(res)
	return pipelineRun{wall: time.Since(t0), evaluate: t2.Sub(t1), records: len(p.Log.Records), selected: len(edges), edges: len(res), lin: lin, xgb: xgb}, nil
}

// buildPipeline runs the simulate and features layers, under spans of
// parent when it is non-nil, and returns the pipeline they feed.
func buildPipeline(ctx context.Context, parent *span, seed int64) (*core.Pipeline, error) {
	var l *logs.Log
	var g *simulate.Generated
	err := parent.timed("simulate.s", func() (err error) {
		l, g, err = simulateLog(ctx, seed)
		return err
	})
	if err != nil {
		return nil, err
	}
	var vecs []features.Vector
	_ = parent.timed("features.s", func() error { vecs = features.Engineer(l); return nil })
	return &core.Pipeline{Cfg: simulate.DefaultConfig(), Gen: g, Log: l, Vecs: vecs, GBTBins: gbtBins}, nil
}

func modelsTraced(ctx context.Context, parent *span, seed int64) (pipelineRun, *core.Pipeline, []core.EdgeData, error) {
	t0 := time.Now()
	root := parent.child("pipeline")
	defer root.end()
	p, err := buildPipeline(ctx, root, seed)
	if err != nil {
		return pipelineRun{}, nil, nil, err
	}
	var edges []core.EdgeData
	_ = root.timed("core.select_s", func() error { edges = p.StudyEdges(); return nil })
	var res []core.EdgeModelResult
	if err := root.timed("core.evaluate_s", func() (err error) {
		res, err = p.EvaluateEdgesContext(ctx, edges)
		return err
	}); err != nil {
		return pipelineRun{}, nil, nil, err
	}
	lin, xgb := core.HeadlineMdAPE(res)
	return pipelineRun{wall: time.Since(t0), records: len(p.Log.Records), selected: len(edges), edges: len(res), lin: lin, xgb: xgb}, p, edges, nil
}

// runPipeline measures the paper pipeline at full scale. The first run in
// the process is the set-up: it pays for heap growth and any lazy
// initialisation, so work moved out of the timed runs into process-wide
// state shows up in setup_s.
func runPipeline(ctx context.Context, e *env) error {
	e.rec.Attempted = 1
	if e.tr != nil {
		return pipelineTraced(ctx, e)
	}
	cold, err := modelsUntraced(ctx, e.seed)
	if err != nil {
		return err
	}
	e.checkRun("cold run", cold)
	var walls, evals []float64
	start := time.Now()
	for len(walls) == 0 || time.Since(start) < e.seconds {
		runtime.GC()
		r, err := modelsUntraced(ctx, e.seed)
		if err != nil {
			return err
		}
		e.rec.Attempted++
		e.checkRun(fmt.Sprintf("warm run %d", len(walls)+1), r)
		e.check("warm run MdAPE equals cold run", r.lin == cold.lin && r.xgb == cold.xgb,
			"cold lin %v xgb %v, warm lin %v xgb %v", cold.lin, cold.xgb, r.lin, r.xgb)
		walls = append(walls, r.wall.Seconds())
		evals = append(evals, r.evaluate.Seconds())
	}
	wall := median(walls)
	e.set("setup_s", cold.wall.Seconds())
	e.set("wall_s", wall)
	e.set("rows_per_s", float64(cold.records)/wall)
	e.set("mdape_xgb_pct", cold.xgb)
	e.set("mdape_lr_pct", cold.lin)
	e.set("refresh_p50_s", median(evals))
	e.set("ok_share", float64(cold.edges)/float64(cold.selected))
	e.note("records", float64(cold.records))
	e.note("runs", float64(len(walls)))
	return nil
}

func (e *env) checkRun(what string, r pipelineRun) {
	e.check(what+" evaluated every study edge", r.edges == r.selected && r.edges > 0, "%d of %d edges", r.edges, r.selected)
	ok := r.lin > 0 && r.xgb > 0 && !math.IsInf(r.lin+r.xgb, 0) && !math.IsNaN(r.lin+r.xgb)
	e.check(what+" MdAPE finite", ok, "lin %v xgb %v", r.lin, r.xgb)
}

// pipelineTraced runs the pipeline once untraced and once traced, which
// gives the tracing overhead and must give identical MdAPEs, then fits
// each study edge's prediction models serially so gbt.Train and
// linreg.Fit show on their own.
func pipelineTraced(ctx context.Context, e *env) error {
	plain, err := modelsUntraced(ctx, e.seed)
	if err != nil {
		return err
	}
	root := e.tr.start("run")
	traced, p, edges, err := modelsTraced(ctx, root, e.seed)
	if err != nil {
		root.end()
		return err
	}
	e.rec.Attempted++
	e.checkRun("traced run", traced)
	e.check("traced MdAPE equals untraced", traced.lin == plain.lin && traced.xgb == plain.xgb,
		"untraced lin %v xgb %v, traced lin %v xgb %v", plain.lin, plain.xgb, traced.lin, traced.xgb)
	e.set("trace.overhead_s", traced.wall.Seconds()-plain.wall.Seconds())
	trees, err := trainEdgesSerially(root.child("train_probe"), p, edges)
	root.end()
	if err != nil {
		return err
	}
	e.set("gbt.trees", float64(trees))
	return nil
}

// trainEdgesSerially fits, one edge at a time, the prediction models
// EvaluateEdges fits in parallel: a boosted tree and a linear model on
// each edge's standardized 70% training split. It returns the number of
// trees trained.
func trainEdgesSerially(sp *span, p *core.Pipeline, edges []core.EdgeData) (int, error) {
	defer sp.end()
	trees := 0
	for i, ed := range edges {
		ds, err := features.Dataset(p.VectorsAt(ed.Qualifying), false)
		if err != nil {
			return 0, err
		}
		ds, _ = ds.DropLowVariance(core.LowVarianceMin)
		seed := int64(7 + i)
		train, _ := ds.Split(core.TrainFraction, seed)
		scaler, err := dataset.FitScaler(train)
		if err != nil {
			return 0, err
		}
		std, err := scaler.Transform(train)
		if err != nil {
			return 0, err
		}
		params := gbt.DefaultParams()
		params.Seed, params.Bins = seed, gbtBins
		var m *gbt.Model
		if err := sp.timed("gbt.train_s", func() (err error) { m, err = gbt.Train(std, params); return err }); err != nil {
			return 0, err
		}
		trees += m.NumTrees()
		if err := sp.timed("linreg.fit_s", func() error { _, err := linreg.Fit(std); return err }); err != nil {
			return 0, err
		}
	}
	return trees, nil
}
