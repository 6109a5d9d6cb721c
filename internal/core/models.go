package core

import (
	"context"
	"fmt"
	"math"
	"strconv"
	"time"

	"repro/internal/features"
	"repro/internal/ml/dataset"
	"repro/internal/ml/gbt"
	"repro/internal/ml/linreg"
	"repro/internal/obs"
	"repro/internal/pool"
	"repro/internal/stats"
)

// TrainFraction is the paper's train share of each edge's data (§5.1).
const TrainFraction = 0.7

// LowVarianceMin is the variance below which a feature is eliminated
// (the red crosses of Figures 9 and 12). Applied to raw feature columns;
// C and P typically fall to it because each edge has a habitual setting.
const LowVarianceMin = 1e-9

// EdgeModelResult holds one edge's prediction-model test errors for both
// model families (Figures 10, 11 and the headline MdAPEs).
type EdgeModelResult struct {
	Edge     string
	Samples  int // qualifying transfers used (train+test)
	LinMdAPE float64
	XGBMdAPE float64
	LinAPEs  []float64 // per-test-transfer absolute percentage errors
	XGBAPEs  []float64
}

// EdgeExplanation holds one edge's explanation models: the linear
// coefficients on standardized inputs (Figure 9) and the boosted-tree
// gain importances (Figure 12).
type EdgeExplanation struct {
	Edge       string
	LinCoef    map[string]float64 // |β| per feature
	XGBImport  map[string]float64 // gain importance per feature
	Eliminated []string           // features dropped for low variance
}

// modelSeed derives a deterministic per-edge RNG seed.
func modelSeed(edge string) int64 {
	var h int64 = 1469598103934665603
	for _, c := range edge {
		h ^= int64(c)
		h *= 1099511628211
	}
	if h < 0 {
		h = -h
	}
	return h%100000 + 7
}

// EvaluateEdge trains and tests the paper's two prediction models on one
// edge's qualifying transfers: the 15 features of Table 2, with faults
// excluded because they are unknown in advance. ExplainEdge fits the
// explanation models, which add Nflt; the paper uses faults "for
// explanation but not prediction".
func (p *Pipeline) EvaluateEdge(ed EdgeData) (EdgeModelResult, error) {
	res := EdgeModelResult{Edge: ed.Edge.String(), Samples: len(ed.Qualifying)}
	ds, err := features.Dataset(p.VectorsAt(ed.Qualifying), false)
	if err != nil {
		return res, err
	}
	ds, _ = ds.DropLowVariance(LowVarianceMin)
	if ds.NumFeatures() == 0 {
		return res, fmt.Errorf("core: edge %s has no informative features", res.Edge)
	}
	linAPEs, xgbAPEs, err := p.trainAndTest(ds, modelSeed(res.Edge))
	if err != nil {
		return res, err
	}
	res.LinAPEs, res.XGBAPEs = linAPEs, xgbAPEs
	if res.LinMdAPE, err = stats.Median(linAPEs); err != nil {
		return res, err
	}
	if res.XGBMdAPE, err = stats.Median(xgbAPEs); err != nil {
		return res, err
	}
	return res, nil
}

// ExplainEdge fits both model families, with Nflt, on all of one edge's
// qualifying transfers and returns their coefficients and importances.
func (p *Pipeline) ExplainEdge(ed EdgeData) (EdgeExplanation, error) {
	res := EdgeExplanation{Edge: ed.Edge.String()}
	ds, err := features.Dataset(p.VectorsAt(ed.Qualifying), true)
	if err != nil {
		return res, err
	}
	ds, res.Eliminated = ds.DropLowVariance(LowVarianceMin)
	if ds.NumFeatures() == 0 {
		return res, fmt.Errorf("core: edge %s has no informative features", res.Edge)
	}
	scaler, err := dataset.FitScaler(ds)
	if err != nil {
		return res, err
	}
	std, err := scaler.Transform(ds)
	if err != nil {
		return res, err
	}
	lin, err := linreg.Fit(std)
	if err != nil {
		return res, err
	}
	res.LinCoef = map[string]float64{}
	for j, name := range lin.Names {
		res.LinCoef[name] = math.Abs(lin.Coefficients[j])
	}
	xm, err := gbt.Train(ds, p.gbtParams(modelSeed(res.Edge)))
	if err != nil {
		return res, err
	}
	res.XGBImport = xm.Importance()
	return res, nil
}

// gbtParams returns the boosted-tree configuration the pipeline's
// experiments use: the reproduction defaults with the given seed, the
// pipeline's quantization knob, and its telemetry sink.
func (p *Pipeline) gbtParams(seed int64) gbt.Params {
	xp := gbt.DefaultParams()
	xp.Seed = seed
	xp.Bins = p.GBTBins
	xp.Metrics = p.Obs.Reg()
	return xp
}

// trainAndTest fits both families on a 70/30 split and returns test-set
// absolute percentage errors. The pipeline supplies the boosted-tree
// configuration (quantization knob, telemetry) and a fold counter.
func (p *Pipeline) trainAndTest(ds *dataset.Dataset, seed int64) (linAPEs, xgbAPEs []float64, err error) {
	p.Obs.Reg().Counter("core.folds").Inc()
	train, test := ds.Split(TrainFraction, seed)
	if train.Len() == 0 || test.Len() == 0 {
		return nil, nil, dataset.ErrEmpty
	}

	// Standardize using training statistics only.
	scaler, err := dataset.FitScaler(train)
	if err != nil {
		return nil, nil, err
	}
	trainStd, err := scaler.Transform(train)
	if err != nil {
		return nil, nil, err
	}
	testStd, err := scaler.Transform(test)
	if err != nil {
		return nil, nil, err
	}

	lin, err := linreg.Fit(trainStd)
	if err != nil {
		return nil, nil, err
	}
	linPred, err := lin.PredictAll(testStd)
	if err != nil {
		return nil, nil, err
	}
	linAPEs, err = stats.APE(testStd.Y, linPred)
	if err != nil {
		return nil, nil, err
	}

	xm, err := gbt.Train(trainStd, p.gbtParams(seed))
	if err != nil {
		return nil, nil, err
	}
	xgbPred, err := xm.PredictAll(testStd)
	if err != nil {
		return nil, nil, err
	}
	xgbAPEs, err = stats.APE(testStd.Y, xgbPred)
	if err != nil {
		return nil, nil, err
	}
	return linAPEs, xgbAPEs, nil
}

// EvaluateEdges runs EvaluateEdge over every selected edge.
func (p *Pipeline) EvaluateEdges(edges []EdgeData) ([]EdgeModelResult, error) {
	return p.EvaluateEdgesContext(context.Background(), edges)
}

// EvaluateEdgesContext runs EvaluateEdge over every selected edge on a
// worker pool (see fitEdges).
func (p *Pipeline) EvaluateEdgesContext(ctx context.Context, edges []EdgeData) ([]EdgeModelResult, error) {
	return fitEdges(ctx, p, "evaluate_edges", "core.edges_evaluated", edges, p.EvaluateEdge)
}

// ExplainEdges runs ExplainEdge over every selected edge.
func (p *Pipeline) ExplainEdges(edges []EdgeData) ([]EdgeExplanation, error) {
	return p.ExplainEdgesContext(context.Background(), edges)
}

// ExplainEdgesContext runs ExplainEdge over every selected edge on a
// worker pool (see fitEdges).
func (p *Pipeline) ExplainEdgesContext(ctx context.Context, edges []EdgeData) ([]EdgeExplanation, error) {
	return fitEdges(ctx, p, "explain_edges", "core.edges_explained", edges, p.ExplainEdge)
}

// fitEdges runs fit over every edge on a worker pool sized to the
// available CPUs, under a phase span with one "fit:<edge>" child per
// edge. Each edge's models are trained independently (per-edge seeds, no
// shared state), and results are assembled in input order, so the output
// — and every figure rendered from it — is identical to the serial
// loop's. An already-cancelled context returns promptly with its error
// and starts no work.
func fitEdges[R any](ctx context.Context, p *Pipeline, phaseName, counter string, edges []EdgeData, fit func(EdgeData) (R, error)) ([]R, error) {
	phase := p.Obs.Child(phaseName)
	defer phase.End()
	fitMS := p.Obs.Histogram("core.edge_fit_ms", obs.ExpBuckets(4, 2, 14))
	out := make([]R, len(edges))
	err := pool.ForEach(ctx, len(edges), pool.Workers(), func(_ context.Context, i int) error {
		sp := phase.Child("fit:" + edges[i].Edge.String())
		start := time.Now()
		r, err := fit(edges[i])
		if err != nil {
			sp.End()
			return fmt.Errorf("edge %s: %w", edges[i].Edge, err)
		}
		sp.Annotate("samples", strconv.Itoa(len(edges[i].Qualifying)))
		sp.End()
		fitMS.Observe(float64(time.Since(start)) / float64(time.Millisecond))
		p.Obs.Counter(counter).Inc()
		out[i] = r
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// HeadlineMdAPE aggregates per-edge results into the paper's headline
// numbers: the median over edges of per-edge MdAPEs for both families
// (the paper reports 7.0% linear, 4.6% nonlinear).
func HeadlineMdAPE(results []EdgeModelResult) (lin, xgb float64) {
	var ls, xs []float64
	for _, r := range results {
		ls = append(ls, r.LinMdAPE)
		xs = append(xs, r.XGBMdAPE)
	}
	lm, _ := stats.Median(ls)
	xm, _ := stats.Median(xs)
	return lm, xm
}
