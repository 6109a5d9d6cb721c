package core

import (
	"context"
	"fmt"
	"strings"

	"repro/internal/features"
	"repro/internal/ml/dataset"
	"repro/internal/ml/gbt"
	"repro/internal/ml/linreg"
	"repro/internal/pool"
	"repro/internal/stats"
)

// GlobalResult holds the §5.4 single-model-for-all-edges outcome. The paper
// obtains MdAPE ≈ 19% for the pooled linear model (versus 7.0% per-edge)
// and ≈ 4.9% for the pooled nonlinear model — the endpoint-capability
// features ROmax/RImax recover most of what per-edge models encode, but
// only the nonlinear family can exploit them fully.
type GlobalResult struct {
	Samples  int
	LinMdAPE float64
	XGBMdAPE float64
	LinR2    float64
	XGBR2    float64
}

// GlobalModel pools every selected edge's qualifying transfers, extends the
// features with the source's maximum outgoing rate and the destination's
// maximum incoming rate (Equation 5), and evaluates both families on a
// 70/30 split.
func (p *Pipeline) GlobalModel(edges []EdgeData) (GlobalResult, error) {
	return p.GlobalModelContext(context.Background(), edges)
}

// GlobalModelContext is GlobalModel with the two model-family folds —
// linear and boosted-tree, each a fit plus a test-set evaluation on the
// shared split — run concurrently on the worker pool. The folds write
// disjoint result fields, so the output is identical to the serial run.
func (p *Pipeline) GlobalModelContext(ctx context.Context, edges []EdgeData) (GlobalResult, error) {
	phase := p.Obs.Child("global_model")
	defer phase.End()
	var res GlobalResult
	var idxs []int
	for _, ed := range edges {
		idxs = append(idxs, ed.Qualifying...)
	}
	if len(idxs) == 0 {
		return res, dataset.ErrEmpty
	}
	vecs := p.VectorsAt(idxs)
	caps := features.ComputeEndpointCaps(p.Log, p.Vecs)
	ds, err := features.GlobalDataset(p.Log, vecs, caps)
	if err != nil {
		return res, err
	}
	ds, _ = ds.DropLowVariance(LowVarianceMin)
	res.Samples = ds.Len()

	train, test := ds.Split(TrainFraction, 20170626)
	scaler, err := dataset.FitScaler(train)
	if err != nil {
		return res, err
	}
	trainStd, err := scaler.Transform(train)
	if err != nil {
		return res, err
	}
	testStd, err := scaler.Transform(test)
	if err != nil {
		return res, err
	}

	folds := []func() error{
		func() error {
			lin, err := linreg.Fit(trainStd)
			if err != nil {
				return err
			}
			linPred, err := lin.PredictAll(testStd)
			if err != nil {
				return err
			}
			if res.LinMdAPE, err = stats.MdAPE(testStd.Y, linPred); err != nil {
				return err
			}
			res.LinR2, err = stats.R2(testStd.Y, linPred)
			return err
		},
		func() error {
			xp := gbt.DefaultParams()
			xp.Rounds = 250 // the pooled dataset is larger and more heterogeneous
			xp.MaxDepth = 6
			xp.Bins = p.GBTBins
			xp.Metrics = p.Obs.Reg()
			xm, err := gbt.Train(trainStd, xp)
			if err != nil {
				return err
			}
			xgbPred, err := xm.PredictAll(testStd)
			if err != nil {
				return err
			}
			if res.XGBMdAPE, err = stats.MdAPE(testStd.Y, xgbPred); err != nil {
				return err
			}
			res.XGBR2, err = stats.R2(testStd.Y, xgbPred)
			return err
		},
	}
	err = pool.ForEach(ctx, len(folds), pool.Workers(), func(_ context.Context, i int) error {
		p.Obs.Counter("core.folds").Inc()
		return folds[i]()
	})
	if err != nil {
		return GlobalResult{Samples: res.Samples}, err
	}
	return res, nil
}

// RenderGlobal formats the §5.4 result.
func RenderGlobal(r GlobalResult) string {
	return fmt.Sprintf(
		"pooled samples: %d\nlinear:    MdAPE=%.2f%%  R2=%.3f   (paper: ~19%%)\nnonlinear: MdAPE=%.2f%%  R2=%.3f   (paper: ~4.9%%)\n",
		r.Samples, r.LinMdAPE, r.LinR2, r.XGBMdAPE, r.XGBR2)
}

// ThresholdResult is one cell of Figure 13: the MdAPE of a model family on
// one edge when trained only on transfers above a load threshold.
type ThresholdResult struct {
	Edge      string
	Threshold float64
	Samples   int
	LinMdAPE  float64
	XGBMdAPE  float64
}

// Fig13Thresholds are the load thresholds of §5.5.1.
var Fig13Thresholds = []float64{0.5, 0.6, 0.7, 0.8}

// Fig13 re-trains per-edge models at increasing load thresholds for the
// edges that still have at least minSamples transfers at the strictest
// threshold (the paper uses the eight edges with ≥300 transfers at
// 0.8·Rmax). Errors should generally decline as the threshold rises,
// because high-rate transfers carry less unknown load.
func (p *Pipeline) Fig13(minSamples, maxEdges int) ([]ThresholdResult, error) {
	defer p.Obs.Child("threshold_sweep").End()
	strict := p.SelectEdges(minSamples, Fig13Thresholds[len(Fig13Thresholds)-1], maxEdges)
	var out []ThresholdResult
	for _, ed := range strict {
		for _, th := range Fig13Thresholds {
			var idxs []int
			for _, i := range ed.All {
				if p.Vecs[i].Rate >= th*ed.Rmax {
					idxs = append(idxs, i)
				}
			}
			vecs := p.VectorsAt(idxs)
			ds, err := features.Dataset(vecs, false)
			if err != nil {
				return nil, err
			}
			ds, _ = ds.DropLowVariance(LowVarianceMin)
			linAPEs, xgbAPEs, err := p.trainAndTest(ds, modelSeed(ed.Edge.String())+int64(th*10))
			if err != nil {
				return nil, err
			}
			lmd, err := stats.Median(linAPEs)
			if err != nil {
				return nil, err
			}
			xmd, err := stats.Median(xgbAPEs)
			if err != nil {
				return nil, err
			}
			out = append(out, ThresholdResult{
				Edge: ed.Edge.String(), Threshold: th, Samples: len(idxs),
				LinMdAPE: lmd, XGBMdAPE: xmd,
			})
		}
	}
	return out, nil
}

// RenderFig13 formats the threshold sweep as a per-edge table.
func RenderFig13(rows []ThresholdResult) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-28s %5s %8s %10s %10s\n", "Edge", "T", "n", "LR MdAPE", "XGB MdAPE")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-28s %5.1f %8d %9.2f%% %9.2f%%\n", r.Edge, r.Threshold, r.Samples, r.LinMdAPE, r.XGBMdAPE)
	}
	return b.String()
}
