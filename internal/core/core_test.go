package core

import (
	"slices"
	"strings"
	"sync"
	"testing"

	"repro/internal/logs"
	"repro/internal/simulate"
)

// The small pipeline is expensive enough to share across tests.
var (
	fixtureOnce  sync.Once
	fixture      *Pipeline
	fixtureEdges []EdgeData
	fixtureErr   error
)

func smallPipeline(t *testing.T) (*Pipeline, []EdgeData) {
	t.Helper()
	fixtureOnce.Do(func() {
		fixture, fixtureErr = Run(simulate.SmallConfig())
		if fixtureErr == nil {
			fixtureEdges = fixture.StudyEdges()
		}
	})
	if fixtureErr != nil {
		t.Fatal(fixtureErr)
	}
	if len(fixtureEdges) == 0 {
		t.Fatal("small pipeline selected no study edges")
	}
	return fixture, fixtureEdges
}

func TestRunPipeline(t *testing.T) {
	p, _ := smallPipeline(t)
	if len(p.Vecs) != len(p.Log.Records) {
		t.Fatalf("%d vectors for %d records", len(p.Vecs), len(p.Log.Records))
	}
	for i := range p.Vecs {
		if p.Vecs[i].RecordIdx != i {
			t.Fatal("vectors misaligned with records")
		}
	}
}

func TestSelectEdgesInvariants(t *testing.T) {
	p, edges := smallPipeline(t)
	for _, ed := range edges {
		if len(ed.Qualifying) < MinEdgeTransfers {
			t.Errorf("edge %s selected with %d qualifying", ed.Edge, len(ed.Qualifying))
		}
		if len(ed.Qualifying) > len(ed.All) {
			t.Errorf("edge %s has more qualifying than total", ed.Edge)
		}
		for _, i := range ed.Qualifying {
			if p.Vecs[i].Rate < DefaultThreshold*ed.Rmax-1e-9 {
				t.Errorf("edge %s qualifying transfer below threshold", ed.Edge)
			}
		}
		// Rmax really is the max.
		for _, i := range ed.All {
			if p.Vecs[i].Rate > ed.Rmax+1e-9 {
				t.Errorf("edge %s has transfer above Rmax", ed.Edge)
			}
		}
	}
	// Ordered by qualifying count.
	for i := 1; i < len(edges); i++ {
		if len(edges[i].Qualifying) > len(edges[i-1].Qualifying) {
			t.Error("edges not ordered by qualifying count")
		}
	}
}

func TestSelectEdgesMaxCap(t *testing.T) {
	p, edges := smallPipeline(t)
	capped := p.SelectEdges(MinEdgeTransfers, DefaultThreshold, 2)
	if len(capped) > 2 {
		t.Errorf("maxEdges ignored: got %d", len(capped))
	}
	if len(edges) >= 2 && capped[0].Edge != edges[0].Edge {
		t.Error("capped selection should keep the busiest edges")
	}
}

func TestEdgeByKey(t *testing.T) {
	_, edges := smallPipeline(t)
	got, err := EdgeByKey(edges, edges[0].Edge)
	if err != nil || got.Edge != edges[0].Edge {
		t.Errorf("EdgeByKey failed: %v", err)
	}
	if _, err := EdgeByKey(edges, logs.EdgeKey{Src: "no", Dst: "pe"}); err == nil {
		t.Error("missing edge accepted")
	}
}

func TestEvaluateEdgeProducesModels(t *testing.T) {
	p, edges := smallPipeline(t)
	res, err := p.EvaluateEdge(edges[0])
	if err != nil {
		t.Fatal(err)
	}
	if res.Samples != len(edges[0].Qualifying) {
		t.Errorf("samples = %d, want %d", res.Samples, len(edges[0].Qualifying))
	}
	if res.LinMdAPE <= 0 || res.XGBMdAPE <= 0 {
		t.Errorf("degenerate errors: LR %.3f XGB %.3f", res.LinMdAPE, res.XGBMdAPE)
	}
	if res.LinMdAPE > 60 {
		t.Errorf("linear MdAPE %.1f%% implausibly high for a study edge", res.LinMdAPE)
	}
	if len(res.LinAPEs) == 0 || len(res.XGBAPEs) == 0 {
		t.Error("test-set errors missing")
	}
}

func TestExplainEdgeProducesModels(t *testing.T) {
	p, edges := smallPipeline(t)
	res, err := p.ExplainEdge(edges[0])
	if err != nil {
		t.Fatal(err)
	}
	if res.Edge != edges[0].Edge.String() {
		t.Errorf("edge = %s, want %s", res.Edge, edges[0].Edge)
	}
	if len(res.LinCoef) == 0 || len(res.XGBImport) == 0 {
		t.Error("explanation models missing coefficients or importances")
	}
	if _, ok := res.LinCoef["Nflt"]; !ok && !slices.Contains(res.Eliminated, "Nflt") {
		t.Error("explanation model neither uses nor eliminates Nflt")
	}
}

func TestNonlinearBeatsLinearOnMostEdges(t *testing.T) {
	p, edges := smallPipeline(t)
	n := len(edges)
	if n > 4 {
		n = 4
	}
	results, err := p.EvaluateEdges(edges[:n])
	if err != nil {
		t.Fatal(err)
	}
	wins := 0
	for _, r := range results {
		if r.XGBMdAPE < r.LinMdAPE {
			wins++
		}
	}
	if wins*2 < n {
		t.Errorf("XGB beat LR on only %d of %d edges; the paper's central result expects a majority", wins, n)
	}
	lin, xgb := HeadlineMdAPE(results)
	if xgb >= lin {
		t.Errorf("headline: XGB %.2f%% should beat LR %.2f%%", xgb, lin)
	}
}

func TestTable3Rows(t *testing.T) {
	p, edges := smallPipeline(t)
	rows, err := p.Table3(edges)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("got %d rows", len(rows))
	}
	for _, r := range rows {
		if !(r.P25 <= r.P50 && r.P50 <= r.P90) {
			t.Errorf("percentiles not ordered: %+v", r)
		}
		if r.P90 <= 0 {
			t.Errorf("degenerate lengths: %+v", r)
		}
	}
	out := RenderTable3(rows)
	if !strings.Contains(out, "All edges") {
		t.Error("render missing the all-edges row")
	}
}

func TestTable4Shares(t *testing.T) {
	p, edges := smallPipeline(t)
	rows := p.Table4(edges)
	for _, r := range rows {
		total := r.GCStoGCS + r.GCStoGCP + r.GCPtoGCS
		if total < 95 || total > 100.5 {
			t.Errorf("%s: shares sum to %.1f%%", r.Dataset, total)
		}
	}
	if !strings.Contains(RenderTable4(rows), "GCS=>GCS") {
		t.Error("render missing header")
	}
}

func TestTable5Correlations(t *testing.T) {
	p, edges := smallPipeline(t)
	rows, err := p.Table5(edges[:1])
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) == 0 {
		t.Fatal("no correlation rows")
	}
	foundNonlinearGap := false
	for _, r := range rows {
		if r.MIC < 0 || r.MIC > 1 {
			t.Errorf("%s/%s MIC %.3f out of range", r.Edge, r.Feature, r.MIC)
		}
		if r.CCValid && (r.CC < 0 || r.CC > 1) {
			t.Errorf("%s/%s |CC| %.3f out of range", r.Edge, r.Feature, r.CC)
		}
		if r.CCValid && r.MIC > r.CC+0.15 {
			foundNonlinearGap = true
		}
	}
	if !foundNonlinearGap {
		t.Log("warning: no feature showed MIC >> CC on this edge (paper finds several)")
	}
	out := RenderTable5(rows)
	if !strings.Contains(out, "MIC") || !strings.Contains(out, "CC") {
		t.Error("render missing rows")
	}
}

func TestFig4CurvesAndBusiest(t *testing.T) {
	p, _ := smallPipeline(t)
	eps := p.BusiestEndpoints(3)
	if len(eps) != 3 {
		t.Fatalf("BusiestEndpoints returned %d", len(eps))
	}
	curves, err := p.Fig4(eps)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range curves {
		if len(c.Bins) < 3 {
			t.Errorf("endpoint %s has only %d concurrency levels", c.Endpoint, len(c.Bins))
		}
		// Rate must broadly rise from G=1 to the middle of the range.
		var lowG, midG float64
		for _, b := range c.Bins {
			if b.Concurrency >= 1 && b.Concurrency <= 2 && lowG == 0 {
				lowG = b.MeanInRate
			}
			if b.Concurrency >= 6 && midG == 0 {
				midG = b.MeanInRate
			}
		}
		if lowG > 0 && midG > 0 && midG < lowG {
			t.Errorf("endpoint %s: aggregate rate fell from G≈1 (%.1f) to G≈6 (%.1f)", c.Endpoint, lowG, midG)
		}
	}
	if out := RenderFig4(curves); !strings.Contains(out, eps[0]) {
		t.Error("render missing endpoint")
	}
}

func TestFig5SmallVsBigFiles(t *testing.T) {
	p, edges := smallPipeline(t)
	buckets, err := p.Fig5(edges[0], 10)
	if err != nil {
		t.Fatal(err)
	}
	if len(buckets) < 5 {
		t.Fatalf("only %d buckets", len(buckets))
	}
	// Total size ordering.
	for i := 1; i < len(buckets); i++ {
		if buckets[i].TotalGB < buckets[i-1].TotalGB {
			t.Error("buckets not ordered by total size")
		}
	}
	if out := RenderFig5(buckets); !strings.Contains(out, "TotalGB") {
		t.Error("render broken")
	}
}

func TestFig6Summary(t *testing.T) {
	p, _ := smallPipeline(t)
	pts, s := p.Fig6()
	if s.N != len(pts) || s.N == 0 {
		t.Fatalf("summary N=%d, points=%d", s.N, len(pts))
	}
	if s.CorrLogSizeRate <= 0 {
		t.Errorf("size-rate correlation %.2f should be positive", s.CorrLogSizeRate)
	}
	// The intercontinental-slower effect is a full-scale property (the
	// small world's edge mix is too sparse to guarantee it); here we only
	// require both groups to be populated and summarized.
	if s.IntraN+s.InterN != s.N {
		t.Errorf("group sizes %d+%d != %d", s.IntraN, s.InterN, s.N)
	}
	if s.IntraN > 0 && s.IntraMeanRate <= 0 {
		t.Error("intracontinental mean not computed")
	}
	if s.InterN > 0 && s.InterMeanRate <= 0 {
		t.Error("intercontinental mean not computed")
	}
}

func TestFig8LoadCurves(t *testing.T) {
	p, edges := smallPipeline(t)
	curves := p.Fig8(edges, 3)
	if len(curves) != 3 {
		t.Fatalf("got %d curves", len(curves))
	}
	for _, c := range curves {
		if len(c.Points) == 0 {
			t.Errorf("edge %s has no points", c.Edge)
		}
		for _, pt := range c.Points {
			if pt.RelLoad < 0 || pt.RelLoad > 1 {
				t.Errorf("relative load %g out of range", pt.RelLoad)
			}
		}
	}
	if out := RenderLoadCurves(curves); !strings.Contains(out, "load@max") {
		t.Error("render broken")
	}
}

func TestFig3CleanDecline(t *testing.T) {
	curves, err := Fig3(60, 11)
	if err != nil {
		t.Fatal(err)
	}
	if len(curves) != len(Fig3Edges) {
		t.Fatalf("got %d curves", len(curves))
	}
	for _, c := range curves {
		// On the controlled testbed the fastest transfer runs alone.
		if c.LoadAtMax > 0.05 {
			t.Errorf("edge %s: max rate at load %.2f, want ~0", c.Edge, c.LoadAtMax)
		}
		// Mean rate in the lowest populated decile exceeds the highest
		// populated decile.
		var first, last float64
		for _, m := range c.BinMeans {
			if m > 0 && first == 0 {
				first = m
			}
			if m > 0 {
				last = m
			}
		}
		if first <= last {
			t.Errorf("edge %s: no decline (first %.1f last %.1f)", c.Edge, first, last)
		}
	}
}

func TestGlobalModelShape(t *testing.T) {
	p, edges := smallPipeline(t)
	res, err := p.GlobalModel(edges)
	if err != nil {
		t.Fatal(err)
	}
	if res.Samples == 0 {
		t.Fatal("no pooled samples")
	}
	// The paper's shape: pooled nonlinear far better than pooled linear.
	if res.XGBMdAPE >= res.LinMdAPE {
		t.Errorf("global XGB %.2f%% should beat global LR %.2f%%", res.XGBMdAPE, res.LinMdAPE)
	}
	if res.XGBR2 < 0.8 {
		t.Errorf("global nonlinear R2 %.3f unexpectedly low", res.XGBR2)
	}
	if !strings.Contains(RenderGlobal(res), "pooled samples") {
		t.Error("render broken")
	}
}

func TestFig13ThresholdTrend(t *testing.T) {
	p, _ := smallPipeline(t)
	rows, err := p.Fig13(MinEdgeTransfers, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) == 0 {
		t.Skip("no edge qualifies at the strictest threshold in the small world")
	}
	// Per edge: samples shrink as the threshold rises, and the strictest
	// threshold is at least as accurate as the loosest for XGB.
	byEdge := map[string][]ThresholdResult{}
	for _, r := range rows {
		byEdge[r.Edge] = append(byEdge[r.Edge], r)
	}
	improved := 0
	for edge, rs := range byEdge {
		if len(rs) != len(Fig13Thresholds) {
			t.Errorf("edge %s has %d threshold rows", edge, len(rs))
			continue
		}
		for i := 1; i < len(rs); i++ {
			if rs[i].Samples > rs[i-1].Samples {
				t.Errorf("edge %s: samples grew with threshold", edge)
			}
		}
		if rs[len(rs)-1].XGBMdAPE <= rs[0].XGBMdAPE {
			improved++
		}
	}
	if improved == 0 {
		t.Error("no edge improved from threshold filtering; the paper expects a general decline")
	}
	if !strings.Contains(RenderFig13(rows), "XGB MdAPE") {
		t.Error("render broken")
	}
}

func TestTable1Rendered(t *testing.T) {
	rows, err := Table1()
	if err != nil {
		t.Fatal(err)
	}
	out := RenderTable1(rows)
	if !strings.Contains(out, "DWmax") || !strings.Contains(out, "true") {
		t.Error("Table 1 render incomplete")
	}
}

func TestLMTExperimentShape(t *testing.T) {
	res, err := LMTExperiment(120, 5, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Transfers != 120 {
		t.Errorf("ran %d tests, want 120", res.Transfers)
	}
	// The §5.5.2 shape: observing storage load cuts the tail error by a
	// large factor.
	if res.WithStorageP95 >= res.BaselineP95 {
		t.Errorf("storage features did not help: %.2f%% vs %.2f%%",
			res.WithStorageP95, res.BaselineP95)
	}
	if !strings.Contains(RenderLMT(res), "p95") {
		t.Error("render broken")
	}
}

func TestRenderFeatureMaps(t *testing.T) {
	p, edges := smallPipeline(t)
	res, err := p.EvaluateEdge(edges[0])
	if err != nil {
		t.Fatal(err)
	}
	exp, err := p.ExplainEdge(edges[0])
	if err != nil {
		t.Fatal(err)
	}
	results := []EdgeModelResult{res}
	f9 := RenderFig9([]EdgeExplanation{exp})
	f12 := RenderFig12([]EdgeExplanation{exp})
	for _, out := range []string{f9, f12} {
		if !strings.Contains(out, res.Edge) {
			t.Error("feature map render missing edge")
		}
		if !strings.Contains(out, "Ksout") {
			t.Error("feature map render missing feature header")
		}
	}
	f10 := RenderFig10(results)
	f11 := RenderFig11(results)
	if !strings.Contains(f10, "APE") || !strings.Contains(f11, "MEDIAN OVER EDGES") {
		t.Error("error renders broken")
	}
}

func TestFromLogMatchesRun(t *testing.T) {
	p, _ := smallPipeline(t)
	p2 := FromLog(p.Log)
	if len(p2.Vecs) != len(p.Vecs) {
		t.Fatalf("FromLog engineered %d vectors, want %d", len(p2.Vecs), len(p.Vecs))
	}
	// Same features from the same log.
	for i := range p.Vecs {
		if p.Vecs[i] != p2.Vecs[i] {
			t.Fatal("FromLog produced different features")
		}
	}
}

func TestModelSeedStable(t *testing.T) {
	if modelSeed("a->b") != modelSeed("a->b") {
		t.Error("seed not deterministic")
	}
	if modelSeed("a->b") == modelSeed("b->a") {
		t.Error("different edges should (almost surely) differ")
	}
}
