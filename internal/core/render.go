package core

import (
	"fmt"
	"strings"

	"repro/internal/features"
	"repro/internal/stats"
)

// RenderFig9 renders the linear-model coefficient map: one row per edge,
// each feature's |β| scaled by the edge's maximum (the paper draws circle
// sizes; we print the scaled value ×100, with "x" for eliminated features).
func RenderFig9(results []EdgeExplanation) string {
	return renderFeatureMap(results, func(r EdgeExplanation) map[string]float64 { return r.LinCoef })
}

// RenderFig12 renders the boosted-tree importance map in the same layout.
func RenderFig12(results []EdgeExplanation) string {
	return renderFeatureMap(results, func(r EdgeExplanation) map[string]float64 { return r.XGBImport })
}

func renderFeatureMap(results []EdgeExplanation, get func(EdgeExplanation) map[string]float64) string {
	cols := features.NamesWithFaults
	var b strings.Builder
	fmt.Fprintf(&b, "%-28s", "Edge")
	for _, c := range cols {
		fmt.Fprintf(&b, " %5s", c)
	}
	b.WriteString("\n")
	for _, r := range results {
		vals := get(r)
		var max float64
		for _, v := range vals {
			if v > max {
				max = v
			}
		}
		if max == 0 {
			max = 1
		}
		elim := map[string]bool{}
		for _, e := range r.Eliminated {
			elim[e] = true
		}
		fmt.Fprintf(&b, "%-28s", r.Edge)
		for _, c := range cols {
			switch {
			case elim[c]:
				fmt.Fprintf(&b, " %5s", "x")
			default:
				fmt.Fprintf(&b, " %5.0f", vals[c]/max*100)
			}
		}
		b.WriteString("\n")
	}
	return b.String()
}

// RenderFig10 summarizes the per-edge error distributions (the violins):
// quartiles of the test-set APEs for each family.
func RenderFig10(results []EdgeModelResult) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-28s %6s | %22s | %22s\n", "Edge", "n", "LR APE p25/p50/p75", "XGB APE p25/p50/p75")
	for _, r := range results {
		lp, _ := stats.Percentiles(r.LinAPEs, 25, 50, 75)
		xp, _ := stats.Percentiles(r.XGBAPEs, 25, 50, 75)
		fmt.Fprintf(&b, "%-28s %6d | %6.2f %6.2f %6.2f | %6.2f %6.2f %6.2f\n",
			r.Edge, r.Samples, lp[0], lp[1], lp[2], xp[0], xp[1], xp[2])
	}
	return b.String()
}

// RenderFig11 prints per-edge MdAPEs with sample counts and 95% bootstrap
// confidence intervals, plus the headline medians across edges.
func RenderFig11(results []EdgeModelResult) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-28s %6s %22s %22s\n", "Edge", "n", "LR MdAPE [95% CI]", "XGB MdAPE [95% CI]")
	for _, r := range results {
		linCI, _ := stats.MedianCI(r.LinAPEs, 0.95, 500, modelSeed(r.Edge))
		xgbCI, _ := stats.MedianCI(r.XGBAPEs, 0.95, 500, modelSeed(r.Edge)+1)
		fmt.Fprintf(&b, "%-28s %6d %7.2f%% [%5.2f %5.2f] %7.2f%% [%5.2f %5.2f]\n",
			r.Edge, r.Samples, r.LinMdAPE, linCI.Lo, linCI.Hi, r.XGBMdAPE, xgbCI.Lo, xgbCI.Hi)
	}
	lin, xgb := HeadlineMdAPE(results)
	fmt.Fprintf(&b, "%-28s %6s %7.2f%% %14s %7.2f%%   (paper: 7.0%% / 4.6%%)\n",
		"MEDIAN OVER EDGES", "", lin, "", xgb)
	return b.String()
}
