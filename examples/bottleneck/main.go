// Bottleneck: explain why an edge performs the way it does, combining the
// paper's two explanatory tools — the §3 analytical bound (which subsystem
// caps the edge) and the §5 model's feature importances (which competing
// loads move the rate within that cap).
//
//	go run ./examples/bottleneck
package main

import (
	"fmt"
	"log"
	"sort"

	"repro"
	"repro/internal/core"
	"repro/internal/testbed"
)

func main() {
	// Part 1: the analytical bound on a controlled testbed edge.
	fmt.Println("== analytical view (ESnet-style testbed) ==")
	row, err := testbed.MeasureEdge("ANL", "CERN")
	if err != nil {
		log.Fatal(err)
	}
	bound, which, err := repro.AnalyticalBound(row.Measurements())
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("ANL->CERN: DR=%.2f MM=%.2f DW=%.2f Gb/s\n", row.DRmax, row.MMmax, row.DWmax)
	fmt.Printf("Equation 1 bound: %.2f Gb/s, limited by %s\n", bound, which)
	fmt.Printf("measured end-to-end Rmax: %.2f Gb/s (consistent: %v)\n\n", row.Rmax, row.Consistent())

	// Part 2: data-driven explanation on a production-like edge.
	fmt.Println("== data-driven view (busiest simulated edge) ==")
	pl, err := repro.NewPipeline(repro.SmallConfig())
	if err != nil {
		log.Fatal(err)
	}
	edges := pl.StudyEdges()
	if len(edges) == 0 {
		log.Fatal("no study edges")
	}
	res, err := pl.EvaluateEdge(edges[0])
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("edge %s: nonlinear model MdAPE %.2f%% on held-out transfers\n", res.Edge, res.XGBMdAPE)
	exp, err := pl.ExplainEdge(edges[0])
	if err != nil {
		log.Fatal(err)
	}

	type imp struct {
		name string
		val  float64
	}
	var imps []imp
	for name, v := range exp.XGBImport {
		imps = append(imps, imp{name, v})
	}
	sort.Slice(imps, func(i, j int) bool { return imps[i].val > imps[j].val })
	fmt.Println("what moves the rate (gain importance):")
	for i, e := range imps {
		if i >= 6 {
			break
		}
		fmt.Printf("  %-8s %5.1f%%  %s\n", e.name, e.val*100, describe(e.name))
	}
	if len(exp.Eliminated) > 0 {
		fmt.Printf("eliminated for low variance: %v (edge has habitual settings)\n", exp.Eliminated)
	}
	_ = core.LowVarianceMin
}

// describe translates a feature name into the paper's vocabulary.
func describe(name string) string {
	switch name {
	case "Ksout":
		return "competing outgoing traffic at the source"
	case "Ksin":
		return "competing incoming traffic at the source"
	case "Kdin":
		return "competing incoming traffic at the destination"
	case "Kdout":
		return "competing outgoing traffic at the destination"
	case "Ssout", "Ssin", "Sdin", "Sdout":
		return "competing TCP streams"
	case "Gsrc":
		return "GridFTP processes contending at the source"
	case "Gdst":
		return "GridFTP processes contending at the destination"
	case "Nb":
		return "transfer size (startup amortization)"
	case "Nf":
		return "file count (per-file overhead)"
	case "Nd":
		return "directory count (metadata contention)"
	case "Nflt":
		return "faults experienced"
	case "C":
		return "concurrency setting"
	case "P":
		return "parallelism setting"
	default:
		return ""
	}
}
