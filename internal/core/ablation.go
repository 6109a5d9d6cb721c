package core

import (
	"context"
	"fmt"
	"strings"

	"repro/internal/features"
	"repro/internal/pool"
	"repro/internal/stats"
)

// The paper engineers three kinds of competing-load features (§4.3): the
// equivalent contending transfer rates (K·), the contending TCP stream
// counts (S·), and the contending GridFTP instance counts (G·), plus the
// transfer's own characteristics (Nb, Nf, Nd) and tunables (C, P). The
// ablation study quantifies what each group contributes: re-train the
// nonlinear model with one group removed and measure how much accuracy is
// lost. This turns Figure 12's qualitative importance map into a causal
// accuracy statement, and directly tests the paper's §4.3.1 argument that
// the three load groups are NOT redundant ("no strong correlation exists
// between them").
//
// FeatureGroups maps group names to the Table 2 columns they remove.
var FeatureGroups = map[string][]string{
	"K (contending rates)":   {"Ksout", "Ksin", "Kdin", "Kdout"},
	"S (contending streams)": {"Ssout", "Ssin", "Sdin", "Sdout"},
	"G (contending procs)":   {"Gsrc", "Gdst"},
	"all load (K+S+G)":       {"Ksout", "Ksin", "Kdin", "Kdout", "Ssout", "Ssin", "Sdin", "Sdout", "Gsrc", "Gdst"},
	"shape (Nb, Nf, Nd)":     {"Nb", "Nf", "Nd"},
	"tunables (C, P)":        {"C", "P"},
}

// ablationOrder fixes the report row order.
var ablationOrder = []string{
	"K (contending rates)",
	"S (contending streams)",
	"G (contending procs)",
	"all load (K+S+G)",
	"shape (Nb, Nf, Nd)",
	"tunables (C, P)",
}

// AblationRow is the accuracy of the nonlinear model on one edge with one
// feature group removed.
type AblationRow struct {
	Edge     string
	Group    string  // "" for the full model
	MdAPE    float64 // test-set MdAPE with the group removed
	DeltaPct float64 // MdAPE increase over the full model (percentage points)
}

// Ablate trains the per-edge nonlinear model with each feature group
// removed in turn and reports the accuracy cost, for up to maxEdges edges.
func (p *Pipeline) Ablate(edges []EdgeData, maxEdges int) ([]AblationRow, error) {
	return p.AblateContext(context.Background(), edges, maxEdges)
}

// AblateContext runs the ablation study with the edges spread over a
// worker pool; each edge's block of rows (full model first, then each
// removed group) is computed independently and the blocks are
// concatenated in input order, so the report is identical to the serial
// study's.
func (p *Pipeline) AblateContext(ctx context.Context, edges []EdgeData, maxEdges int) ([]AblationRow, error) {
	defer p.Obs.Child("ablate_edges").End()
	if maxEdges > 0 && len(edges) > maxEdges {
		edges = edges[:maxEdges]
	}
	blocks := make([][]AblationRow, len(edges))
	err := pool.ForEach(ctx, len(edges), pool.Workers(), func(_ context.Context, i int) error {
		rows, err := p.ablateEdge(edges[i])
		if err != nil {
			return err
		}
		blocks[i] = rows
		return nil
	})
	if err != nil {
		return nil, err
	}
	var out []AblationRow
	for _, rows := range blocks {
		out = append(out, rows...)
	}
	return out, nil
}

// ablateEdge produces one edge's ablation rows: the full model baseline
// followed by one row per removed feature group.
func (p *Pipeline) ablateEdge(ed EdgeData) ([]AblationRow, error) {
	vecs := p.VectorsAt(ed.Qualifying)
	full, err := features.Dataset(vecs, false)
	if err != nil {
		return nil, err
	}
	full, _ = full.DropLowVariance(LowVarianceMin)
	seed := modelSeed(ed.Edge.String())

	_, fullAPEs, err := p.trainAndTest(full, seed)
	if err != nil {
		return nil, err
	}
	base, err := stats.Median(fullAPEs)
	if err != nil {
		return nil, err
	}
	out := []AblationRow{{Edge: ed.Edge.String(), Group: "", MdAPE: base}}

	for _, group := range ablationOrder {
		reduced := full.DropColumns(FeatureGroups[group]...)
		if reduced.NumFeatures() == 0 {
			continue
		}
		_, apes, err := p.trainAndTest(reduced, seed)
		if err != nil {
			return nil, err
		}
		md, err := stats.Median(apes)
		if err != nil {
			return nil, err
		}
		out = append(out, AblationRow{
			Edge: ed.Edge.String(), Group: group,
			MdAPE: md, DeltaPct: md - base,
		})
	}
	return out, nil
}

// RenderAblation formats the ablation study per edge.
func RenderAblation(rows []AblationRow) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-28s %-24s %10s %8s\n", "Edge", "removed group", "XGB MdAPE", "Δ")
	for _, r := range rows {
		name := r.Group
		delta := fmt.Sprintf("%+.2f", r.DeltaPct)
		if name == "" {
			name = "(full model)"
			delta = ""
		}
		fmt.Fprintf(&b, "%-28s %-24s %9.2f%% %8s\n", r.Edge, name, r.MdAPE, delta)
	}
	return b.String()
}

// SummarizeAblation averages the accuracy cost of removing each group over
// all edges in the rows.
func SummarizeAblation(rows []AblationRow) map[string]float64 {
	sums := map[string]float64{}
	counts := map[string]float64{}
	for _, r := range rows {
		if r.Group == "" {
			continue
		}
		sums[r.Group] += r.DeltaPct
		counts[r.Group]++
	}
	out := map[string]float64{}
	for g, s := range sums {
		out[g] = s / counts[g]
	}
	return out
}
