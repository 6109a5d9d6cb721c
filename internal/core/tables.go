package core

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/features"
	"repro/internal/geo"
	"repro/internal/logs"
	"repro/internal/stats"
	"repro/internal/testbed"
)

// Table1 regenerates the §3.1 testbed campaign. It is independent of the
// pipeline (the testbed is its own controlled world).
func Table1() ([]testbed.Row, error) { return testbed.MeasureAll() }

// RenderTable1 formats testbed rows the way Table 1 lays them out, with the
// per-row minimum marked.
func RenderTable1(rows []testbed.Row) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-6s %-6s %8s %8s %8s %8s  %s\n", "From", "To", "Rmax", "DWmax", "DRmax", "MMmax", "min / Eq.1 holds")
	for _, r := range rows {
		minName := "DWmax"
		switch r.Min() {
		case r.DRmax:
			minName = "DRmax"
		case r.MMmax:
			minName = "MMmax"
		}
		fmt.Fprintf(&b, "%-6s %-6s %8.3f %8.3f %8.3f %8.3f  %s / %v\n",
			r.From, r.To, r.Rmax, r.DWmax, r.DRmax, r.MMmax, minName, r.Consistent())
	}
	return b.String()
}

// EdgeLengthStats is one row of Table 3: great-circle length percentiles.
type EdgeLengthStats struct {
	Dataset string
	P25     float64
	P50     float64
	P90     float64
}

// edgeLengthKm returns the great-circle length of an edge via the site
// catalogue; unknown sites yield false.
func (p *Pipeline) edgeLengthKm(e logs.EdgeKey) (float64, bool) {
	sa, oka := geo.FindSite(p.Log.SiteOf(e.Src))
	sb, okb := geo.FindSite(p.Log.SiteOf(e.Dst))
	if !oka || !okb {
		return 0, false
	}
	return geo.GreatCircleKm(sa.Coord, sb.Coord), true
}

// Table3 compares edge-length percentiles for all edges in the log versus
// the selected study edges.
func (p *Pipeline) Table3(selected []EdgeData) ([]EdgeLengthStats, error) {
	var all []float64
	for e := range p.Log.Edges() {
		if d, ok := p.edgeLengthKm(e); ok {
			all = append(all, d)
		}
	}
	var sel []float64
	for _, ed := range selected {
		if d, ok := p.edgeLengthKm(ed.Edge); ok {
			sel = append(sel, d)
		}
	}
	rowOf := func(name string, xs []float64) (EdgeLengthStats, error) {
		ps, err := stats.Percentiles(xs, 25, 50, 90)
		if err != nil {
			return EdgeLengthStats{}, err
		}
		return EdgeLengthStats{Dataset: name, P25: ps[0], P50: ps[1], P90: ps[2]}, nil
	}
	ra, err := rowOf("All edges", all)
	if err != nil {
		return nil, err
	}
	rs, err := rowOf(fmt.Sprintf("%d edges", len(selected)), sel)
	if err != nil {
		return nil, err
	}
	return []EdgeLengthStats{ra, rs}, nil
}

// RenderTable3 formats Table 3.
func RenderTable3(rows []EdgeLengthStats) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-12s %8s %8s %8s\n", "Dataset", "25th", "50th", "90th")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-12s %8.0f %8.0f %8.0f\n", r.Dataset, r.P25, r.P50, r.P90)
	}
	return b.String()
}

// EdgeTypeStats is one row of Table 4: the share of each edge type.
type EdgeTypeStats struct {
	Dataset  string
	GCStoGCS float64 // %
	GCStoGCP float64 // %
	GCPtoGCS float64 // %
}

func (p *Pipeline) edgeType(e logs.EdgeKey) (src, dst logs.EndpointType) {
	return p.Log.EndpointTypeOf(e.Src), p.Log.EndpointTypeOf(e.Dst)
}

// Table4 computes edge-type shares for all edges versus the selected edges.
func (p *Pipeline) Table4(selected []EdgeData) []EdgeTypeStats {
	classify := func(es []logs.EdgeKey, name string) EdgeTypeStats {
		var ss, sp, ps int
		for _, e := range es {
			s, d := p.edgeType(e)
			switch {
			case s == logs.GCS && d == logs.GCS:
				ss++
			case s == logs.GCS && d == logs.GCP:
				sp++
			case s == logs.GCP && d == logs.GCS:
				ps++
			}
		}
		n := float64(len(es))
		if n == 0 {
			n = 1
		}
		return EdgeTypeStats{
			Dataset:  name,
			GCStoGCS: 100 * float64(ss) / n,
			GCStoGCP: 100 * float64(sp) / n,
			GCPtoGCS: 100 * float64(ps) / n,
		}
	}
	var all []logs.EdgeKey
	for e := range p.Log.Edges() {
		all = append(all, e)
	}
	sort.Slice(all, func(i, j int) bool { return all[i].String() < all[j].String() })
	var sel []logs.EdgeKey
	for _, ed := range selected {
		sel = append(sel, ed.Edge)
	}
	return []EdgeTypeStats{
		classify(all, "All edges"),
		classify(sel, fmt.Sprintf("%d edges", len(selected))),
	}
}

// RenderTable4 formats Table 4.
func RenderTable4(rows []EdgeTypeStats) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-12s %10s %10s %10s\n", "Dataset", "GCS=>GCS", "GCS=>GCP", "GCP=>GCS")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-12s %10.0f %10.0f %10.0f\n", r.Dataset, r.GCStoGCS, r.GCStoGCP, r.GCPtoGCS)
	}
	return b.String()
}

// CorrelationRow is one edge's Table 5 pair of rows: per-feature Pearson CC
// and MIC against transfer rate. Constant features have Defined=false for
// CC (the paper prints "–").
type CorrelationRow struct {
	Edge    string
	Feature string
	CC      float64
	CCValid bool // false when the feature is constant on this edge
	MIC     float64
}

// Table5 computes CC and MIC for every Table 2 feature on the given edges
// (the paper shows four example edges).
func (p *Pipeline) Table5(edges []EdgeData) ([]CorrelationRow, error) {
	defer p.Obs.Child("correlate_edges").End()
	var out []CorrelationRow
	for _, ed := range edges {
		vecs := p.VectorsAt(ed.Qualifying)
		ds, err := features.Dataset(vecs, false)
		if err != nil {
			return nil, err
		}
		for j, name := range ds.Names {
			col := ds.Column(j)
			valid := stats.Variance(col) > 0
			var cc float64
			if valid {
				if cc, err = stats.Pearson(col, ds.Y); err != nil {
					return nil, err
				}
			}
			mic := 0.0
			if valid {
				if mic, err = stats.MIC(col, ds.Y); err != nil {
					return nil, err
				}
			}
			out = append(out, CorrelationRow{
				Edge: ed.Edge.String(), Feature: name,
				CC: abs(cc), CCValid: valid, MIC: mic,
			})
		}
	}
	return out, nil
}

func abs(v float64) float64 {
	if v < 0 {
		return -v
	}
	return v
}

// RenderTable5 formats Table 5: for each edge a CC row and a MIC row over
// the features in canonical order.
func RenderTable5(rows []CorrelationRow) string {
	byEdge := map[string]map[string]CorrelationRow{}
	var order []string
	for _, r := range rows {
		m, ok := byEdge[r.Edge]
		if !ok {
			m = map[string]CorrelationRow{}
			byEdge[r.Edge] = m
			order = append(order, r.Edge)
		}
		m[r.Feature] = r
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%-28s %-4s", "Edge", "")
	for _, f := range features.Names {
		fmt.Fprintf(&b, " %6s", f)
	}
	b.WriteString("\n")
	for _, e := range order {
		m := byEdge[e]
		fmt.Fprintf(&b, "%-28s %-4s", e, "CC")
		for _, f := range features.Names {
			r := m[f]
			if r.CCValid {
				fmt.Fprintf(&b, " %6.2f", r.CC)
			} else {
				fmt.Fprintf(&b, " %6s", "-")
			}
		}
		b.WriteString("\n")
		fmt.Fprintf(&b, "%-28s %-4s", "", "MIC")
		for _, f := range features.Names {
			fmt.Fprintf(&b, " %6.2f", m[f].MIC)
		}
		b.WriteString("\n")
	}
	return b.String()
}
