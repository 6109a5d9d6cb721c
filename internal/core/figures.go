package core

import (
	"fmt"
	"math"
	"sort"
	"strings"

	"repro/internal/features"
	"repro/internal/fit"
	"repro/internal/geo"
	"repro/internal/logs"
	"repro/internal/simulate"
	"repro/internal/stats"
	"repro/internal/testbed"
)

// LoadPoint is one (relative external load, transfer rate) point of
// Figures 3 and 8.
type LoadPoint struct {
	RelLoad float64
	Rate    float64 // MB/s
}

// LoadCurve is the Figure 3/8 dataset for one edge, plus summary facts the
// figures make visually: the maximum-rate transfer and the load at which it
// occurred.
type LoadCurve struct {
	Edge      string
	Points    []LoadPoint
	MaxRate   float64
	LoadAtMax float64
	// BinMeans holds mean rate per load decile, for trend checks.
	BinMeans []float64
}

func buildLoadCurve(edge string, vecs []features.Vector) LoadCurve {
	c := LoadCurve{Edge: edge}
	for i := range vecs {
		p := LoadPoint{RelLoad: vecs[i].RelativeExternalLoad(), Rate: vecs[i].Rate}
		c.Points = append(c.Points, p)
		if p.Rate > c.MaxRate {
			c.MaxRate = p.Rate
			c.LoadAtMax = p.RelLoad
		}
	}
	// Mean rate per load decile.
	sums := make([]float64, 10)
	counts := make([]float64, 10)
	for _, p := range c.Points {
		b := int(p.RelLoad * 10)
		if b > 9 {
			b = 9
		}
		sums[b] += p.Rate
		counts[b]++
	}
	for b := range sums {
		if counts[b] > 0 {
			c.BinMeans = append(c.BinMeans, sums[b]/counts[b])
		} else {
			c.BinMeans = append(c.BinMeans, math.NaN())
		}
	}
	return c
}

// Fig3Edges are the testbed edges shown in Figure 3.
var Fig3Edges = [][2]string{
	{"ANL", "BNL"},
	{"CERN", "BNL"},
	{"BNL", "LBL"},
	{"CERN", "ANL"},
}

// Fig3 reproduces the clean rate-vs-load decline on the controlled testbed:
// each edge gets a sweep of transfers under 0–4 known competitors and no
// hidden load, so the maximum rate occurs at (or near) zero relative load.
func Fig3(transfersPerEdge int, seed int64) ([]LoadCurve, error) {
	var curves []LoadCurve
	for _, e := range Fig3Edges {
		w := testbed.NewWorld()
		eng := simulate.NewEngine(w, seed)
		eng.Submit(testbed.LoadSweep(e[0], e[1], transfersPerEdge, seed+int64(len(curves)))...)
		l, err := eng.Run()
		if err != nil {
			return nil, err
		}
		vecs := features.Engineer(l)
		key := logs.EdgeKey{Src: testbed.EndpointID(e[0]), Dst: testbed.EndpointID(e[1])}
		var sel []features.Vector
		for i := range vecs {
			if l.Records[vecs[i].RecordIdx].Edge() == key {
				sel = append(sel, vecs[i])
			}
		}
		curves = append(curves, buildLoadCurve(e[0]+"->"+e[1], sel))
	}
	return curves, nil
}

// Fig8 extracts rate-vs-load for heavily used production edges, where
// hidden background load blurs the relationship: unlike Figure 3, the
// maximum-rate transfer is usually NOT at zero known load.
func (p *Pipeline) Fig8(edges []EdgeData, n int) []LoadCurve {
	if n > len(edges) {
		n = len(edges)
	}
	var curves []LoadCurve
	for _, ed := range edges[:n] {
		curves = append(curves, buildLoadCurve(ed.Edge.String(), p.VectorsAt(ed.All)))
	}
	return curves
}

// RenderLoadCurves summarizes Figure 3/8 data: per edge, the mean rate per
// relative-load decile and where the maximum sat.
func RenderLoadCurves(curves []LoadCurve) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-28s %6s | mean rate (MB/s) per relative-load decile | load@max\n", "Edge", "n")
	for _, c := range curves {
		fmt.Fprintf(&b, "%-28s %6d |", c.Edge, len(c.Points))
		for _, m := range c.BinMeans {
			if math.IsNaN(m) {
				fmt.Fprintf(&b, " %6s", ".")
			} else {
				fmt.Fprintf(&b, " %6.1f", m)
			}
		}
		fmt.Fprintf(&b, " | %.2f\n", c.LoadAtMax)
	}
	return b.String()
}

// ConcurrencyBin is one point of Figure 4: mean aggregate incoming rate at
// a given total concurrency, with the dwell time spent there.
type ConcurrencyBin struct {
	Concurrency float64
	MeanInRate  float64
	Seconds     float64
}

// Fig4Curve is the Figure 4 dataset for one endpoint with its Weibull fit.
type Fig4Curve struct {
	Endpoint string
	Bins     []ConcurrencyBin
	Fit      fit.WeibullCurve
	FitOK    bool
}

// Fig4 bins each endpoint's load history by instantaneous GridFTP instance
// count, averages the aggregate incoming rate per bin (weighted by dwell
// time), and fits the Weibull-shaped curve of Figure 4.
func (p *Pipeline) Fig4(endpoints []string) ([]Fig4Curve, error) {
	defer p.Obs.Child("concurrency_curves").End()
	var out []Fig4Curve
	for _, ep := range endpoints {
		series, err := features.ConcurrencySeries(p.Log, ep)
		if err != nil {
			return nil, err
		}
		sums := map[int]*ConcurrencyBin{}
		for _, s := range series {
			k := int(math.Round(s.Concurrency))
			b := sums[k]
			if b == nil {
				b = &ConcurrencyBin{Concurrency: float64(k)}
				sums[k] = b
			}
			b.MeanInRate += s.InRateMBps * s.Duration
			b.Seconds += s.Duration
		}
		var bins []ConcurrencyBin
		for _, b := range sums {
			if b.Seconds <= 0 {
				continue
			}
			bins = append(bins, ConcurrencyBin{
				Concurrency: b.Concurrency,
				MeanInRate:  b.MeanInRate / b.Seconds,
				Seconds:     b.Seconds,
			})
		}
		sort.Slice(bins, func(i, j int) bool { return bins[i].Concurrency < bins[j].Concurrency })
		curve := Fig4Curve{Endpoint: ep, Bins: bins}
		var xs, ys []float64
		for _, b := range bins {
			if b.Concurrency > 0 {
				xs = append(xs, b.Concurrency)
				ys = append(ys, b.MeanInRate)
			}
		}
		if w, err := fit.FitWeibull(xs, ys); err == nil {
			curve.Fit = w
			curve.FitOK = true
		}
		out = append(out, curve)
	}
	return out, nil
}

// BusiestEndpoints returns the n endpoints with the most incoming
// transfers, the natural analogues of Figure 4's four endpoints.
func (p *Pipeline) BusiestEndpoints(n int) []string {
	counts := map[string]int{}
	for i := range p.Log.Records {
		counts[p.Log.Records[i].Dst]++
	}
	var ids []string
	for id := range counts {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool {
		if counts[ids[i]] != counts[ids[j]] {
			return counts[ids[i]] > counts[ids[j]]
		}
		return ids[i] < ids[j]
	})
	if n > len(ids) {
		n = len(ids)
	}
	return ids[:n]
}

// RenderFig4 summarizes the concurrency curves and fits.
func RenderFig4(curves []Fig4Curve) string {
	var b strings.Builder
	for _, c := range curves {
		fmt.Fprintf(&b, "%s: %d concurrency levels", c.Endpoint, len(c.Bins))
		if c.FitOK {
			fmt.Fprintf(&b, "; Weibull fit shape=%.2f scale=%.1f peak@G=%.1f", c.Fit.Shape, c.Fit.Scale, c.Fit.Mode())
		}
		b.WriteString("\n  G:rate ")
		for _, bin := range c.Bins {
			if bin.Concurrency > 40 {
				break
			}
			fmt.Fprintf(&b, " %d:%.0f", int(bin.Concurrency), bin.MeanInRate)
		}
		b.WriteString("\n")
	}
	return b.String()
}

// SizeBucket is one group of Figure 5: transfers in a total-size bucket,
// split into small-file and big-file halves by median average file size.
type SizeBucket struct {
	TotalGB       float64 // mean total size of the bucket, GB
	SmallFileRate float64 // mean rate of the below-median-avg-file-size half
	BigFileRate   float64 // mean rate of the above-median half
	N             int
}

// Fig5 reproduces the file-characteristics study on one edge: group its
// transfers into total-size buckets, split each bucket at the median
// average file size, and compare mean rates.
func (p *Pipeline) Fig5(ed EdgeData, buckets int) ([]SizeBucket, error) {
	vecs := p.VectorsAt(ed.All)
	if len(vecs) == 0 {
		return nil, fmt.Errorf("core: edge %s has no transfers", ed.Edge)
	}
	totals := make([]float64, len(vecs))
	for i := range vecs {
		totals[i] = vecs[i].Nb
	}
	var out []SizeBucket
	for _, b := range stats.QuantileBuckets(totals, buckets) {
		var avgSizes []float64
		for _, i := range b.Indices {
			avgSizes = append(avgSizes, vecs[i].Nb/math.Max(1, vecs[i].Nf))
		}
		med, err := stats.Median(avgSizes)
		if err != nil {
			return nil, err
		}
		var sb SizeBucket
		var smallSum, bigSum, totalSum float64
		var smallN, bigN int
		for k, i := range b.Indices {
			totalSum += vecs[i].Nb
			if avgSizes[k] <= med {
				smallSum += vecs[i].Rate
				smallN++
			} else {
				bigSum += vecs[i].Rate
				bigN++
			}
		}
		sb.N = len(b.Indices)
		sb.TotalGB = totalSum / float64(sb.N) / 1e9
		if smallN > 0 {
			sb.SmallFileRate = smallSum / float64(smallN)
		}
		if bigN > 0 {
			sb.BigFileRate = bigSum / float64(bigN)
		}
		out = append(out, sb)
	}
	return out, nil
}

// RenderFig5 formats the Figure 5 buckets.
func RenderFig5(buckets []SizeBucket) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%10s %6s %16s %16s\n", "TotalGB", "n", "smallFiles MB/s", "bigFiles MB/s")
	for _, s := range buckets {
		fmt.Fprintf(&b, "%10.1f %6d %16.1f %16.1f\n", s.TotalGB, s.N, s.SmallFileRate, s.BigFileRate)
	}
	return b.String()
}

// Fig6Point is one transfer in the size-vs-distance scatter of Figure 6.
type Fig6Point struct {
	Bytes            float64
	DistanceKm       float64
	RateMBps         float64
	Intercontinental bool
}

// Fig6 builds the scatter and returns it with group summaries.
func (p *Pipeline) Fig6() ([]Fig6Point, Fig6Summary) {
	var pts []Fig6Point
	for i := range p.Log.Records {
		r := &p.Log.Records[i]
		sa, oka := geo.FindSite(p.Log.SiteOf(r.Src))
		sb, okb := geo.FindSite(p.Log.SiteOf(r.Dst))
		if !oka || !okb {
			continue
		}
		pts = append(pts, Fig6Point{
			Bytes:            r.Bytes,
			DistanceKm:       geo.GreatCircleKm(sa.Coord, sb.Coord),
			RateMBps:         r.Rate(),
			Intercontinental: geo.Intercontinental(sa, sb),
		})
	}
	return pts, SummarizeFig6(pts)
}

// Fig6Summary captures the figure's visual takeaways numerically: rate
// correlates with size, and intercontinental transfers are slower.
type Fig6Summary struct {
	N               int
	CorrLogSizeRate float64 // Pearson on log10(size) vs log10(rate)
	IntraMeanRate   float64
	InterMeanRate   float64
	IntraN, InterN  int
}

// SummarizeFig6 computes the summary from scatter points.
func SummarizeFig6(pts []Fig6Point) Fig6Summary {
	var s Fig6Summary
	s.N = len(pts)
	var lx, ly []float64
	var intra, inter float64
	for _, p := range pts {
		if p.Bytes > 0 && p.RateMBps > 0 {
			lx = append(lx, math.Log10(p.Bytes))
			ly = append(ly, math.Log10(p.RateMBps))
		}
		if p.Intercontinental {
			inter += p.RateMBps
			s.InterN++
		} else {
			intra += p.RateMBps
			s.IntraN++
		}
	}
	s.CorrLogSizeRate, _ = stats.Pearson(lx, ly)
	if s.IntraN > 0 {
		s.IntraMeanRate = intra / float64(s.IntraN)
	}
	if s.InterN > 0 {
		s.InterMeanRate = inter / float64(s.InterN)
	}
	return s
}

// RenderFig6 formats the summary.
func RenderFig6(s Fig6Summary) string {
	return fmt.Sprintf(
		"n=%d  corr(log size, log rate)=%.2f\nintracontinental: n=%d mean=%.1f MB/s\nintercontinental: n=%d mean=%.1f MB/s\n",
		s.N, s.CorrLogSizeRate, s.IntraN, s.IntraMeanRate, s.InterN, s.InterMeanRate)
}
