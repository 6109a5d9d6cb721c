package main

import (
	"math"
	"sort"
	"time"
)

// minBeyond is how many samples must lie above a reported tail
// percentile: a tail estimate resting on fewer is mostly noise.
const minBeyond = 10

// tailPercentiles is the ladder the tail rule picks from.
var tailPercentiles = []float64{50, 90, 99, 99.9, 99.99}

// tailPercentile returns the highest percentile of the ladder that leaves
// at least minBeyond of n samples above it, and false when even the
// median leaves fewer.
func tailPercentile(n int) (float64, bool) {
	best, ok := 0.0, false
	for _, p := range tailPercentiles {
		if float64(n)*(1-p/100) >= minBeyond-1e-9 {
			best, ok = p, true
		}
	}
	return best, ok
}

// percentile returns the nearest-rank p-th percentile (0 < p <= 100) of
// sorted, which must be ascending and non-empty.
func percentile(sorted []float64, p float64) float64 {
	k := int(math.Ceil(p/100*float64(len(sorted)))) - 1
	k = max(0, min(k, len(sorted)-1))
	return sorted[k]
}

// median returns the median of xs (mean of the middle pair for even
// lengths) without reordering xs; 0 for an empty slice.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// latencySummary is a latency sample reduced to what the benchmark
// reports. Failed requests enter the sample as +Inf, so they miss any
// limit; a percentile that lands on one reports as the largest float64.
type latencySummary struct {
	N        int     `json:"n"`
	P50MS    float64 `json:"p50_ms"`
	P99MS    float64 `json:"p99_ms"`
	TailPct  float64 `json:"tail_pct"` // highest percentile the sample supports
	TailMS   float64 `json:"tail_ms"`
	MaxMS    float64 `json:"max_ms"`
	LimitMS  float64 `json:"limit_ms"`
	P99InLim bool    `json:"p99_within_limit"`
}

func summarize(lat []time.Duration, failed int, limitMS float64) latencySummary {
	ms := make([]float64, 0, len(lat)+failed)
	for _, d := range lat {
		ms = append(ms, float64(d)/float64(time.Millisecond))
	}
	for range failed {
		ms = append(ms, math.Inf(1))
	}
	s := latencySummary{N: len(ms), LimitMS: limitMS}
	if len(ms) == 0 {
		return s
	}
	sort.Float64s(ms)
	s.P50MS = percentile(ms, 50)
	s.P99MS = percentile(ms, 99)
	s.MaxMS = ms[len(ms)-1]
	if p, ok := tailPercentile(len(ms)); ok {
		s.TailPct, s.TailMS = p, percentile(ms, p)
	}
	s.P99InLim = s.P99MS <= limitMS
	s.P50MS, s.P99MS, s.TailMS, s.MaxMS = finite(s.P50MS), finite(s.P99MS), finite(s.TailMS), finite(s.MaxMS)
	return s
}

// finite maps +Inf (a failed request's latency) to the largest float64,
// which JSON can carry and which misses every bound.
func finite(x float64) float64 {
	if math.IsInf(x, 1) {
		return math.MaxFloat64
	}
	return x
}

// mdapePct is the paper's error metric: the median absolute percentage
// error of predictions against actual rates, in percent.
func mdapePct(pred, actual []float64) float64 {
	apes := make([]float64, 0, len(pred))
	for i := range pred {
		if actual[i] != 0 {
			apes = append(apes, math.Abs(pred[i]-actual[i])/math.Abs(actual[i])*100)
		}
	}
	return median(apes)
}
