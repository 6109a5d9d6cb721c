package gbt

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/ml/dataset"
)

// denseScanBins is the split scan before occupancy masks: every bin of the
// feature, occupied or not. It is the oracle the sparse scanBins must
// match bit for bit.
func denseScanBins(hb *histBuilder, hist *histBuf, f int, gSum, hSum, parentScore float64) histSplit {
	lambda, gamma, minChild := hb.p.Lambda, hb.p.Gamma, hb.p.MinChildWeight
	off := 2 * hb.offsets[f]
	nb := hb.nbins[f]
	var c histSplit
	var gl, hl float64
	for b := 0; b < nb-1; b++ {
		gl += hist.gh[off+2*b]
		hl += hist.gh[off+2*b+1]
		gr := gSum - gl
		hr := hSum - hl
		if hl < minChild || hr < minChild {
			continue
		}
		gain := 0.5*(gl*gl/(hl+lambda)+gr*gr/(hr+lambda)-parentScore) - gamma
		if gain > c.gain {
			c.gain = gain
			c.bin = b
			c.ok = true
		}
	}
	return c
}

// syntheticBuilder is a histBuilder over nf features of nb bins each, with
// no rows: enough for scanBins, which reads only the histogram.
func syntheticBuilder(nf, nb int, p Params) *histBuilder {
	hb := &histBuilder{p: p, nbins: make([]int, nf), offsets: make([]int, nf)}
	for f := range hb.nbins {
		hb.nbins[f] = nb
		hb.offsets[f] = hb.histLen
		hb.histLen += nb
	}
	return hb
}

// TestScanBinsMatchesDense compares the sparse scan with the dense oracle
// on random histograms that hold every kind of bin the builder produces:
// empty (clear bit), occupied, and derived rounding residues (h == 0,
// g ≠ 0, bit set). Gains must agree to the bit and the winning bin
// exactly.
func TestScanBinsMatchesDense(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	var residues, wins int
	for trial := 0; trial < 3000; trial++ {
		p := DefaultParams()
		p.MinChildWeight = []float64{1, 3, 0.5, 20}[trial%4]
		p.Gamma = []float64{0, 0.5}[trial%2]
		nb := 2 + rng.Intn(255)
		hb := syntheticBuilder(1, nb, p)
		h := hb.getHist()
		empty := rng.Float64() // share of empty bins
		var gSum, hSum float64
		for b := 0; b < nb; b++ {
			u := rng.Float64()
			switch {
			case u < empty:
				continue
			case u < empty+0.1*(1-empty):
				h.gh[2*b] = (rng.Float64() - 0.5) * 1e-13
				residues++
			default:
				h.gh[2*b] = rng.NormFloat64() * float64(1+rng.Intn(40))
				h.gh[2*b+1] = float64(1 + rng.Intn(12))
			}
			h.occ[b>>6] |= 1 << uint(b&63)
			gSum += h.gh[2*b]
			hSum += h.gh[2*b+1]
		}
		// The builder sums gSum over rows, not bins; perturb it so the
		// last bin's right-hand sums carry rounding too.
		gSum += (rng.Float64() - 0.5) * 1e-12
		parentScore := gSum * gSum / (hSum + p.Lambda)
		got := hb.scanBins(h, 0, gSum, hSum, parentScore)
		want := denseScanBins(hb, h, 0, gSum, hSum, parentScore)
		if got.ok != want.ok || got.bin != want.bin || math.Float64bits(got.gain) != math.Float64bits(want.gain) {
			t.Fatalf("trial %d (nb=%d, minChild=%v): sparse %+v, dense %+v", trial, nb, p.MinChildWeight, got, want)
		}
		if got.ok {
			wins++
		}
	}
	if residues == 0 || wins == 0 {
		t.Fatalf("oracle exercised %d residue bins and %d splits; want both > 0", residues, wins)
	}
}

// checkOcc asserts the occupancy invariant on h: every bin whose bit is
// clear holds exactly (+0, +0), and no bit is set past a feature's last
// bin.
func checkOcc(t *testing.T, hb *histBuilder, h *histBuf) {
	t.Helper()
	for f, off := range hb.offsets {
		for b := 0; b < occWords*64; b++ {
			set := h.occ[occWords*f+b>>6]&(1<<uint(b&63)) != 0
			if b >= hb.nbins[f] {
				if set {
					t.Fatalf("feature %d: bit %d set past the last bin %d", f, b, hb.nbins[f]-1)
				}
				continue
			}
			k := 2 * (off + b)
			if !set && (math.Float64bits(h.gh[k]) != 0 || math.Float64bits(h.gh[k+1]) != 0) {
				t.Fatalf("feature %d bin %d: (%v, %v) with its occupancy bit clear", f, b, h.gh[k], h.gh[k+1])
			}
		}
	}
}

// checkClean asserts h is all zero with every mask clear — the state
// every pooled buffer must be in.
func checkClean(t *testing.T, h *histBuf) {
	t.Helper()
	for i, v := range h.gh {
		if math.Float64bits(v) != 0 {
			t.Fatalf("pooled histogram entry %d = %v, want +0", i, v)
		}
	}
	for i, w := range h.occ {
		if w != 0 {
			t.Fatalf("pooled mask word %d = %#x, want 0", i, w)
		}
	}
}

// TestHistOccupancyInvariant grows random trees with the builder's own
// histogram primitives — build the small child, derive the large one by
// subtraction — on gradients spanning many magnitudes, so derived bins
// leave rounding residues. At every node the occupancy invariant must
// hold, and every buffer the pool hands out or takes back must be clean.
func TestHistOccupancyInvariant(t *testing.T) {
	d := makeDataset(t, 2000, 51, func(x []float64) float64 { return x[0] }, 0.1, 4)
	bd, err := dataset.Bin(d, 256)
	if err != nil {
		t.Fatal(err)
	}
	p := DefaultParams()
	p.fillDefaults()
	hb := newHistBuilder(bd, bd.Codes, p)
	rng := rand.New(rand.NewSource(52))
	n := bd.Len()
	grad := make([]float64, n)
	hess := make([]float64, n)
	cols := []int{0, 1, 2, 3}
	var residues int

	var descend func(rows []int32, h *histBuf, depth int)
	descend = func(rows []int32, h *histBuf, depth int) {
		checkOcc(t, hb, h)
		for f, off := range hb.offsets {
			for b := 0; b < hb.nbins[f]; b++ {
				if k := 2 * (off + b); h.gh[k] != 0 && h.gh[k+1] == 0 {
					residues++
				}
			}
		}
		if depth == 0 || len(rows) < 2 {
			return
		}
		f := cols[rng.Intn(len(cols))]
		bin := uint8(rng.Intn(hb.nbins[f]))
		var left, right []int32
		for _, i := range rows {
			if hb.codes[f][i] <= bin {
				left = append(left, i)
			} else {
				right = append(right, i)
			}
		}
		small, large := left, right
		if len(right) < len(left) {
			small, large = right, left
		}
		sh := hb.getHist()
		checkClean(t, sh)
		hb.buildHist(small, cols, sh, grad, hess)
		hb.subtract(h, sh, cols)
		descend(small, sh, depth-1)
		descend(large, h, depth-1)
		hb.putHist(sh)
	}

	for round := 0; round < 40; round++ {
		for i := range grad {
			grad[i] = rng.NormFloat64() * math.Pow(10, float64(rng.Intn(16)-8))
			hess[i] = 1
		}
		var rows []int32
		for i := 0; i < n; i++ {
			if rng.Float64() < 0.9 {
				rows = append(rows, int32(i))
			}
		}
		root := hb.getHist()
		checkClean(t, root)
		hb.buildHist(rows, cols, root, grad, hess)
		descend(rows, root, 6)
		hb.putHist(root)
		for _, h := range hb.histPool {
			checkClean(t, h)
		}
	}
	if residues == 0 {
		t.Fatal("no derived bin left a rounding residue; the invariant went unexercised for them")
	}

	// The production tree builder must leave the pool clean too.
	all := identity(n)
	for round := 0; round < 10; round++ {
		for i := range grad {
			grad[i] = rng.NormFloat64()
		}
		hb.build(all, cols, grad, hess)
		for _, h := range hb.histPool {
			checkClean(t, h)
		}
	}
}
