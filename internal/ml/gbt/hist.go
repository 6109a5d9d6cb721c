package gbt

import (
	"fmt"
	"math/bits"
	"math/rand"
	"sort"
	"time"

	"repro/internal/ml/dataset"
	"repro/internal/obs"
	"repro/internal/pool"
)

// Histogram-binned training: the quantized split search real XGBoost-class
// systems use. Each feature column is mapped once onto at most Params.Bins
// integer codes (dataset.Bin); tree growth then accumulates one
// gradient/hessian histogram per feature per node and searches splits over
// bin boundaries instead of sorted rows. Three properties make it fast:
//
//   - split search per node costs O(features · bins), independent of the
//     node's row count;
//   - only the smaller child of a split ever has its histogram built by
//     scanning rows — the larger child's is the parent's minus the smaller
//     child's, bin by bin (the subtraction trick), so each level of a tree
//     scans at most half the parent's rows;
//   - the binned matrix is immutable and row-subsettable, so CV folds and
//     hyperparameter-grid points share one quantization (see tune.Search).
//
// The path is deterministic — row subsampling is seeded, histograms are
// accumulated feature-serially in row order, and the winning split is
// reduced in ascending feature order with a strictly-greater rule — so the
// same inputs always yield the same model regardless of worker count. It
// is NOT bit-identical to the exact presorted path (Bins = 0): quantile
// cuts coarsen candidate thresholds and the accumulation order differs, so
// the two paths are related by the tolerance contract pinned in
// hist_test.go, not by equality.

// TrainBinned fits a boosted ensemble on the rows of bd listed in view
// (nil = every row) with parameters p. The binned matrix is read-only and
// may be shared concurrently by many TrainBinned calls; subsetting by row
// index never re-bins, which is what makes the shared binning cache in
// package tune multiplicative across folds and grid points.
func TrainBinned(bd *dataset.Binned, view []int, p Params) (*Model, error) {
	if bd.Len() == 0 {
		return nil, dataset.ErrEmpty
	}
	if bd.NumFeatures() == 0 {
		return nil, fmt.Errorf("gbt: no features")
	}
	codes, y := bd.Codes, bd.Y
	if view != nil {
		if len(view) == 0 {
			return nil, dataset.ErrEmpty
		}
		// Dense per-view copy: byte-sized codes make this a cheap slice
		// copy, and every downstream index is then a contiguous position.
		codes = make([][]uint8, bd.NumFeatures())
		for f := range codes {
			col := make([]uint8, len(view))
			src := bd.Codes[f]
			for k, i := range view {
				col[k] = src[i]
			}
			codes[f] = col
		}
		y = make([]float64, len(view))
		for k, i := range view {
			y[k] = bd.Y[i]
		}
	}
	return trainHist(bd, codes, y, p)
}

// trainHist is the histogram-path boosting loop: the same round structure
// as the exact path, with tree construction delegated to histBuilder and
// per-round prediction updates routed through the bin codes (code-space
// and raw-space traversal agree exactly; see dataset.Binned).
func trainHist(bd *dataset.Binned, codes [][]uint8, y []float64, p Params) (*Model, error) {
	return trainHistFrom(bd, codes, y, p, nil, nil)
}

// trainHistFrom is trainHist with an optional warm start: when prev is
// non-nil, boosting continues from prev's ensemble — the base stays
// prev's, per-row predictions start from init (prev evaluated on the
// training rows, computed by the caller in raw space), and prev's trees
// are carried into the returned model ahead of the p.Rounds new residual
// trees. See TrainWarm.
func trainHistFrom(bd *dataset.Binned, codes [][]uint8, y []float64, p Params, prev *Model, init []float64) (*Model, error) {
	n := len(y)
	p.fillDefaults()
	rng := rand.New(rand.NewSource(p.Seed))

	var base float64
	pred := make([]float64, n)
	if prev != nil {
		base = prev.Base
		copy(pred, init)
	} else {
		for _, v := range y {
			base += v
		}
		base /= float64(n)
		for i := range pred {
			pred[i] = base
		}
	}

	m := &Model{
		Base:   base,
		Names:  append([]string(nil), bd.Names...),
		params: p,
		bins:   binsOf(bd),
		cuts:   bd.Cuts,
	}
	m.buildQuantizer()
	grad := make([]float64, n)
	hess := make([]float64, n)

	hb := newHistBuilder(bd, codes, p)

	var allRows, allCols []int
	var mark []bool
	if p.SubsampleRows >= 1 {
		allRows = identity(n)
	} else {
		mark = make([]bool, n)
	}
	if p.SubsampleCols >= 1 {
		allCols = identity(bd.NumFeatures())
	}

	measure := p.Metrics != nil
	treesBuilt := p.Metrics.Counter("gbt.trees_built")
	splitNS := p.Metrics.Counter("gbt.split_search_ns")
	treeMS := p.Metrics.Histogram("gbt.tree_build_ms", obs.ExpBuckets(0.25, 2, 14))

	m.trees = make([]tree, 0, prevTreeCount(prev)+p.Rounds)
	if prev != nil {
		// Deep-copy the inherited trees so the blessed model and the warm
		// candidate never share mutable state.
		for ti := range prev.trees {
			m.trees = append(m.trees, tree{nodes: append([]node(nil), prev.trees[ti].nodes...)})
		}
	}
	for round := 0; round < p.Rounds; round++ {
		for i := range grad {
			grad[i] = pred[i] - y[i] // squared loss gradient
			hess[i] = 1
		}
		rows := allRows
		if rows == nil {
			rows = sampleRows(n, p.SubsampleRows, rng, mark)
		}
		cols := allCols
		if cols == nil {
			cols = sampleCols(bd.NumFeatures(), p.SubsampleCols, rng)
		}
		var t0 time.Time
		if measure {
			t0 = time.Now()
		}
		t := hb.build(rows, cols, grad, hess)
		if measure {
			treeMS.Observe(float64(time.Since(t0)) / float64(time.Millisecond))
			treesBuilt.Inc()
		}
		m.trees = append(m.trees, t)
		// In-sample rows (ascending in rows) take the weight of the leaf
		// that grew them — the leaf a walk would reach. Only the rows row
		// subsampling left out walk the tree, in code space, which needs
		// no raw feature matrix.
		j := 0
		for i := range pred {
			if j < len(rows) && rows[j] == i {
				pred[i] += hb.rowWeight[i]
				j++
			} else {
				pred[i] += hb.predictCodes(t.nodes, i)
			}
		}
	}
	if measure {
		splitNS.Add(hb.splitNS)
	}
	m.buildFlat()
	return m, nil
}

// binsOf recovers the quantization level of a binned matrix: the widest
// per-feature bin count (what Serialize records as the model's Bins).
func binsOf(bd *dataset.Binned) int {
	max := 1
	for f := 0; f < bd.NumFeatures(); f++ {
		if nb := bd.NumBins(f); nb > max {
			max = nb
		}
	}
	return max
}

// histBuilder holds the per-training-run state of histogram tree growth.
// Histograms are pooled histBufs, and at most depth+1 are ever live (root
// plus one small child per level).
type histBuilder struct {
	codes   [][]uint8 // column-major bin codes, dense positions 0..n-1
	cuts    [][]float64
	los     [][]float64 // per feature: each bin's smallest occupied value
	his     [][]float64 // per feature: each bin's largest occupied value
	nbins   []int
	offsets []int // per-feature bin offset into the flat histogram
	histLen int   // total bins across all features
	p       Params
	n       int

	rows      []int32    // working row array, partitioned in place per node
	scratch   []int32    // stable-partition spill for the right child
	histPool  []*histBuf // free histograms, every bin zero and every mask clear
	splitBin  []uint8    // per emitted node: the split's bin (training only)
	rowWeight []float64  // per row: the weight of the leaf that grew it this round

	measure bool
	splitNS int64
}

// histBuf is one gradient/hessian histogram: interleaved (g, h) pairs in
// one flat buffer covering every feature's bins at per-feature offsets,
// plus a 256-bit occupancy mask per feature (occ[4f:4f+4]). A bin whose
// bit is clear holds exactly (+0, +0); every loop over bins walks set bits
// only, so the cost of a histogram follows its occupied bins, not the bin
// budget.
type histBuf struct {
	gh  []float64
	occ []uint64
}

// occWords is the number of uint64 mask words per feature: 256 bins.
const occWords = 4

func newHistBuilder(bd *dataset.Binned, codes [][]uint8, p Params) *histBuilder {
	nf := bd.NumFeatures()
	hb := &histBuilder{
		codes:   codes,
		cuts:    bd.Cuts,
		los:     bd.Lo,
		his:     bd.Hi,
		nbins:   make([]int, nf),
		offsets: make([]int, nf),
		p:       p,
		n:       len(codes[0]),
		measure: p.Metrics != nil,
	}
	for f := 0; f < nf; f++ {
		hb.offsets[f] = hb.histLen
		hb.nbins[f] = bd.NumBins(f)
		hb.histLen += hb.nbins[f]
	}
	hb.rows = make([]int32, hb.n)
	hb.scratch = make([]int32, 0, hb.n)
	hb.rowWeight = make([]float64, hb.n)
	return hb
}

func (hb *histBuilder) getHist() *histBuf {
	if k := len(hb.histPool); k > 0 {
		h := hb.histPool[k-1]
		hb.histPool = hb.histPool[:k-1]
		return h
	}
	return &histBuf{
		gh:  make([]float64, 2*hb.histLen),
		occ: make([]uint64, occWords*len(hb.nbins)),
	}
}

// putHist returns h to the pool clean: only its set bins can be nonzero,
// so zeroing them and clearing the masks restores the all-zero state.
func (hb *histBuilder) putHist(h *histBuf) {
	for f, off := range hb.offsets {
		gh := h.gh[2*off : 2*(off+hb.nbins[f])]
		occ := h.occ[occWords*f : occWords*(f+1)]
		for w, word := range occ {
			for ; word != 0; word &= word - 1 {
				k := 2 * (w<<6 | bits.TrailingZeros64(word))
				gh[k], gh[k+1] = 0, 0
			}
			occ[w] = 0
		}
	}
	hb.histPool = append(hb.histPool, h)
}

// build grows one tree on the given row subset using only the given
// columns. rows come in ascending; the in-place partitions are stable, so
// every node's rows stay ascending and histogram accumulation order is a
// deterministic function of the split structure alone. On return
// rowWeight holds, for every row in rows, the weight of its leaf.
func (hb *histBuilder) build(rows, cols []int, grad, hess []float64) tree {
	w := &flatWriter{}
	hb.splitBin = hb.splitBin[:0]
	work := hb.rows[:0]
	for _, i := range rows {
		work = append(work, int32(i))
	}
	root := hb.getHist()
	hb.buildHist(work, cols, root, grad, hess)
	hb.grow(w, work, cols, root, grad, hess, 0)
	hb.putHist(root)
	return tree{nodes: w.nodes}
}

// leaf emits a leaf keeping splitBin aligned with the writer's node array,
// and records its weight for the rows that reach it.
func (hb *histBuilder) leaf(w *flatWriter, rows []int32, gSum, hSum float64) int32 {
	weight := -gSum / (hSum + hb.p.Lambda) * hb.p.LearningRate
	for _, i := range rows {
		hb.rowWeight[i] = weight
	}
	hb.splitBin = append(hb.splitBin, 0)
	return w.leaf(weight)
}

// grow emits the subtree over rows (whose histogram is hist, owned by the
// caller; nil when the node is at MaxDepth and reads none) and returns its
// pre-order node index.
func (hb *histBuilder) grow(w *flatWriter, rows []int32, cols []int, hist *histBuf, grad, hess []float64, depth int) int32 {
	var gSum, hSum float64
	for _, i := range rows {
		gSum += grad[i]
		hSum += hess[i]
	}
	if depth >= hb.p.MaxDepth || len(rows) < 2 {
		return hb.leaf(w, rows, gSum, hSum)
	}

	parentScore := gSum * gSum / (hSum + hb.p.Lambda)
	var t0 time.Time
	if hb.measure {
		t0 = time.Now()
	}
	bestGain := 0.0
	bestFeat := -1
	bestBin := 0
	for _, f := range cols {
		c := hb.scanBins(hist, f, gSum, hSum, parentScore)
		if c.ok && c.gain > bestGain {
			bestGain, bestFeat, bestBin = c.gain, f, c.bin
		}
	}
	if hb.measure {
		hb.splitNS += int64(time.Since(t0))
	}
	if bestFeat < 0 {
		return hb.leaf(w, rows, gSum, hSum)
	}
	thresh, splitBin := hb.threshold(hist, bestFeat, bestBin)

	// Stable in-place partition on the winning bin boundary: left rows
	// compact to the front, right rows spill to scratch and copy back.
	code := hb.codes[bestFeat]
	bin := uint8(bestBin)
	sc := hb.scratch[:0]
	nl := 0
	for _, i := range rows {
		if code[i] <= bin {
			rows[nl] = i
			nl++
		} else {
			sc = append(sc, i)
		}
	}
	if nl == 0 || nl == len(rows) {
		return hb.leaf(w, rows, gSum, hSum)
	}
	copy(rows[nl:], sc)
	left, right := rows[:nl], rows[nl:]

	// Subtraction trick: scan only the smaller child; the larger child's
	// histogram is parent − smaller, computed in place into the parent's
	// buffer (the parent histogram is dead once its children exist).
	// Children at MaxDepth are leaves and read no histogram, so a node one
	// level above it builds none.
	var leftHist, rightHist, smallHist *histBuf
	if depth+1 < hb.p.MaxDepth {
		small := left
		if len(right) < len(left) {
			small = right
		}
		smallHist = hb.getHist()
		hb.buildHist(small, cols, smallHist, grad, hess)
		hb.subtract(hist, smallHist, cols)
		leftHist, rightHist = smallHist, hist
		if len(right) < len(left) {
			leftHist, rightHist = hist, smallHist
		}
	}

	idx := w.reserve()
	hb.splitBin = append(hb.splitBin, uint8(splitBin))
	leftIdx := hb.grow(w, left, cols, leftHist, grad, hess, depth+1)
	rightIdx := hb.grow(w, right, cols, rightHist, grad, hess, depth+1)
	if smallHist != nil {
		hb.putHist(smallHist)
	}
	w.nodes[idx] = node{
		feature:   int32(bestFeat),
		threshold: thresh,
		gain:      bestGain,
		left:      leftIdx,
		right:     rightIdx,
	}
	return idx
}

// threshold converts the winning bin boundary into a raw-space threshold
// and the code-space split bin the traversals use.
//
// The split bin m is located the way the exact presorted search would
// place its cut: the node's neighbouring values are bracketed by the
// occupied ranges of bin and of the first bin to its right holding node
// rows, and m is the last bin whose occupied range lies at or below the
// midpoint of that gap. bin itself normally holds node rows too, but not
// always: a derived histogram can leave a rounding residue (h == 0,
// g ≠ 0) in a bin the node has no rows in, and such a bin can win the
// scan by rounding. It partitions the node's rows exactly as the
// preceding occupied bin would, so only the stored threshold — where
// values the node's rows never held fall — can differ from that bin's.
// The stored raw threshold is then Cuts[f][m] — the global bin edge
// separating m from m+1 — which is the one value in the gap making
// raw-space and code-space traversal provably identical for EVERY input,
// not just training rows: code(v) <= m ⇔ v <= Cuts[f][m] is the binned
// representation's defining invariant, so a tree whose thresholds all sit
// on bin edges can be walked entirely in uint8 code space (see
// cforest.go, which refuses any model violating this). For dataset rows
// the snap changes nothing — Cuts[f][m] lies in the same occupied-value
// gap [Hi[f][m], Lo[f][m+1]) as the old midpoint rule, and no training or
// evaluation value of the binned matrix falls strictly inside a gap — so
// tree structure, boosting updates, and all in-data predictions are
// unchanged; only queries landing inside the gap (values the data never
// exhibited) now split at the bin edge instead of the node-local
// midpoint. When every bin holds one distinct value the gap collapses and
// the edge IS the exact search's midpoint, preserving bit-identity with
// the exact path on narrow data.
func (hb *histBuilder) threshold(hist *histBuf, f, bin int) (float64, int) {
	gh := hist.gh[2*hb.offsets[f]:]
	right := bin + 1
	for gh[2*right+1] == 0 { // hessians are integer sums: exact zeros
		right++
	}
	lo, hi := hb.los[f], hb.his[f]
	ideal := (hi[bin] + lo[right]) / 2
	m := sort.SearchFloat64s(lo, ideal)
	if m == len(lo) || lo[m] != ideal {
		m--
	}
	// Clamp to [bin, right-1]: float rounding at the gap's ends could
	// otherwise pin m onto a bin whose rows the partition sent the other
	// way (and right-1 keeps Cuts[f][m] in range: right <= len(cuts)).
	if m >= right {
		m = right - 1
	}
	if m < bin {
		m = bin
	}
	return hb.cuts[f][m], m
}

// buildHist accumulates the (gradient, hessian) histogram of rows for the
// given columns into h, which must come clean from getHist, and sets the
// occupancy bit of every bin it adds to. Feature regions and mask words
// are disjoint, so the feature fan-out is race-free and the per-feature
// accumulation order (ascending row position) is identical serial or
// parallel.
func (hb *histBuilder) buildHist(rows []int32, cols []int, h *histBuf, grad, hess []float64) {
	fill := func(ci int) {
		f := cols[ci]
		off := 2 * hb.offsets[f]
		region := h.gh[off : off+2*hb.nbins[f]]
		var occ [occWords]uint64
		code := hb.codes[f]
		for _, i := range rows {
			c := code[i]
			k := 2 * int(c)
			region[k] += grad[i]
			region[k+1] += hess[i]
			occ[c>>6] |= 1 << (c & 63)
		}
		copy(h.occ[occWords*f:], occ[:])
	}
	// The fan-out only pays off when the node is large; small nodes run
	// serially. Either way each feature is accumulated identically.
	if hb.p.Workers > 1 && len(cols) > 1 && len(rows)*len(cols) >= 8192 {
		pool.Do(len(cols), hb.p.Workers, fill)
	} else {
		for ci := range cols {
			fill(ci)
		}
	}
}

// subtract computes parent−small in place into parent for the given
// columns, so parent becomes the larger child's histogram and keeps its
// mask. Bins clear in small's mask are zero there and need no work. A bin
// that subtracts to exactly (0, 0) is reset to +0 and its bit cleared:
// hessian entries are sums of ones, hence exact integers, so h == 0 means
// the derived child has no rows in the bin. A rounding residue g ≠ 0 with
// h == 0 keeps its bit, and the scan sees it exactly as a dense scan would.
func (hb *histBuilder) subtract(parent, small *histBuf, cols []int) {
	for _, f := range cols {
		off := 2 * hb.offsets[f]
		end := off + 2*hb.nbins[f]
		p, s := parent.gh[off:end], small.gh[off:end]
		pocc := parent.occ[occWords*f : occWords*(f+1)]
		for w, word := range small.occ[occWords*f : occWords*(f+1)] {
			for ; word != 0; word &= word - 1 {
				b := w<<6 | bits.TrailingZeros64(word)
				k := 2 * b
				p[k] -= s[k]
				p[k+1] -= s[k+1]
				if p[k] == 0 && p[k+1] == 0 {
					p[k], p[k+1] = 0, 0
					pocc[w] &^= 1 << uint(b&63)
				}
			}
		}
	}
}

// histSplit is the best split one feature's histogram offers.
type histSplit struct {
	gain float64
	bin  int
	ok   bool
}

// scanBins sweeps one feature's bins left to right, accumulating the
// left-child sums, and returns the maximal-gain boundary (earliest bin on
// equal gain, strictly-greater updates — mirroring the exact path's rule).
//
// Only occupied bins are visited. That is exact: a clear bin holds
// (0, 0), leaves gl and hl unchanged, and so has its predecessor's gain,
// which can never win under the strictly-greater rule. Hessians are
// non-negative, so hr never increases along the sweep, and once it falls
// below MinChildWeight no later boundary qualifies.
func (hb *histBuilder) scanBins(hist *histBuf, f int, gSum, hSum, parentScore float64) histSplit {
	lambda, gamma, minChild := hb.p.Lambda, hb.p.Gamma, hb.p.MinChildWeight
	off := 2 * hb.offsets[f]
	last := hb.nbins[f] - 1 // the last bin is no boundary: nothing lies right of it
	gh := hist.gh[off : off+2*hb.nbins[f]]
	var c histSplit
	var gl, hl float64
	for w, word := range hist.occ[occWords*f : occWords*(f+1)] {
		for ; word != 0; word &= word - 1 {
			b := w<<6 | bits.TrailingZeros64(word)
			if b >= last {
				return c
			}
			gl += gh[2*b]
			hl += gh[2*b+1]
			hr := hSum - hl
			if hr < minChild {
				return c
			}
			if hl < minChild {
				continue
			}
			gr := gSum - gl
			gain := 0.5*(gl*gl/(hl+lambda)+gr*gr/(hr+lambda)-parentScore) - gamma
			if gain > c.gain {
				c.gain = gain
				c.bin = b
				c.ok = true
			}
		}
	}
	return c
}

// predictCodes evaluates one tree on row position pos entirely in code
// space, using the per-node split bins recorded during growth. Because
// code(v) <= bin ⇔ v <= threshold, this agrees exactly with raw-space
// traversal for every training row.
func (hb *histBuilder) predictCodes(nodes []node, pos int) float64 {
	i := int32(0)
	for {
		nd := &nodes[i]
		if nd.feature < 0 {
			return nd.weight
		}
		if hb.codes[nd.feature][pos] <= hb.splitBin[i] {
			i = nd.left
		} else {
			i = nd.right
		}
	}
}
