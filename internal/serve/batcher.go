package serve

import (
	"fmt"
	"sync"
	"time"

	"repro/internal/ml/gbt"
)

// The handoff machinery behind the front door. One admitted unit of work
// is a job — n rows sharing an admission snapshot, an enqueue timestamp,
// and ONE completion notification, whether it came from /predict or
// PredictSync (n=1), /predict/batch or PredictBatchSync. Jobs are
// sync.Pool-recycled completion slots: the waiter checks one out, fills
// the row slabs, and hands it to a per-batcher admission shard; the
// batcher that drains the shard coalesces jobs up to BatchMax rows, runs
// ONE inference per serving model over the gathered rows, publishes
// every result, and wakes each job with a single channel send — one wake
// per job per drained batch, never one per row. The waiter alone recycles the job (an abandoned job — client
// deadline, drain hard-stop — is left to the GC, because the batcher may
// still be writing into it).

// job is one admitted unit of work.
type job struct {
	n  int       // rows
	x  []float64 // n*nf row-major slab, vectorized against areg's layout
	cx []uint8   // n*nf bin codes; row r is valid only when coded[r]

	// coded[r] reports that cx row r holds row r's codes under
	// ents[r].m — the per-row admission invariant quantizeJob
	// establishes (and refreshJob restores after a reload). It is false
	// for rows whose model has no code forest and for a run of rows the
	// quantizer refused (a non-finite feature); those rows take the
	// float walk. It is uniform across
	// each run of consecutive rows on one model.
	coded []bool

	srcs, dsts []string
	areg       *Registry // admission snapshot (layout + generation of x)
	enq        time.Time

	// Results, written by the batcher before the done send.
	out      []float64    // per-row rate
	ents     []*edgeEntry // per-row serving entry (label, latency key)
	gen      int64
	queueMS  float64
	shed     bool // whole job shed on queue-wait timeout
	err      error
	notified bool // batcher-local: done send already issued

	done chan struct{} // buffered(1); the batcher notifies exactly once
}

var jobPool = sync.Pool{
	New: func() any { return &job{done: make(chan struct{}, 1)} },
}

// grow returns s resized to n, reusing its backing array when it fits.
func grow[T any](s []T, n int) []T {
	if cap(s) >= n {
		return s[:n]
	}
	return make([]T, n)
}

// newJob checks a job for n rows of nf features out of the pool.
func newJob(n, nf int) *job {
	j := jobPool.Get().(*job)
	j.n = n
	j.x = grow(j.x, n*nf)
	j.cx = grow(j.cx, n*nf)
	j.coded = grow(j.coded, n)
	j.out = grow(j.out, n)
	j.srcs = grow(j.srcs, n)
	j.dsts = grow(j.dsts, n)
	j.ents = grow(j.ents, n)
	j.shed, j.err, j.notified = false, nil, false
	return j
}

// free recycles a job whose result has been consumed (or that was never
// enqueued). Registry-retaining fields are cleared so a pooled job does
// not pin an old generation's models in memory.
func (j *job) free() {
	j.areg = nil
	for i := range j.ents {
		j.ents[i] = nil
	}
	jobPool.Put(j)
}

// notify publishes the job's results to its waiter.
func (j *job) notify() {
	j.notified = true
	j.done <- struct{}{}
}

// quantizeJob resolves each row's serving model against the admission
// snapshot and quantizes every row whose model has a code forest against
// that model. Consecutive rows on one model form a run quantized by one
// QuantizeSlab call (column-major, so a feature's cuts stay hot), which
// makes a single-edge job one slab call however long it is.
func (s *Server) quantizeJob(j *job, snap *Registry) {
	j.areg = snap
	// Memoize the previous row's (src, dst): batch rows often share an
	// edge, and with interned labels the equality checks are pointer
	// comparisons — two map hits become two pointer tests.
	var psrc, pdst string
	var pent *edgeEntry
	for r := 0; r < j.n; r++ {
		e := pent
		if e == nil || j.srcs[r] != psrc || j.dsts[r] != pdst {
			e = snap.lookupEntry(j.srcs[r], j.dsts[r])
			psrc, pdst, pent = j.srcs[r], j.dsts[r], e
		}
		j.ents[r] = e
	}
	nf := len(snap.Features)
	for lo := 0; lo < j.n; {
		m := j.ents[lo].m
		hi := lo + 1
		for hi < j.n && j.ents[hi].m == m {
			hi++
		}
		code := m.CodeSpace() && m.QuantizeSlab(j.x[lo*nf:hi*nf], j.cx[lo*nf:hi*nf]) == nil
		for r := lo; r < hi; r++ {
			j.coded[r] = code
		}
		lo = hi
	}
}

// shardScratch is one batcher's reusable working storage, so a steady
// flow of jobs batches with zero per-batch allocation.
type shardScratch struct {
	jobs   []*job
	groups []group     // this batch's model table
	runs   []rowRun    // live rows, as runs of one job on one group
	cx     []uint8     // gathered code slab, group-sorted
	xs     [][]float64 // gathered float row views, group-sorted
	out    []float64   // group-sorted results
	cm     []int       // refresh column remap
	rx     []float64   // refresh slab
}

// group is one entry of a batch's model table: every live row served by
// model m on one path (code or float), gathered into the group-sorted
// scratch at [off, off+n).
type group struct {
	m      *gbt.Model
	code   bool
	n, off int
	err    error
}

// rowRun is n consecutive rows of job j, from row r, in group g, gathered
// at slot off of the group-sorted scratch.
type rowRun struct {
	j            *job
	r, n, g, off int
}

// groupOf returns the index of the (m, code) entry in the batch's model
// table, adding it when new. A batch spans at most its registry's
// models, tens of entries, so a linear scan is cheap and allocates
// nothing once the table has grown to its steady size.
func (sc *shardScratch) groupOf(m *gbt.Model, code bool) int {
	for g := range sc.groups {
		if sc.groups[g].m == m && sc.groups[g].code == code {
			return g
		}
	}
	sc.groups = append(sc.groups, group{m: m, code: code})
	return len(sc.groups) - 1
}

// batcherLoop drains one admission shard. The first job of a batch is
// taken blocking; more are coalesced nonblocking until the gathered rows
// reach BatchMax — under singleton load batches fill with many one-row
// jobs and amortize inference, while an idle daemon answers a lone
// request immediately instead of waiting for company.
func (s *Server) batcherLoop(shard chan *job) {
	sc := &shardScratch{jobs: make([]*job, 0, s.cfg.BatchMax)}
	for {
		var j *job
		select {
		case <-s.stop:
			return
		case j = <-shard:
		}
		sc.jobs = append(sc.jobs[:0], j)
		rows := j.n
		for rows < s.cfg.BatchMax {
			select {
			case q := <-shard:
				sc.jobs = append(sc.jobs, q)
				rows += q.n
			default:
				goto full
			}
		}
	full:
		s.mQueueDepth.Set(float64(s.queueLen()))
		s.runJobs(sc)
	}
}

// runJobs answers every gathered job exactly once. The whole batch runs
// against one registry snapshot taken here: a reload promoted after this
// line is picked up by the next batch, and the old snapshot stays valid
// (immutable, atomically swapped) for as long as this batch needs it —
// the mechanism behind zero dropped requests across reloads.
//
// Inference is one path for any mix of models: live rows are
// counting-sorted by (model, path) into the shard scratch, each group is
// walked once — PredictCodesDense over its gathered codes, or
// PredictBatch over its float rows when the model has no code forest —
// and results are scattered back to their jobs.
//
// Panic isolation: a panicking model (or a pool.PanicError rethrown by
// the parallel predictor) is recovered here and converted into an error
// answer for the jobs not yet notified; the batcher survives.
func (s *Server) runJobs(sc *shardScratch) {
	jobs := sc.jobs
	defer func() {
		if v := recover(); v != nil {
			s.cfg.Logf("serve: batch panic: %v", v)
			for _, j := range jobs {
				if !j.notified {
					j.err = fmt.Errorf("batch panic: %v", v)
					j.notify()
				}
			}
		}
	}()

	snap := s.reg.Load()
	nf := len(snap.Features)
	now := time.Now()
	s.mBatches.Inc()

	// Shed the stale, refresh jobs admitted under an older generation,
	// and cut every live job into runs of consecutive rows on one model
	// (and so on one path). Rows' entries and codes are current for this snapshot —
	// set by quantizeJob at admission, or by refreshJob after a reload —
	// so no row needs a second lookup here.
	sc.groups, sc.runs = sc.groups[:0], sc.runs[:0]
	live := 0
	for _, j := range jobs {
		j.gen = snap.Generation
		wait := now.Sub(j.enq)
		j.queueMS = float64(wait) / float64(time.Millisecond)
		s.mQueueWait.Observe(j.queueMS)
		if wait > s.cfg.QueueTimeout {
			j.shed = true
			continue
		}
		if j.areg != snap {
			s.refreshJob(sc, j, snap)
		}
		for lo := 0; lo < j.n; {
			m := j.ents[lo].m
			hi := lo + 1
			for hi < j.n && j.ents[hi].m == m {
				hi++
			}
			g := sc.groupOf(m, j.coded[lo])
			sc.groups[g].n += hi - lo
			sc.runs = append(sc.runs, rowRun{j: j, r: lo, n: hi - lo, g: g})
			lo = hi
		}
		live += j.n
	}
	s.mBatchSize.Observe(float64(live))

	// Counting sort: lay the groups out back to back, then gather each
	// run into its group's next free slots.
	off := 0
	for g := range sc.groups {
		sc.groups[g].off = off
		off += sc.groups[g].n
		sc.groups[g].n = 0
	}
	sc.cx = grow(sc.cx, live*nf)
	sc.xs = grow(sc.xs, live)
	sc.out = grow(sc.out, live)
	for i := range sc.runs {
		ru := &sc.runs[i]
		g := &sc.groups[ru.g]
		ru.off = g.off + g.n
		g.n += ru.n
		if g.code {
			copy(sc.cx[ru.off*nf:], ru.j.cx[ru.r*nf:(ru.r+ru.n)*nf])
		} else {
			for k := 0; k < ru.n; k++ {
				sc.xs[ru.off+k] = ru.j.x[(ru.r+k)*nf : (ru.r+k+1)*nf]
			}
		}
	}

	for i := range sc.groups {
		g := &sc.groups[i]
		out := sc.out[g.off : g.off+g.n]
		if g.code {
			g.err = g.m.PredictCodesDense(sc.cx[g.off*nf:(g.off+g.n)*nf], out)
			s.mRowsCode.Add(int64(g.n))
		} else {
			g.err = g.m.PredictBatch(sc.xs[g.off:g.off+g.n], out)
			s.mRowsFloat.Add(int64(g.n))
		}
	}
	for _, ru := range sc.runs {
		if err := sc.groups[ru.g].err; err != nil {
			ru.j.err = err
		} else {
			copy(ru.j.out[ru.r:ru.r+ru.n], sc.out[ru.off:ru.off+ru.n])
		}
	}
	for _, j := range jobs {
		j.notify()
	}
}

// refreshJob rebases a job admitted under an older registry generation
// onto this batch's snapshot: every column of the new layout is remapped
// by feature name from the old slab (names the new layout does not know
// drop out, exactly like the lenient re-vectorization the map-based
// handoff performed), then the rows are re-quantized against the new
// snapshot's serving models — the code-space twin of the remap.
func (s *Server) refreshJob(sc *shardScratch, j *job, snap *Registry) {
	old := j.areg
	onf, nf := len(old.Features), len(snap.Features)
	sc.cm = grow(sc.cm, nf)
	for c, name := range snap.Features {
		if k, ok := old.nameIdx[name]; ok {
			sc.cm[c] = k
		} else {
			sc.cm[c] = -1
		}
	}
	sc.rx = grow(sc.rx, j.n*nf)
	for r := 0; r < j.n; r++ {
		for c := 0; c < nf; c++ {
			if k := sc.cm[c]; k >= 0 {
				sc.rx[r*nf+c] = j.x[r*onf+k]
			} else {
				sc.rx[r*nf+c] = 0
			}
		}
	}
	j.x = grow(j.x, j.n*nf)
	copy(j.x, sc.rx[:j.n*nf])
	j.cx = grow(j.cx, j.n*nf)
	s.quantizeJob(j, snap)
}
