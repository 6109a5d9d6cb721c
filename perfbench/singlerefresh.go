package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/features"
	"repro/internal/logs"
	"repro/internal/serve"
	"repro/internal/stream"
)

const (
	bootstrapRecords = 4096   // the log prefix stream bootstraps the registry from
	chunkRecords     = 512    // records appended per refresh
	refreshChunks    = 16     // refreshes in phase A; fixed so every run makes the same decisions
	singleRate       = 4000.0 // phase A schedule, requests/s
	singleLimitMS    = 2.0    // latency limit per singleton
)

// refreshState is a stream runner following a CSV log, and the daemon
// serving what it promotes.
type refreshState struct {
	log    *logs.Log
	f      *os.File
	w      *logs.CSVWriter
	next   int // next log record to append
	runner *stream.Runner
	st     *stack
}

func (s *refreshState) close() error {
	err := s.st.close()
	if cerr := s.runner.Tailer.Close(); err == nil {
		err = cerr
	}
	if cerr := s.f.Close(); err == nil {
		err = cerr
	}
	return err
}

// appendChunk writes the next n log records and flushes them to the file.
func (s *refreshState) appendChunk(n int) error {
	for _, r := range s.log.Records[s.next : s.next+n] {
		if err := s.w.Write(&r); err != nil {
			return err
		}
	}
	s.next += n
	return s.w.Flush()
}

// drain tails everything appended so far into the refresher, under
// spans when sp is non-nil. It is Runner.Drain with each Ingest timed.
func (s *refreshState) drain(sp *span) error {
	if sp == nil {
		return s.runner.Drain()
	}
	tail := sp.child("stream.tail_s")
	defer tail.end()
	var ingestErr error
	err := s.runner.Tailer.Drain(func(rec logs.Record) {
		if ingestErr == nil {
			c := tail.child("stream.ingest_s")
			ingestErr = s.runner.Refresher.Ingest(rec)
			c.end()
		}
	})
	return errors.Join(err, ingestErr)
}

// refreshSetup simulates the seed's log, appends its first
// bootstrapRecords records to a CSV log, has a stream runner tail them
// and bootstrap a registry, and boots the daemon on it.
func refreshSetup(ctx context.Context, parent *span, e *env) (*refreshState, error) {
	var l *logs.Log
	if err := parent.timed("simulate.s", func() (err error) { l, _, err = simulateLog(ctx, e.seed); return err }); err != nil {
		return nil, err
	}
	if len(l.Records) < bootstrapRecords+refreshChunks*chunkRecords {
		return nil, fmt.Errorf("log has %d records, need %d", len(l.Records), bootstrapRecords+refreshChunks*chunkRecords)
	}
	logPath := filepath.Join(e.dir, "transfers.csv")
	regPath := filepath.Join(e.dir, "stream-registry.json")
	f, err := os.Create(logPath)
	if err != nil {
		return nil, err
	}
	runner, err := stream.NewRunner(stream.Config{
		Tail: stream.TailConfig{Path: logPath, Format: stream.FormatCSV},
		// The benchmark calls Refresh itself after each chunk, so the
		// ingest cadence never triggers one.
		Refresh: stream.RefreshConfig{RegistryPath: regPath, RefreshEvery: math.MaxInt32},
	})
	if err != nil {
		f.Close()
		return nil, err
	}
	s := &refreshState{log: l, f: f, w: logs.NewCSVWriter(f), runner: runner}
	if err := s.appendChunk(bootstrapRecords); err != nil {
		return nil, errors.Join(err, runner.Tailer.Close(), f.Close())
	}
	if err := s.drain(parent); err != nil {
		return nil, errors.Join(err, runner.Tailer.Close(), f.Close())
	}
	var dec stream.Decision
	if err := parent.timed("stream.refresh_s", func() (err error) { dec, err = runner.Refresher.Refresh(); return err }); err != nil {
		return nil, errors.Join(err, runner.Tailer.Close(), f.Close())
	}
	if dec.Action != "bootstrap" {
		return nil, errors.Join(fmt.Errorf("first refresh was %q, want bootstrap", dec.Action), runner.Tailer.Close(), f.Close())
	}
	if err := parent.timed("serve.boot", func() (err error) { s.st, err = bootStack(regPath); return err }); err != nil {
		return nil, errors.Join(err, runner.Tailer.Close(), f.Close())
	}
	return s, nil
}

// chunkOutcome is one refresh of phase A.
type chunkOutcome struct {
	action string
	busy   time.Duration // log flush until the decision, and the reload when promoted
	first  int           // log index of the chunk's first record
	pred   []float64     // the blessed model's predictions for the chunk, made before it was written
}

// refreshLoop appends refreshChunks chunks on a fixed schedule across
// span d, driving the runner and reloading the daemon on every
// promotion. Each reloaded registry is added to regs.
func refreshLoop(s *refreshState, sp *span, rows []rowInput, start time.Time, d time.Duration, regs map[int64]*serve.Registry, mu *sync.Mutex) ([]chunkOutcome, error) {
	var out []chunkOutcome
	for k := range refreshChunks {
		if wait := time.Until(start.Add(d * time.Duration(k) / refreshChunks)); wait > 0 {
			time.Sleep(wait)
		}
		o := chunkOutcome{first: s.next, pred: make([]float64, chunkRecords)}
		blessed := s.runner.Refresher.Blessed()
		for j := range o.pred {
			var err error
			if o.pred[j], err = blessed.Predict(rows[s.next+j].x); err != nil {
				return out, err
			}
		}
		if err := s.appendChunk(chunkRecords); err != nil {
			return out, err
		}
		flushed := time.Now()
		if err := s.drain(sp); err != nil {
			return out, err
		}
		var dec stream.Decision
		if err := sp.timed("stream.refresh_s", func() (err error) { dec, err = s.runner.Refresher.Refresh(); return err }); err != nil {
			return out, err
		}
		o.action = dec.Action
		if dec.Action == "promote" {
			gen := s.st.srv.Generation()
			if err := sp.timed("serve.reload_s", s.st.srv.Reload); err != nil {
				return out, err
			}
			if got := s.st.srv.Generation(); got != gen+1 {
				return out, fmt.Errorf("reload left generation %d, want %d", got, gen+1)
			}
			mu.Lock()
			regs[gen+1] = s.st.srv.Registry()
			mu.Unlock()
		}
		o.busy = time.Since(flushed)
		out = append(out, o)
	}
	return out, nil
}

func runSingleRefresh(ctx context.Context, e *env) error {
	root := e.tr.start("run")
	defer root.end()
	closeState := func(s *refreshState) error { return s.close() }
	var s *refreshState
	var err error
	if e.tr == nil {
		var setupS float64
		s, setupS, err = setupMedian(setupReps, func() (*refreshState, error) { return refreshSetup(ctx, nil, e) }, closeState)
		e.set("setup_s", setupS)
	} else {
		s, err = tracedSetup(e, root, func(sp *span) (*refreshState, error) { return refreshSetup(ctx, sp, e) }, closeState)
	}
	if err != nil {
		return err
	}
	defer s.close()

	var vecs []features.Vector
	var rows []rowInput
	if err := root.timed("bench.inputs", func() (err error) {
		vecs = features.Engineer(s.log)
		rows, err = makeRows(s.log, vecs)
		return err
	}); err != nil {
		return err
	}
	var regsMu sync.Mutex
	regs := map[int64]*serve.Registry{s.st.srv.Generation(): s.st.srv.Registry()}

	client := newClient()
	defer client.CloseIdleConnections()
	var bufs [conns]bytes.Buffer
	var globalRows atomic.Int64
	smp := &sampler{}
	url := s.st.url + "/predict"
	send := func(w, i int) (int, error) {
		r := i % len(rows)
		if err := post(client, url, "application/json", rows[r].line, &bufs[w]); err != nil {
			return 0, err
		}
		out := bufs[w].Bytes()
		if bytes.Contains(out, globalTag) {
			globalRows.Add(1)
		}
		if i%sampleEvery == 0 {
			if err := smp.add(r, out); err != nil {
				return 0, err
			}
		}
		return 1, nil
	}

	// Phase A: open-loop singletons while the log grows and the stream
	// retrains behind it. It lasts until the last refresh is served, and
	// at least half the run.
	phaseLen := e.seconds / 2
	spA := root.child("phase_a")
	ctxA, cancelA := context.WithCancel(ctx)
	defer cancelA()
	var chunks []chunkOutcome
	var loopErr error
	loopDone := make(chan struct{})
	gc(root)
	startA := time.Now()
	go func() {
		defer close(loopDone)
		defer func() {
			time.Sleep(time.Until(startA.Add(phaseLen)))
			cancelA()
		}()
		chunks, loopErr = refreshLoop(s, spA, rows, startA, phaseLen, regs, &regsMu)
	}()
	a := openLoop(ctxA, "a-open-4000rps-refresh", singleRate, conns, singleLimitMS, genLimit, send)
	<-loopDone
	spA.end()
	if loopErr != nil {
		return loopErr
	}
	gc(root)
	spB := root.child("phase_b")
	b := runPhase(ctx, e.seconds*4/10, func(ctx context.Context) phaseResult {
		return closedLoop(ctx, "b-closed-2conn", conns, singleLimitMS, send)
	})
	spB.end()
	// Each phase A window is one chunk slot, so every window holds one
	// refresh.
	a.window(phaseLen/refreshChunks, singleLimitMS)
	b.window(time.Second, singleLimitMS)
	e.phase(a)
	e.phase(b)
	stats := readServerStats(s.st.metrics)
	_ = root.timed("bench.verify", func() error { verifyServed(e, "single-refresh", smp.got, rows, regs); return nil })
	e.note("phase_a.p99_within_limit", boolNum(a.Latency.P99InLim))

	seq := ""
	var refresh []float64
	var busy time.Duration
	for _, c := range chunks {
		seq += c.action[:1]
		busy += c.busy
		if c.action == "promote" {
			refresh = append(refresh, c.busy.Seconds())
		}
	}
	e.checkDecisions(seq)
	e.note("stream.final_trees", float64(s.runner.Refresher.Blessed().NumTrees()))
	e.note("refresh.samples", float64(len(refresh)))
	rs := s.runner.Refresher.Stats()

	if e.tr != nil {
		e.set("p50_ms", a.WindowP50MS)
		e.set("p99_ms", a.WindowP99MS)
		e.setServerStats(stats)
		e.set("serve.global_share", float64(globalRows.Load())/float64(max(a.Rows+b.Rows, 1)))
		e.set("stream.promotions", float64(rs.Promotions))
		e.set("stream.rejections", float64(rs.Rejections))
		e.set("stream.window_rows", float64(s.runner.Refresher.Window().Len()))
		e.set("gbt.trees", float64(s.runner.Refresher.Blessed().NumTrees()))
		e.set("loadgen.late_p99_ms", a.GenLateP99MS)
		e.set("loadgen.late_max_ms", a.GenLateMaxMS)
		return probeSingletonLayers(ctx, e, root.child("probe"), s.st, rows)
	}

	xgb, lin, err := liveMdAPE(chunks, vecs)
	if err != nil {
		return err
	}
	e.set("wall_s", busy.Seconds())
	e.set("rows_per_s", b.WindowRowsPS)
	e.set("mdape_xgb_pct", xgb)
	e.set("mdape_lr_pct", lin)
	e.set("refresh_p50_s", median(refresh))
	e.set("ok_share", float64(a.Succeeded+b.Succeeded)/float64(max(a.Sent+b.Sent, 1)))
	return nil
}

// checkDecisions requires the promote/reject sequence to be the same on
// every run of this seed in this checkout: the first run records it, the
// later ones compare against it.
func (e *env) checkDecisions(seq string) {
	path := filepath.Join(e.state, fmt.Sprintf("single-refresh-seed%d-chunks%d.decisions", e.seed, refreshChunks))
	want, err := os.ReadFile(path)
	switch {
	case errors.Is(err, os.ErrNotExist):
		err = os.WriteFile(path, []byte(seq), 0o644)
		e.check("refresh decisions recorded", err == nil, "%v", err)
	case err != nil:
		e.check("refresh decisions readable", false, "%v", err)
	default:
		e.check("refresh decisions repeat", string(want) == seq, "this run %q, earlier runs %q", seq, want)
	}
	e.check("refresh promoted at least once", bytes.Contains([]byte(seq), []byte("p")), "decisions %q", seq)
}

// liveMdAPE scores each chunk's transfers, before the stream saw them,
// with the model that was serving and with the paper's linear model
// fitted on the bootstrapRecords transfers before the chunk.
func liveMdAPE(chunks []chunkOutcome, vecs []features.Vector) (xgb, lin float64, err error) {
	var pg, pl, actual []float64
	for _, c := range chunks {
		ds, err := features.Dataset(vecs[max(0, c.first-bootstrapRecords):c.first], false)
		if err != nil {
			return 0, 0, err
		}
		twin, err := linearTwin(ds)
		if err != nil {
			return 0, 0, err
		}
		for j, v := range vecs[c.first : c.first+chunkRecords] {
			l, err := twin(v.Values(false))
			if err != nil {
				return 0, 0, err
			}
			pg, pl, actual = append(pg, c.pred[j]), append(pl, l), append(actual, v.Rate)
		}
	}
	return mdapePct(pg, actual), mdapePct(pl, actual), nil
}
