package main

import (
	"context"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// sendFunc issues request i from connection worker w and reports how
// many rows the answer carried; a non-nil error marks the request failed.
type sendFunc func(w, i int) (rows int, err error)

// phaseResult is one load phase's accounting: what was scheduled, sent,
// answered and failed, the latency seen, and — for an open loop — how
// late the generator itself ran.
type phaseResult struct {
	Name      string         `json:"name"`
	Loop      string         `json:"loop"`
	RatePerS  float64        `json:"rate_per_s,omitempty"`
	Conns     int            `json:"conns"`
	Scheduled int            `json:"scheduled"`
	Sent      int            `json:"sent"`
	Succeeded int            `json:"succeeded"`
	Failed    int            `json:"failed"`
	Rows      int64          `json:"rows"`
	ElapsedS  float64        `json:"elapsed_s"`
	Latency   latencySummary `json:"latency"`

	// GenLate* is the generator's own lateness: how long after its due
	// time a request went out although its connection was idle. Waiting
	// for a busy connection is the server's doing and shows in Latency.
	GenLateP99MS float64 `json:"gen_late_p99_ms,omitempty"`
	GenLateMaxMS float64 `json:"gen_late_max_ms,omitempty"`
	GenLimitMS   float64 `json:"gen_limit_ms,omitempty"`
	GenBehind    bool    `json:"gen_behind"`

	// Window* are medians over consecutive windows of WindowS seconds
	// of each window's latency percentiles and rows answered per second.
	// A transient stall moves one window and not the median.
	WindowS      float64   `json:"window_s,omitempty"`
	Windows      int       `json:"windows,omitempty"`
	WindowP50MS  float64   `json:"window_p50_ms,omitempty"`
	WindowP99MS  float64   `json:"window_p99_ms,omitempty"`
	WindowRowsPS float64   `json:"window_rows_per_s,omitempty"`
	WindowP99s   []float64 `json:"window_p99s_ms,omitempty"`
	WindowRates  []float64 `json:"window_rates,omitempty"`

	done []completion
}

// completion is one answered (or failed) request.
type completion struct {
	at   time.Duration // since the phase started
	lat  time.Duration // -1 when the request failed
	rows int
}

// openLoop sends requests on a fixed schedule — request i is due at
// start + i/rate — from conns connections until ctx is done, then sends
// whatever was already due and stops. Latency runs from the due time, so
// a stall delays every request due behind it and all of that wait is
// counted. The generator is behind when its own lateness p99 exceeds
// genLimit.
func openLoop(ctx context.Context, name string, rate float64, conns int, latLimitMS float64, genLimit time.Duration, send sendFunc) phaseResult {
	interval := time.Duration(float64(time.Second) / rate)
	start := time.Now().Add(time.Millisecond)
	var next atomic.Int64
	var end time.Time // set once ctx is done; read only after stopped closes
	stopped := make(chan struct{})
	go func() {
		<-ctx.Done()
		end = time.Now()
		close(stopped)
	}()
	// pastEnd reports whether due falls after the end of the phase.
	pastEnd := func(due time.Time) bool {
		select {
		case <-stopped:
			return due.After(end)
		default:
			return false
		}
	}
	done := make([][]completion, conns)
	late := make([][]time.Duration, conns)
	var wg sync.WaitGroup
	for w := range conns {
		wg.Add(1)
		go func() {
			defer wg.Done()
			timer := time.NewTimer(time.Hour)
			defer timer.Stop()
			for {
				i := int(next.Add(1) - 1)
				due := start.Add(time.Duration(i) * interval)
				if pastEnd(due) {
					return
				}
				idle := false
				if d := time.Until(due); d > 0 {
					idle = true
					timer.Reset(d)
					select {
					case <-timer.C:
					case <-stopped:
						if !timer.Stop() {
							<-timer.C
						}
						if pastEnd(due) {
							return
						}
						time.Sleep(time.Until(due))
					}
				}
				if idle {
					late[w] = append(late[w], time.Since(due))
				}
				rows, err := send(w, i)
				c := completion{at: time.Since(start), lat: time.Since(due), rows: rows}
				if err != nil {
					c.lat = -1
				}
				done[w] = append(done[w], c)
			}
		}()
	}
	wg.Wait() // every worker has seen stopped closed, so end is set
	r := merge(name, "open", conns, done, time.Since(start), latLimitMS)
	r.RatePerS = rate
	if !end.Before(start) {
		r.Scheduled = int(end.Sub(start)/interval) + 1
	}
	var lateMS []float64
	for _, l := range late {
		for _, d := range l {
			lateMS = append(lateMS, float64(d)/float64(time.Millisecond))
		}
	}
	r.GenLimitMS = float64(genLimit) / float64(time.Millisecond)
	if len(lateMS) > 0 {
		sort.Float64s(lateMS)
		r.GenLateP99MS = percentile(lateMS, 99)
		r.GenLateMaxMS = lateMS[len(lateMS)-1]
	}
	r.GenBehind = r.Sent < r.Scheduled || r.GenLateP99MS > r.GenLimitMS
	return r
}

// closedLoop keeps conns connections busy — each sends its next request
// as soon as the previous one is answered — until ctx is done. Latency
// runs from each send.
func closedLoop(ctx context.Context, name string, conns int, latLimitMS float64, send sendFunc) phaseResult {
	start := time.Now()
	var next atomic.Int64
	done := make([][]completion, conns)
	var wg sync.WaitGroup
	for w := range conns {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for ctx.Err() == nil {
				i := int(next.Add(1) - 1)
				sent := time.Now()
				rows, err := send(w, i)
				c := completion{at: time.Since(start), lat: time.Since(sent), rows: rows}
				if err != nil {
					c.lat = -1
				}
				done[w] = append(done[w], c)
			}
		}()
	}
	wg.Wait()
	r := merge(name, "closed", conns, done, time.Since(start), latLimitMS)
	r.Scheduled = r.Sent
	return r
}

func merge(name, loop string, conns int, done [][]completion, elapsed time.Duration, latLimitMS float64) phaseResult {
	r := phaseResult{Name: name, Loop: loop, Conns: conns, ElapsedS: elapsed.Seconds()}
	for _, d := range done {
		r.done = append(r.done, d...)
	}
	sort.Slice(r.done, func(a, b int) bool { return r.done[a].at < r.done[b].at })
	r.Sent = len(r.done)
	r.Latency = summarizeCompletions(r.done, latLimitMS, &r.Failed, &r.Rows)
	r.Succeeded = r.Sent - r.Failed
	return r
}

func summarizeCompletions(cs []completion, latLimitMS float64, failed *int, rows *int64) latencySummary {
	var lat []time.Duration
	nf := 0
	for _, c := range cs {
		if c.lat < 0 {
			nf++
			continue
		}
		lat = append(lat, c.lat)
		*rows += int64(c.rows)
	}
	*failed = nf
	return summarize(lat, nf, latLimitMS)
}

// window fills the Window* fields from the phase's full windows of
// length w; a phase shorter than one window is one window.
func (r *phaseResult) window(w time.Duration, latLimitMS float64) {
	elapsed := time.Duration(r.ElapsedS * float64(time.Second))
	n := int(elapsed / w)
	if n == 0 {
		n, w = 1, elapsed
	}
	buckets := make([][]completion, n)
	for _, c := range r.done {
		if k := int(c.at / w); k < n {
			buckets[k] = append(buckets[k], c)
		}
	}
	var p50, p99, rate []float64
	for _, b := range buckets {
		var failed int
		var rows int64
		s := summarizeCompletions(b, latLimitMS, &failed, &rows)
		p50, p99 = append(p50, s.P50MS), append(p99, s.P99MS)
		rate = append(rate, float64(rows)/w.Seconds())
	}
	r.WindowS, r.Windows, r.WindowP99s, r.WindowRates = w.Seconds(), n, p99, rate
	r.WindowP50MS, r.WindowP99MS, r.WindowRowsPS = median(p50), median(p99), median(rate)
}
