package main

import (
	"sort"
	"sync"
	"time"
)

// tracer records spans around the benchmark's own calls into each layer:
// name, start, end and the span that caused it, kept in memory until the
// run ends. A nil *tracer (an untraced run) records nothing.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []spanRec
}

type spanRec struct {
	name       string
	parent     int // index into spans, -1 for a root
	start, end time.Duration
}

// span is a handle on one open span; a nil span is a no-op.
type span struct {
	t  *tracer
	id int
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

func (t *tracer) open(name string, parent int) *span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, spanRec{name: name, parent: parent, start: time.Since(t.t0), end: -1})
	return &span{t: t, id: len(t.spans) - 1}
}

// start opens a root span.
func (t *tracer) start(name string) *span { return t.open(name, -1) }

// child opens a span caused by s.
func (s *span) child(name string) *span {
	if s == nil {
		return nil
	}
	return s.t.open(name, s.id)
}

func (s *span) end() {
	if s == nil {
		return
	}
	s.t.mu.Lock()
	s.t.spans[s.id].end = time.Since(s.t.t0)
	s.t.mu.Unlock()
}

// timed runs f inside a child span of s named name.
func (s *span) timed(name string, f func() error) error {
	c := s.child(name)
	defer c.end()
	return f()
}

// selfTimes sums, per span name, each closed span's self time: its
// duration minus the part of that interval its direct children cover.
// Overlapping children (concurrent work) are counted once.
func (t *tracer) selfTimes() map[string]time.Duration {
	out := map[string]time.Duration{}
	if t == nil {
		return out
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	kids := make([][]int, len(t.spans))
	for i, s := range t.spans {
		if s.parent >= 0 {
			kids[s.parent] = append(kids[s.parent], i)
		}
	}
	for i, s := range t.spans {
		if s.end < 0 {
			continue
		}
		var iv [][2]time.Duration
		for _, k := range kids[i] {
			c := t.spans[k]
			if c.end < 0 {
				continue
			}
			lo, hi := max(c.start, s.start), min(c.end, s.end)
			if hi > lo {
				iv = append(iv, [2]time.Duration{lo, hi})
			}
		}
		out[s.name] += s.end - s.start - covered(iv)
	}
	return out
}

// covered returns the total length of the union of intervals.
func covered(iv [][2]time.Duration) time.Duration {
	sort.Slice(iv, func(a, b int) bool { return iv[a][0] < iv[b][0] })
	var total time.Duration
	var curLo, curHi time.Duration
	open := false
	for _, v := range iv {
		switch {
		case !open:
			curLo, curHi, open = v[0], v[1], true
		case v[0] <= curHi:
			curHi = max(curHi, v[1])
		default:
			total += curHi - curLo
			curLo, curHi = v[0], v[1]
		}
	}
	if open {
		total += curHi - curLo
	}
	return total
}
