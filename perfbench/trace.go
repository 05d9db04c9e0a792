package main

import (
	"sort"
	"sync"
	"time"
)

// span is one timed call into a layer. Spans of one request share req;
// parent indexes the enclosing span, -1 for a request's root.
type span struct {
	name       string
	req        int
	parent     int
	start, end time.Duration // offsets from the tracer's origin
}

// tracer keeps every span in memory until the run ends.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span and returns its index.
func (t *tracer) begin(name string, req, parent int) int {
	now := time.Since(t.t0)
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{name: name, req: req, parent: parent, start: now, end: -1})
	return len(t.spans) - 1
}

// end closes span i and returns its duration.
func (t *tracer) end(i int) time.Duration {
	now := time.Since(t.t0)
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[i].end = now
	return now - t.spans[i].start
}

// timed runs f inside a span.
func (t *tracer) timed(name string, req, parent int, f func()) time.Duration {
	i := t.begin(name, req, parent)
	f()
	return t.end(i)
}

// selfTimes returns each closed span's self time: its duration minus the
// part of its interval that its children cover. Overlapping children
// count once.
func selfTimes(spans []span) []time.Duration {
	kids := make(map[int][]int)
	for i, s := range spans {
		if s.parent >= 0 {
			kids[s.parent] = append(kids[s.parent], i)
		}
	}
	out := make([]time.Duration, len(spans))
	for i, s := range spans {
		if s.end < 0 {
			continue
		}
		var iv [][2]time.Duration
		for _, k := range kids[i] {
			c := spans[k]
			if c.end < 0 {
				continue
			}
			lo, hi := max(c.start, s.start), min(c.end, s.end)
			if lo < hi {
				iv = append(iv, [2]time.Duration{lo, hi})
			}
		}
		sort.Slice(iv, func(a, b int) bool { return iv[a][0] < iv[b][0] })
		var covered, curLo, curHi time.Duration
		open := false
		for _, x := range iv {
			switch {
			case !open:
				curLo, curHi, open = x[0], x[1], true
			case x[0] <= curHi:
				curHi = max(curHi, x[1])
			default:
				covered += curHi - curLo
				curLo, curHi = x[0], x[1]
			}
		}
		if open {
			covered += curHi - curLo
		}
		out[i] = s.end - s.start - covered
	}
	return out
}
