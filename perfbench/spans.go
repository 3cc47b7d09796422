package main

import (
	"sort"
	"sync"
	"time"
)

// span is one recorded interval. Parent is the index of the enclosing span
// (-1 for a root).
type span struct {
	Name       string
	Parent     int
	Start, End time.Duration
}

func (s span) dur() time.Duration { return s.End - s.Start }

// recorder keeps the spans the benchmark records around its own calls into
// the program's packages. The program's own tracer stays off; these spans
// only bracket exported calls. Safe for concurrent use: executor instances
// report pass spans from their worker goroutines.
type recorder struct {
	epoch time.Time
	mu    sync.Mutex
	spans []span
}

func newRecorder() *recorder { return &recorder{epoch: time.Now()} }

// start opens a span under parent and returns its index.
func (r *recorder) start(name string, parent int) int {
	now := time.Since(r.epoch)
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans = append(r.spans, span{Name: name, Parent: parent, Start: now, End: -1})
	return len(r.spans) - 1
}

// end closes span id and returns its duration.
func (r *recorder) end(id int) time.Duration {
	now := time.Since(r.epoch)
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans[id].End = now
	return r.spans[id].dur()
}

// timed records f as a span and returns its duration.
func (r *recorder) timed(name string, parent int, f func()) time.Duration {
	id := r.start(name, parent)
	f()
	return r.end(id)
}

// snapshot returns a copy of the recorded spans.
func (r *recorder) snapshot() []span {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]span(nil), r.spans...)
}

// selfTimes returns each span's self time: its duration minus the part of
// its interval that its children cover. Children on concurrent lanes may
// overlap each other; the covered part is the union of their intervals, so
// overlapping children are not subtracted twice.
func selfTimes(spans []span) []time.Duration {
	children := make([][]int, len(spans))
	for i, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], i)
		}
	}
	self := make([]time.Duration, len(spans))
	for i, s := range spans {
		ivs := make([][2]time.Duration, 0, len(children[i]))
		for _, c := range children[i] {
			a, b := max(spans[c].Start, s.Start), min(spans[c].End, s.End)
			if b > a {
				ivs = append(ivs, [2]time.Duration{a, b})
			}
		}
		self[i] = s.dur() - unionLength(ivs)
	}
	return self
}

// unionLength is the total length covered by a set of intervals.
func unionLength(ivs [][2]time.Duration) time.Duration {
	sort.Slice(ivs, func(a, b int) bool { return ivs[a][0] < ivs[b][0] })
	var total time.Duration
	var curA, curB time.Duration
	open := false
	for _, iv := range ivs {
		switch {
		case !open:
			curA, curB, open = iv[0], iv[1], true
		case iv[0] <= curB:
			curB = max(curB, iv[1])
		default:
			total += curB - curA
			curA, curB = iv[0], iv[1]
		}
	}
	if open {
		total += curB - curA
	}
	return total
}

// spanSums totals the durations of the spans by name.
func spanSums(spans []span) map[string]time.Duration {
	out := map[string]time.Duration{}
	for _, s := range spans {
		out[s.Name] += s.dur()
	}
	return out
}

// layerSpans are the spans the per-layer metrics are read from.
var layerSpans = map[string]bool{
	spanBuild: true, "pass.twirl": true, "pass.sched": true, "pass.dd": true, "pass.caec": true,
	spanStabComp: true, spanStabRun: true, spanSim: true, spanFit: true, spanCorrel: true, spanLayout: true,
}

// layerShare is the share of span root's wall time that the layer spans
// cover: 1 minus root's self time once every layer span, wherever it
// nests, is counted as a direct child of root. Concurrent pass spans on
// several executor lanes therefore count once. Time no layer span covers
// counts against the share: the executor's own engine work (the layer
// spans time it only in the serial replay of each instance), device
// builds, figure assembly and the replay's bookkeeping.
func layerShare(spans []span, root int) float64 {
	r := spans[root]
	if r.dur() <= 0 {
		return 0
	}
	r.Parent = -1
	flat := []span{r}
	for _, s := range spans {
		if layerSpans[s.Name] {
			s.Parent = 0
			flat = append(flat, s)
		}
	}
	return 1 - float64(selfTimes(flat)[0])/float64(r.dur())
}
