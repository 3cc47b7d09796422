// Package sched assigns wall-clock timing to layered circuits and extracts
// the jointly-idle windows that the CA-DD pass decorates (paper Algorithm 1,
// function CollectJointDelays): idle periods are collected into groups that
// overlap in time and are adjacent on the crosstalk graph, then recursively
// split at the window holding the largest number of jointly idling qubits.
package sched

import (
	"math"
	"slices"
	"sort"

	"casq/internal/circuit"
	"casq/internal/device"
	"casq/internal/gates"
	"casq/internal/qgraph"
)

// LayerDuration computes the duration of a layer on the given device:
// twirl layers are free (merged into neighboring 1q gates), 1q layers cost
// one 1q gate time, 2q layers cost the ECR duration (or the longest explicit
// delay if they contain only delays), and measurement layers cost the
// measurement time plus the feed-forward latency when conditional gates are
// present downstream of the measurement.
func LayerDuration(l *circuit.Layer, d *device.Device) float64 {
	switch l.Kind {
	case circuit.TwirlLayer:
		return 0
	case circuit.OneQubitLayer:
		dur := 0.0
		hasGate := false
		for _, in := range l.Instrs {
			if in.Gate == gates.Delay {
				if len(in.Params) > 0 && in.Params[0] > dur {
					dur = in.Params[0]
				}
				continue
			}
			// RZ is a virtual frame update (zero duration, zero cost); a
			// layer holding only RZ corrections is free.
			if in.Gate != gates.RZ && in.Gate != gates.ID {
				hasGate = true
			}
			if in.Cond != nil && in.Gate != gates.RZ {
				// Conditional physical gates execute after the feed-forward
				// offset encoded in Time; conditional virtual Rz corrections
				// are free.
				if t := in.Time + d.Dur1Q; t > dur {
					dur = t
				}
			}
		}
		if hasGate && dur < d.Dur1Q {
			dur = d.Dur1Q
		}
		return dur
	case circuit.TwoQubitLayer:
		dur := 0.0
		for _, in := range l.Instrs {
			g := 0.0
			switch {
			case in.Gate == gates.Ucan, in.Gate == gates.SWAP:
				// A canonical gate compiles to 3 CNOT/ECR blocks plus
				// interleaved 1q gates (paper Fig. 1d); a routing SWAP is
				// likewise 3 CNOTs.
				g = 3*d.DurECR + 2*d.Dur1Q
			case in.Gate == gates.RZZ:
				// Pulse-stretched native RZZ (paper Sec. IV B): duration
				// scales with the rotation angle, never exceeding an ECR.
				frac := math.Abs(in.Params[0]) / (math.Pi / 2)
				if frac > 1 {
					frac = 1
				}
				g = d.DurECR * frac
				if g < d.Dur1Q {
					g = d.Dur1Q
				}
			case gates.NumQubits(in.Gate) == 2:
				g = d.DurECR
			case in.Gate == gates.Delay && len(in.Params) > 0:
				g = in.Params[0]
			}
			if g > dur {
				dur = g
			}
		}
		return dur
	case circuit.MeasureLayer:
		return d.DurMeas
	}
	return 0
}

// Schedule assigns Start and Duration to every layer in place (ASAP,
// layer-synchronous). It returns the total circuit duration.
func Schedule(c *circuit.Circuit, d *device.Device) float64 {
	t := 0.0
	for i := range c.Layers {
		l := &c.Layers[i]
		l.Start = t
		l.Duration = LayerDuration(l, d)
		t += l.Duration
	}
	return t
}

// IdleRun is a maximal contiguous interval during which one qubit receives
// no real gate (delays do not interrupt a run; any other instruction,
// including twirl Paulis and DD pulses, does).
type IdleRun struct {
	Qubit      int
	Start, End float64
}

// Duration returns the run length.
func (r IdleRun) Duration() float64 { return r.End - r.Start }

// IdleRuns scans a scheduled circuit and returns all idle runs with
// duration >= minDur, sorted by (qubit, start).
func IdleRuns(c *circuit.Circuit, minDur float64) []IdleRun {
	type state struct {
		open  bool
		start float64
	}
	st := make([]state, c.NQubits)
	var runs []IdleRun
	closeRun := func(q int, end float64) {
		if st[q].open && end-st[q].start >= minDur && end > st[q].start {
			runs = append(runs, IdleRun{Qubit: q, Start: st[q].start, End: end})
		}
		st[q].open = false
	}
	// active[q] == li+1 marks qubit q active in layer li: one slice serves
	// every layer without clearing.
	active := make([]int32, c.NQubits)
	for li := range c.Layers {
		l := &c.Layers[li]
		stamp := int32(li + 1)
		for i := range l.Instrs {
			if in := &l.Instrs[i]; in.Gate != gates.Delay {
				for _, q := range in.Qubits {
					if q >= 0 && q < c.NQubits {
						active[q] = stamp
					}
				}
			}
		}
		for q := 0; q < c.NQubits; q++ {
			if active[q] == stamp {
				closeRun(q, l.Start)
				continue
			}
			if !st[q].open && l.Duration > 0 {
				st[q].open = true
				st[q].start = l.Start
			}
		}
	}
	end := c.TotalDuration()
	for q := 0; q < c.NQubits; q++ {
		closeRun(q, end)
	}
	sort.Slice(runs, func(i, j int) bool {
		if runs[i].Qubit != runs[j].Qubit {
			return runs[i].Qubit < runs[j].Qubit
		}
		return runs[i].Start < runs[j].Start
	})
	return runs
}

// Window is a set of qubits jointly idle over [Start, End] — the unit the
// DD pass colors and decorates.
type Window struct {
	Qubits     []int
	Start, End float64
}

// Duration returns the window length.
func (w Window) Duration() float64 { return w.End - w.Start }

func overlap(a, b IdleRun) bool { return a.Start < b.End && b.Start < a.End }

// groupRuns greedily collects runs that overlap in time and whose qubits are
// adjacent on g into connected groups (Algorithm 1, line 8).
func groupRuns(runs []IdleRun, g *qgraph.Graph) [][]IdleRun {
	n := len(runs)
	parent := make([]int, n)
	for i := range parent {
		parent[i] = i
	}
	var find func(int) int
	find = func(x int) int {
		if parent[x] != x {
			parent[x] = find(parent[x])
		}
		return parent[x]
	}
	union := func(a, b int) { parent[find(a)] = find(b) }
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if !overlap(runs[i], runs[j]) {
				continue
			}
			qi, qj := runs[i].Qubit, runs[j].Qubit
			if qi == qj || g.HasEdge(qi, qj) {
				union(i, j)
			}
		}
	}
	// Groups in ascending root order, each holding its runs in input order,
	// carved from one slab.
	order := make([]int, n)
	root := make([]int, n)
	for i := range order {
		order[i], root[i] = i, find(i)
	}
	slices.SortFunc(order, func(a, b int) int {
		if root[a] != root[b] {
			return root[a] - root[b]
		}
		return a - b
	})
	slab := make([]IdleRun, n)
	var out [][]IdleRun
	start := 0
	for k, i := range order {
		slab[k] = runs[i]
		if k+1 == n || root[order[k+1]] != root[i] {
			out = append(out, slab[start:k+1:k+1])
			start = k + 1
		}
	}
	return out
}

// splitter is the scratch of one CollectJointDelays call. Each recursion
// level of split appends its cells, cell qubits and clipped runs past the
// levels above it and truncates them again when done. Window qubit lists
// are carved from qs, which only grows, so the windows returned alias no
// reused memory.
type splitter struct {
	minDur float64
	out    []Window
	bounds []float64
	cells  []cell
	cellQs []int
	runs   []IdleRun
	qs     []int
}

// cell is one elementary interval of a group with the qubits idle over it
// (cellQs[lo:hi], ascending).
type cell struct {
	start, end float64
	lo, hi     int
}

// split recursively extracts windows from a group: it finds the elementary
// time interval combination with the largest number of jointly idle qubits
// (ties broken by duration), emits it as a window, clips the remaining run
// pieces, and recurses (Algorithm 1, lines 10-18).
func (s *splitter) split(group []IdleRun) {
	if len(group) == 0 {
		return
	}
	// Elementary boundaries.
	b0 := len(s.bounds)
	for _, r := range group {
		s.bounds = append(s.bounds, r.Start, r.End)
	}
	bounds := s.bounds[b0:]
	slices.Sort(bounds)
	bounds = slices.Compact(bounds)
	c0, q0 := len(s.cells), len(s.cellQs)
	for i := 0; i+1 < len(bounds); i++ {
		mid := (bounds[i] + bounds[i+1]) / 2
		lo := len(s.cellQs)
		for _, r := range group {
			if r.Start <= mid && mid < r.End {
				s.cellQs = append(s.cellQs, r.Qubit)
			}
		}
		if len(s.cellQs) > lo {
			slices.Sort(s.cellQs[lo:])
			s.cells = append(s.cells, cell{bounds[i], bounds[i+1], lo, len(s.cellQs)})
		}
	}
	s.bounds = s.bounds[:b0]
	cells := s.cells[c0:]
	if len(cells) == 0 {
		return
	}
	// Merge adjacent cells with identical qubit sets.
	merged := cells[:1]
	for _, c := range cells[1:] {
		last := &merged[len(merged)-1]
		if c.start == last.end && slices.Equal(s.cellQs[c.lo:c.hi], s.cellQs[last.lo:last.hi]) {
			last.end = c.end
			continue
		}
		merged = append(merged, c)
	}
	// Pick the best window: most qubits, then longest.
	best := 0
	for i, c := range merged[1:] {
		b := merged[best]
		if c.hi-c.lo > b.hi-b.lo ||
			(c.hi-c.lo == b.hi-b.lo && c.end-c.start > b.end-b.start) {
			best = i + 1
		}
	}
	w := merged[best]
	if w.end-w.start >= s.minDur {
		k := len(s.qs)
		s.qs = append(s.qs, s.cellQs[w.lo:w.hi]...)
		s.out = append(s.out, Window{Qubits: s.qs[k:len(s.qs):len(s.qs)], Start: w.start, End: w.end})
	}
	s.cells, s.cellQs = s.cells[:c0], s.cellQs[:q0]
	// Split remaining run pieces strictly before/after the chosen window and
	// recurse on each side.
	r0 := len(s.runs)
	for _, r := range group {
		if r.Start < w.start {
			e := r.End
			if e > w.start {
				e = w.start
			}
			if e-r.Start >= s.minDur {
				s.runs = append(s.runs, IdleRun{r.Qubit, r.Start, e})
			}
		}
	}
	r1 := len(s.runs)
	for _, r := range group {
		if r.End > w.end {
			st := r.Start
			if st < w.end {
				st = w.end
			}
			if r.End-st >= s.minDur {
				s.runs = append(s.runs, IdleRun{r.Qubit, st, r.End})
			}
		}
	}
	r2 := len(s.runs)
	s.split(s.runs[r0:r1:r1])
	s.split(s.runs[r1:r2:r2])
	s.runs = s.runs[:r0]
}

// CollectJointDelays implements Algorithm 1's CollectJointDelays: it
// extracts idle runs of at least minDur, groups them by crosstalk adjacency
// and temporal overlap, and recursively splits each group into windows of
// jointly idle qubits. Windows are returned sorted by start time.
func CollectJointDelays(c *circuit.Circuit, g *qgraph.Graph, minDur float64) []Window {
	runs := IdleRuns(c, minDur)
	s := &splitter{minDur: minDur}
	for _, grp := range groupRuns(runs, g) {
		s.split(grp)
	}
	out := s.out
	sort.Slice(out, func(i, j int) bool {
		if out[i].Start != out[j].Start {
			return out[i].Start < out[j].Start
		}
		return out[i].End < out[j].End
	})
	return out
}

// LayerAt returns the index of the layer whose half-open interval
// [Start, Start+Duration) contains time t, preferring layers with positive
// duration; -1 if none.
func LayerAt(c *circuit.Circuit, t float64) int {
	for i := range c.Layers {
		l := &c.Layers[i]
		if l.Duration <= 0 {
			continue
		}
		if t >= l.Start && t < l.Start+l.Duration {
			return i
		}
	}
	// A pulse exactly at the very end of the circuit belongs to the last
	// timed layer.
	for i := len(c.Layers) - 1; i >= 0; i-- {
		l := &c.Layers[i]
		if l.Duration > 0 && t >= l.Start && t <= l.Start+l.Duration {
			return i
		}
	}
	return -1
}
