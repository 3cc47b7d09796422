// Package dd implements the dynamical-decoupling insertion passes: the
// context-unaware baselines (aligned X2 and index-staggered) and the paper's
// Context-Aware DD (Algorithm 1). CA-DD collects jointly-idle windows from
// the schedule, colors them on the device crosstalk graph — with gate
// controls pinned to the echo color and rotary targets unconstrained — and
// dresses each idle qubit with the Walsh–Hadamard sequence of its color, so
// that single-qubit Z and every pairwise ZZ (including NNN collision terms)
// average to zero within the window.
package dd

import (
	"fmt"
	"sort"

	"casq/internal/circuit"
	"casq/internal/device"
	"casq/internal/gates"
	"casq/internal/qgraph"
	"casq/internal/sched"
	"casq/internal/walsh"
)

// Strategy selects the DD insertion policy.
type Strategy int

// Available strategies.
const (
	None Strategy = iota
	// Aligned applies the same X2 sequence (pulses at T/2 and T) to every
	// idle qubit — the conventional context-unaware baseline of Fig. 3c.
	Aligned
	// Staggered alternates two sequences by qubit index parity, ignoring
	// the circuit context (gate echoes, crosstalk graph).
	Staggered
	// ContextAware is Algorithm 1.
	ContextAware
)

func (s Strategy) String() string {
	switch s {
	case None:
		return "none"
	case Aligned:
		return "aligned"
	case Staggered:
		return "staggered"
	case ContextAware:
		return "ca-dd"
	}
	return fmt.Sprintf("Strategy(%d)", int(s))
}

// Options configure the pass.
type Options struct {
	Strategy    Strategy
	MinDuration float64 // ignore idle windows shorter than this (ns)
	MaxColors   int     // palette size; 0 = 8
}

// DefaultOptions uses the context-aware strategy with a 100 ns threshold.
func DefaultOptions() Options {
	return Options{Strategy: ContextAware, MinDuration: 100, MaxColors: 8}
}

// WindowReport records the coloring decision for one window (used by tests,
// the CLI visualization, and the Fig. 5 experiment).
type WindowReport struct {
	Window sched.Window
	Colors map[int]int // qubit -> color (palette index)
	Rows   map[int]int // qubit -> Walsh row
	Pulses int
}

// Report summarizes a DD pass.
type Report struct {
	Windows []WindowReport
	Total   int // total pulses inserted
}

// Insert decorates a scheduled circuit in place with DD pulses according to
// the options, returning a report. The circuit must have been scheduled
// (layer Start/Duration set). Pulses are inserted as XDD instructions tagged
// "dd" carrying their intra-layer time offsets.
func Insert(c *circuit.Circuit, dev *device.Device, opts Options) (Report, error) {
	if opts.Strategy == None {
		return Report{}, nil
	}
	if opts.MaxColors <= 0 {
		opts.MaxColors = 8
	}
	g := dev.CrosstalkGraph()
	windows := sched.CollectJointDelays(c, g, opts.MinDuration)
	windows = splitAtGateLayers(c, windows, opts.MinDuration)
	palette := walsh.Palette(opts.MaxColors)
	// All sequences must share one bin grid for mutual orthogonality.
	nb := 4
	for _, row := range palette {
		if mb := walsh.MinBins(row); mb > nb {
			nb = mb
		}
	}

	s := newInserter(c, g, opts.Strategy, len(palette))
	rep := Report{Windows: make([]WindowReport, 0, len(windows))}
	for _, w := range windows {
		if err := s.colorWindow(w); err != nil {
			return rep, err
		}
		// The report's maps are fresh per window: nothing returned aliases
		// the inserter's scratch.
		wr := WindowReport{Window: w, Colors: make(map[int]int, len(w.Qubits)), Rows: make(map[int]int, len(w.Qubits))}
		clear(s.times)
		s.tbuf = s.tbuf[:0]
		for _, q := range w.Qubits {
			if s.rotary[q] == s.stamp {
				continue
			}
			col := s.colors[q]
			wr.Colors[q] = col
			if col <= 0 {
				continue
			}
			if col >= len(palette) {
				return rep, fmt.Errorf("dd: window at t=%.0f needs color %d beyond palette of %d", w.Start, col, len(palette))
			}
			row := palette[col]
			wr.Rows[q] = row
			// Every qubit of one color shares the window's pulse times.
			if s.times[col] == nil {
				k := len(s.tbuf)
				s.tbuf = walsh.AppendPulseTimes(s.tbuf, row, w.Duration(), nb)
				s.times[col] = s.tbuf[k:]
			}
			for _, t := range s.times[col] {
				if err := s.insertPulse(q, w.Start+t); err != nil {
					return rep, err
				}
				wr.Pulses++
			}
		}
		rep.Total += wr.Pulses
		rep.Windows = append(rep.Windows, wr)
	}
	return rep, nil
}

// inserter is the scratch of one Insert call, indexed by qubit and reused
// window after window.
type inserter struct {
	c        *circuit.Circuit
	g        *qgraph.Graph
	strategy Strategy
	colors   qgraph.Coloring // this window's coloring
	rotary   []int32         // rotary[q] == stamp: q is a rotary target this window
	stamp    int32
	forbid   []uint64    // color 0 barred for every colored (idle) qubit
	times    [][]float64 // per color: this window's pulse times, in tbuf
	tbuf     []float64
	qslab    []int // backing store of the inserted pulses' Qubits
}

func newInserter(c *circuit.Circuit, g *qgraph.Graph, strategy Strategy, colors int) *inserter {
	n := max(c.NQubits, g.N)
	s := &inserter{
		c:        c,
		g:        g,
		strategy: strategy,
		colors:   qgraph.NewColoring(n),
		rotary:   make([]int32, n),
		forbid:   make([]uint64, n),
		times:    make([][]float64, colors),
	}
	for q := range s.forbid {
		s.forbid[q] = 1
	}
	return s
}

// colorWindow assigns a palette color to every window qubit into s.colors;
// the window's rotary targets are those with s.rotary[q] == s.stamp and
// get no color.
func (s *inserter) colorWindow(w sched.Window) error {
	s.stamp++
	switch s.strategy {
	case Aligned:
		for _, q := range w.Qubits {
			s.colors[q] = 1
		}
		return nil
	case Staggered:
		for _, q := range w.Qubits {
			s.colors[q] = 1 + q%2
		}
		return nil
	}
	// Context-aware: pin the ECR controls of layers overlapping the window
	// to the echo color (1) and leave rotary targets unconstrained, exactly
	// as Algorithm 1's ColorGraph seeds the greedy coloring.
	s.colors.Reset()
	for li := range s.c.Layers {
		l := &s.c.Layers[li]
		if l.Start >= w.End || l.Start+l.Duration <= w.Start {
			continue
		}
		for i := range l.Instrs {
			if in := &l.Instrs[i]; gates.NumQubits(in.Gate) == 2 {
				s.colors[in.Qubits[0]] = 1
				s.rotary[in.Qubits[1]] = s.stamp
			}
		}
	}
	// Idle qubits need Z suppression: color 0 (no pulses) is reserved for
	// rotary-protected qubits only ("blue" in the paper).
	qgraph.GreedyColor(s.g, qgraph.DegreeOrder(s.g, w.Qubits), s.colors, s.forbid)
	// Validate only constraints the pass controls: every idle window qubit
	// must differ from all its colored neighbors. Two adjacent *gate
	// controls* share the echo color by physical necessity — that is
	// case IV, which DD cannot fix (the pass leaves it for CA-EC).
	for _, q := range w.Qubits {
		if s.rotary[q] == s.stamp {
			continue
		}
		if nb := s.colors.Conflict(s.g, q); nb >= 0 {
			return fmt.Errorf("dd: idle qubit %d shares color %d with neighbor %d", q, s.colors[q], nb)
		}
	}
	return nil
}

// splitAtGateLayers cuts every window at the boundaries of layers that
// contain two-qubit gates, so that DD sequences stay aligned with the echo
// structure of each gate layer (the per-layer coloring of Fig. 5). Stretches
// of gate-free layers remain merged into long memory-style windows.
func splitAtGateLayers(c *circuit.Circuit, windows []sched.Window, minDur float64) []sched.Window {
	var cuts []float64
	for li := range c.Layers {
		l := &c.Layers[li]
		if l.NumTwoQubitGates() > 0 && l.Duration > 0 {
			cuts = append(cuts, l.Start, l.Start+l.Duration)
		}
	}
	sort.Float64s(cuts)
	out := make([]sched.Window, 0, len(windows))
	for _, w := range windows {
		// The cuts ascend, so each one inside the window ends the piece
		// begun at the previous cut.
		start := w.Start
		for _, cut := range cuts {
			if cut > start && cut < w.End {
				if cut-start >= minDur {
					out = append(out, sched.Window{Qubits: w.Qubits, Start: start, End: cut})
				}
				start = cut
			}
		}
		if w.End-start >= minDur {
			out = append(out, sched.Window{Qubits: w.Qubits, Start: start, End: w.End})
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Start != out[j].Start {
			return out[i].Start < out[j].Start
		}
		return out[i].End < out[j].End
	})
	return out
}

// insertPulse adds an XDD instruction on qubit q at absolute time t,
// locating the layer containing t (boundary pulses go to the earlier
// layer).
func (s *inserter) insertPulse(q int, t float64) error {
	c := s.c
	li := -1
	for i := range c.Layers {
		l := &c.Layers[i]
		if l.Duration <= 0 {
			continue
		}
		if t > l.Start && t <= l.Start+l.Duration {
			li = i
			break
		}
		if t == l.Start && t == 0 {
			li = i
			break
		}
	}
	if li < 0 {
		return fmt.Errorf("dd: no layer contains pulse time %.1f", t)
	}
	l := &c.Layers[li]
	k := len(s.qslab)
	s.qslab = append(s.qslab, q)
	l.Add(circuit.Instruction{
		Gate:   gates.XDD,
		Qubits: s.qslab[k : k+1 : k+1],
		Tag:    "dd",
		Time:   t - l.Start,
	})
	return nil
}
