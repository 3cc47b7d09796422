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

	rep := Report{}
	for _, w := range windows {
		colors, err := colorWindow(c, dev, g, w, opts)
		if err != nil {
			return rep, err
		}
		wr := WindowReport{Window: w, Colors: colors, Rows: map[int]int{}}
		for _, q := range w.Qubits {
			col, ok := colors[q]
			if !ok || col <= 0 {
				continue
			}
			if col >= len(palette) {
				return rep, fmt.Errorf("dd: window at t=%.0f needs color %d beyond palette of %d", w.Start, col, len(palette))
			}
			row := palette[col]
			wr.Rows[q] = row
			times := walsh.PulseTimes(row, w.Duration(), nb)
			for _, t := range times {
				if err := insertPulse(c, q, w.Start+t); err != nil {
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

// colorWindow assigns a palette color to every window qubit.
func colorWindow(c *circuit.Circuit, dev *device.Device, g *qgraph.Graph, w sched.Window, opts Options) (map[int]int, error) {
	colors := map[int]int{}
	switch opts.Strategy {
	case Aligned:
		for _, q := range w.Qubits {
			colors[q] = 1
		}
		return colors, nil
	case Staggered:
		for _, q := range w.Qubits {
			colors[q] = 1 + q%2
		}
		return colors, nil
	}
	// Context-aware: pin concurrent ECR controls to the echo color (1) and
	// leave rotary targets unconstrained, exactly as Algorithm 1's
	// ColorGraph seeds the greedy coloring.
	fixed := qgraph.Coloring{}
	rotary := map[int]bool{}
	for _, gate := range concurrentGates(c, w) {
		fixed[gate.Qubits[0]] = 1
		rotary[gate.Qubits[1]] = true
	}
	forbidden := map[int][]int{}
	for _, q := range w.Qubits {
		// Idle qubits need Z suppression: color 0 (no pulses) is reserved
		// for rotary-protected qubits only ("blue" in the paper).
		forbidden[q] = []int{0}
	}
	order := qgraph.DegreeOrder(g, w.Qubits)
	coloring := qgraph.GreedyColor(g, order, fixed, forbidden)
	for _, q := range w.Qubits {
		if rotary[q] {
			continue
		}
		colors[q] = coloring[q]
	}
	// Validate only constraints the pass controls: every idle window qubit
	// must differ from all its colored neighbors. Two adjacent *gate
	// controls* share the echo color by physical necessity — that is
	// case IV, which DD cannot fix (the pass leaves it for CA-EC).
	for _, q := range w.Qubits {
		if rotary[q] {
			continue
		}
		cq, ok := coloring[q]
		if !ok {
			continue
		}
		for _, nb := range g.Neighbors(q) {
			if cn, ok := coloring[nb]; ok && cn == cq {
				return nil, fmt.Errorf("dd: idle qubit %d shares color %d with neighbor %d", q, cq, nb)
			}
		}
	}
	return colors, nil
}

// concurrentGates returns the two-qubit gates whose layers overlap the
// window in time.
func concurrentGates(c *circuit.Circuit, w sched.Window) []circuit.Instruction {
	var out []circuit.Instruction
	for li := range c.Layers {
		l := &c.Layers[li]
		if l.Start >= w.End || l.Start+l.Duration <= w.Start {
			continue
		}
		for i := range l.Instrs {
			if gates.NumQubits(l.Instrs[i].Gate) == 2 {
				out = append(out, l.Instrs[i])
			}
		}
	}
	return out
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
	var out []sched.Window
	for _, w := range windows {
		pieces := []sched.Window{w}
		for _, cut := range cuts {
			var next []sched.Window
			for _, p := range pieces {
				if cut > p.Start && cut < p.End {
					next = append(next,
						sched.Window{Qubits: p.Qubits, Start: p.Start, End: cut},
						sched.Window{Qubits: p.Qubits, Start: cut, End: p.End})
				} else {
					next = append(next, p)
				}
			}
			pieces = next
		}
		for _, p := range pieces {
			if p.Duration() >= minDur {
				out = append(out, p)
			}
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
func insertPulse(c *circuit.Circuit, q int, t float64) error {
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
	l.Add(circuit.Instruction{
		Gate:   gates.XDD,
		Qubits: []int{q},
		Tag:    "dd",
		Time:   t - l.Start,
	})
	return nil
}
