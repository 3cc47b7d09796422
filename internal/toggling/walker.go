package toggling

import (
	"cmp"
	"math"
	"slices"

	"casq/internal/circuit"
	"casq/internal/device"
	"casq/internal/gates"
)

// HzToRadPerNs converts a calibrated rate in Hz to an angular rate in
// rad/ns.
const HzToRadPerNs = 2 * math.Pi * 1e-9

// Walker is the schedule walk both noisy engines run: the statevector
// simulator (internal/sim) replays it per shot, the stabilizer engine
// (internal/stab) once per compile. It owns one circuit's device-to-angle
// tables, extracts each layer's context and events, and integrates the
// always-on ZZ and Stark Hamiltonian between events into an engine's
// pending Z/ZZ phases. Each engine keeps only its last step: what an event
// does to its state, the parity/quasi-static term, and how pending phases
// leave the accumulator.
//
// Unlike Integrator, which evaluates whole layers in closed form for the
// passes, the walker integrates piecewise between events at rates
// hz*HzToRadPerNs and keeps zero-rate edges, so that an RZZ on any pair has
// an accumulator slot.
type Walker struct {
	// Edges indexes every pair with a ZZ accumulator: the device's NN
	// edges, its NNN edges, then each RZZ pair of the circuit the device
	// does not couple. Omega[i] is edge i's ZZ rate in rad/ns (0 for the
	// RZZ-only pairs); QEdges[q] lists the edges touching qubit q.
	Edges  []device.Edge
	Omega  []float64
	QEdges [][]int
	// Starks are the device's nonzero Stark terms, sorted by (Src, Dst).
	Starks []StarkTerm

	edgeIdx map[device.Edge]int
}

// StarkTerm is the AC Stark shift W (rad/ns) that driving qubit Src
// induces on qubit Dst.
type StarkTerm struct {
	Src, Dst int
	W        float64
}

// EventKind classifies a schedule event.
type EventKind uint8

const (
	EvVirtualZ EventKind = iota // Rz/Z/S/Sdg on Q0: Angle joins Q0's Z phase
	EvRZZ                       // RZZ completion: Angle joins the ZZ phase of Edge
	EvPulse                     // X or Y pi pulse on Q0 (gate, DD or twirl)
	EvGate1Q                    // any other one-qubit gate on Q0
	EvGate2Q                    // start of a two-qubit gate other than RZZ on (Q0, Q1)
	EvEcho                      // echo pi pulse on the control Q0 of a gate on (Q0, Q1)
	EvErr2Q                     // end of a two-qubit gate on (Q0, Q1): its error
	EvMeasure                   // Z measurement of Q0
)

// Event is one point of a layer's schedule where an engine acts.
type Event struct {
	T      float64              // absolute time, ns
	In     *circuit.Instruction // the instruction the event belongs to
	Angle  float64              // EvVirtualZ, EvRZZ
	ErrP   float64              // EvPulse, EvGate1Q, EvErr2Q: depolarizing probability
	Kind   EventKind
	Q0, Q1 int
	Edge   int // EvRZZ: index into Walker.Edges
}

// LayerContext is one scheduled layer as the walk sees it (paper Fig. 3,
// cases I-IV): which qubits are ECR targets under rotary echo, take part in
// an operation, or are driven; which edges are the layer's own gate pairs,
// whose ZZ is calibrated into the gate; and its events in time order,
// simultaneous ones in program order.
type LayerContext struct {
	Start, Dur float64
	Events     []Event
	Rotary     []bool // per qubit
	Active     []bool // per qubit; DD pulses leave a qubit idle
	Driven     []bool // per qubit: a two-qubit gate drives it
	GatePair   []bool // per edge index
}

// Reset rebuilds the walker's tables for circuit c on dev, reusing its
// buffers.
func (w *Walker) Reset(dev *device.Device, c *circuit.Circuit) {
	w.Edges, w.Omega = w.Edges[:0], w.Omega[:0]
	if w.edgeIdx == nil {
		w.edgeIdx = map[device.Edge]int{}
	}
	clear(w.edgeIdx)
	for _, e := range dev.Edges {
		w.addEdge(e, dev.ZZ[e])
	}
	for _, e := range dev.NNNEdges {
		w.addEdge(e, dev.ZZ[e])
	}
	for li := range c.Layers {
		for ii := range c.Layers[li].Instrs {
			if in := &c.Layers[li].Instrs[ii]; in.Gate == gates.RZZ {
				w.addEdge(device.NewEdge(in.Qubits[0], in.Qubits[1]), 0)
			}
		}
	}
	w.QEdges = slices.Grow(w.QEdges[:0], c.NQubits)[:c.NQubits]
	for q := range w.QEdges {
		w.QEdges[q] = w.QEdges[q][:0]
	}
	for i, e := range w.Edges {
		w.QEdges[e.A] = append(w.QEdges[e.A], i)
		w.QEdges[e.B] = append(w.QEdges[e.B], i)
	}
	w.Starks = w.Starks[:0]
	for d, hz := range dev.Stark {
		if hz != 0 {
			w.Starks = append(w.Starks, StarkTerm{d.Src, d.Dst, hz * HzToRadPerNs})
		}
	}
	slices.SortFunc(w.Starks, func(a, b StarkTerm) int {
		return cmp.Or(cmp.Compare(a.Src, b.Src), cmp.Compare(a.Dst, b.Dst))
	})
}

// addEdge indexes an edge with its ZZ rate, keeping the first index of an
// edge seen twice.
func (w *Walker) addEdge(e device.Edge, hz float64) {
	if _, ok := w.edgeIdx[e]; ok {
		return
	}
	w.edgeIdx[e] = len(w.Edges)
	w.Edges = append(w.Edges, e)
	w.Omega = append(w.Omega, hz*HzToRadPerNs)
}

// Layer fills lc with layer l's context and events, reusing lc's buffers.
// A two-qubit gate marks both operands active and driven and its target
// rotary. A pulse-stretched RZZ carries an X2 echo on the control (pulses
// at T/2 and T: spectator couplings average out while the frame returns to
// identity); its angle lands at completion and its error scales with the
// stretch fraction of a full ECR. Every other two-qubit gate emits its
// start, a mid-layer echo on the control (physical for ECR, a ghost for the
// logical-unit gates) and its error at the end. DD pulses leave their qubit
// idle; twirl Paulis carry no gate error (they merge into neighboring
// gates at no cost).
func (w *Walker) Layer(lc *LayerContext, l *circuit.Layer, dev *device.Device) {
	lc.Start, lc.Dur = l.Start, l.Duration
	nq := len(w.QEdges)
	lc.Rotary = append(lc.Rotary[:0], make([]bool, nq)...)
	lc.Active = append(lc.Active[:0], make([]bool, nq)...)
	lc.Driven = append(lc.Driven[:0], make([]bool, nq)...)
	lc.GatePair = append(lc.GatePair[:0], make([]bool, len(w.Edges))...)
	lc.Events = slices.Grow(lc.Events[:0], 4*len(l.Instrs)) // at most four per instruction
	for ii := range l.Instrs {
		in := &l.Instrs[ii]
		switch {
		case in.Gate == gates.Delay || in.Gate == gates.Barrier:
		case in.Gate == gates.Measure:
			lc.Active[in.Qubits[0]] = true
			lc.emit(Event{T: l.Start, Kind: EvMeasure, In: in, Q0: in.Qubits[0]})
		case gates.NumQubits(in.Gate) == 2:
			q0, q1 := in.Qubits[0], in.Qubits[1]
			lc.Active[q0], lc.Active[q1] = true, true
			lc.Driven[q0], lc.Driven[q1] = true, true
			lc.Rotary[q1] = true
			e := device.NewEdge(q0, q1)
			ei, tracked := w.edgeIdx[e]
			if tracked {
				lc.GatePair[ei] = true
			}
			errP := 5e-3
			if p, ok := dev.Err2Q[e]; ok {
				errP = p
			}
			mid, end := l.Start+l.Duration/2, l.Start+l.Duration
			if in.Gate == gates.RZZ {
				lc.emit(Event{T: mid, Kind: EvEcho, In: in, Q0: q0, Q1: q1})
				lc.emit(Event{T: end, Kind: EvEcho, In: in, Q0: q0, Q1: q1})
				lc.emit(Event{T: end, Kind: EvRZZ, In: in, Q0: q0, Q1: q1, Angle: in.Params[0], Edge: ei})
				errP *= min(math.Abs(in.Params[0])/(math.Pi/2), 1)
			} else {
				lc.emit(Event{T: l.Start, Kind: EvGate2Q, In: in, Q0: q0, Q1: q1})
				lc.emit(Event{T: mid, Kind: EvEcho, In: in, Q0: q0, Q1: q1})
			}
			lc.emit(Event{T: end, Kind: EvErr2Q, In: in, Q0: q0, Q1: q1, ErrP: errP})
		default: // one-qubit
			q := in.Qubits[0]
			if in.Tag != "dd" {
				lc.Active[q] = true
			}
			errP := dev.Err1Q[q]
			if in.Tag == "twirl" {
				errP = 0
			}
			ev := Event{T: l.Start + in.Time, Kind: EvVirtualZ, In: in, Q0: q}
			switch in.Gate {
			case gates.ID:
				continue
			case gates.RZ:
				ev.Angle = in.Params[0]
			case gates.ZGate:
				ev.Angle = math.Pi
			case gates.S:
				ev.Angle = math.Pi / 2
			case gates.Sdg:
				ev.Angle = -math.Pi / 2
			case gates.XGate, gates.XDD, gates.YGate:
				ev.Kind, ev.ErrP = EvPulse, errP
			default:
				ev.Kind, ev.ErrP = EvGate1Q, errP
			}
			lc.emit(ev)
		}
	}
	slices.SortStableFunc(lc.Events, func(a, b Event) int { return cmp.Compare(a.T, b.T) })
}

// emit queues one event of the layer, in program order.
func (lc *LayerContext) emit(ev Event) { lc.Events = append(lc.Events, ev) }

// Accumulate integrates the coherent crosstalk Hamiltonian of layer lc over
// dt > 0 ns into the pending phases phiZ (per qubit) and phiZZ (per edge):
// always-on ZZ and its spectator Z terms when zz is set, skipping the
// layer's gate pairs, then Stark shifts from driven qubits onto inactive
// ones when stark is set. A rotary-echoed qubit's terms scale by res, the
// device's rotary residual.
func (w *Walker) Accumulate(lc *LayerContext, phiZ, phiZZ []float64, dt, res float64, zz, stark bool) {
	if zz {
		for i, e := range w.Edges {
			om := w.Omega[i]
			if om == 0 || lc.GatePair[i] {
				continue
			}
			fa, fb := 1.0, 1.0
			if lc.Rotary[e.A] {
				fa = res
			}
			if lc.Rotary[e.B] {
				fb = res
			}
			phiZZ[i] += om * dt * fa * fb
			phiZ[e.A] -= om * dt * fa
			phiZ[e.B] -= om * dt * fb
		}
	}
	if stark {
		for _, st := range w.Starks {
			if !lc.Driven[st.Src] || lc.Active[st.Dst] {
				continue
			}
			f := 1.0
			if lc.Rotary[st.Dst] {
				f = res
			}
			phiZ[st.Dst] += st.W * dt * f
		}
	}
}

// Flip conjugates the pending phases on q through an X or Y pulse
// (Z_q -> -Z_q): q's Z phase and the ZZ phase of every edge touching q
// change sign.
func (w *Walker) Flip(q int, phiZ, phiZZ []float64) {
	phiZ[q] = -phiZ[q]
	for _, ei := range w.QEdges[q] {
		phiZZ[ei] = -phiZZ[ei]
	}
}
