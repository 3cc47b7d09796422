package toggling

import (
	"math"
	"sort"

	"casq/internal/circuit"
	"casq/internal/device"
	"casq/internal/gates"
)

// The map-based reference model: a layer's pulse schedule as per-qubit
// maps, integrated in closed form. Integrator is pinned against it
// (TestIntegratorMatchesIntegrateFiltered); the tests of this package
// state the toggling-frame physics through it.

// QubitSchedule is the pulse activity of one qubit within a layer.
type QubitSchedule struct {
	Pulses []float64 // pulse times relative to layer start, sorted
	Rotary bool      // qubit is the target of an ECR (rotary echo active)
	Active bool      // qubit participates in a gate this layer
}

// LayerModel is the context of one layer as seen by the toggling
// calculation.
type LayerModel struct {
	Duration  float64
	Sched     map[int]*QubitSchedule
	GatePairs map[device.Edge]bool // intra-gate edges, calibrated away
	Driven    map[int]bool         // qubits whose drive Stark-shifts neighbors
}

// BuildLayerModel extracts the pulse/context model from a scheduled layer.
// Two-qubit gates contribute an internal echo pulse on their first operand
// (the control) at mid-layer and a rotary flag on their second operand (the
// target); DD pulses contribute at their recorded offsets. Conditional gates
// are ignored (their execution is data-dependent; CA-EC handles measurement
// layers separately).
func BuildLayerModel(l *circuit.Layer, dev *device.Device) *LayerModel {
	m := &LayerModel{
		Duration:  l.Duration,
		Sched:     map[int]*QubitSchedule{},
		GatePairs: map[device.Edge]bool{},
		Driven:    map[int]bool{},
	}
	get := func(q int) *QubitSchedule {
		if s, ok := m.Sched[q]; ok {
			return s
		}
		s := &QubitSchedule{}
		m.Sched[q] = s
		return s
	}
	for _, in := range l.Instrs {
		if in.Cond != nil {
			continue
		}
		switch {
		case gates.NumQubits(in.Gate) == 2:
			c, t := in.Qubits[0], in.Qubits[1]
			sc, st := get(c), get(t)
			sc.Active, st.Active = true, true
			sc.Pulses = append(sc.Pulses, l.Duration/2) // internal echo
			if in.Gate == gates.RZZ {
				// Pulse-stretched RZZ uses a frame-restoring X2 echo.
				sc.Pulses = append(sc.Pulses, l.Duration)
			}
			st.Rotary = true
			m.GatePairs[device.NewEdge(c, t)] = true
			m.Driven[c] = true
			m.Driven[t] = true
		case in.Gate == gates.XGate || in.Gate == gates.YGate || in.Gate == gates.XDD:
			s := get(in.Qubits[0])
			s.Pulses = append(s.Pulses, in.Time)
			if in.Tag != "dd" && in.Tag != "twirl" {
				s.Active = true
			}
		case in.Gate == gates.Delay || in.Gate == gates.Barrier:
			// no effect
		default:
			// Other 1q gates break the frame; mark active so the pass does
			// not treat the qubit as decoupled idle.
			if len(in.Qubits) == 1 {
				get(in.Qubits[0]).Active = true
			}
		}
	}
	for _, s := range m.Sched {
		sort.Float64s(s.Pulses)
	}
	return m
}

// pairIntegral returns Int_0^T s_a(t) s_b(t) dt (the suffix parities cancel
// pairwise only when both have even pulse counts; the product of suffix
// signs equals the product of prefix signs times both parities).
func pairIntegral(pa, pb []float64, T float64) float64 {
	times := make([]float64, 0, len(pa)+len(pb)+2)
	times = append(times, pa...)
	times = append(times, pb...)
	sort.Float64s(times)
	sa, sb := 1.0, 1.0
	ia, ib := 0, 0
	integral := 0.0
	prev := 0.0
	for _, t := range times {
		integral += sa * sb * (t - prev)
		prev = t
		// Advance whichever schedule pulsed at t (both may).
		for ia < len(pa) && pa[ia] == t {
			sa = -sa
			ia++
		}
		for ib < len(pb) && pb[ib] == t {
			sb = -sb
			ib++
		}
	}
	integral += sa * sb * (T - prev)
	parity := 1.0
	if (len(pa)+len(pb))%2 == 1 {
		parity = -1
	}
	return integral * parity
}

// Result holds the surviving coherent error angles after the layer.
type Result struct {
	PhiZ  map[int]float64         // Rz(theta) error per qubit
	PhiZZ map[device.Edge]float64 // Rzz(theta) error per edge
}

// Integrate computes the surviving error angles of a layer for the device's
// calibrated crosstalk (ZZ and, when includeStark is set, Stark shifts).
// Rates are read in Hz and converted to angular frequencies; durations are
// in ns.
func Integrate(m *LayerModel, dev *device.Device, includeStark bool) Result {
	return IntegrateFiltered(m, dev, includeStark, nil)
}

// IntegrateFiltered is Integrate with an optional edge filter: crosstalk
// edges for which skip returns true contribute nothing (used by CA-EC to
// exclude edges whose effect is handled by measurement-conditioned
// corrections).
func IntegrateFiltered(m *LayerModel, dev *device.Device, includeStark bool, skip func(device.Edge) bool) Result {
	res := Result{PhiZ: map[int]float64{}, PhiZZ: map[device.Edge]float64{}}
	if m.Duration <= 0 {
		return res
	}
	T := m.Duration
	pulsesOf := func(q int) ([]float64, bool, bool) {
		if s, ok := m.Sched[q]; ok {
			return s.Pulses, s.Rotary, s.Active
		}
		return nil, false, false
	}
	const nsToS = 1e-9
	for _, e := range dev.AllCrosstalkEdges() {
		if m.GatePairs[e] || (skip != nil && skip(e)) {
			continue
		}
		w := 2 * math.Pi * dev.ZZ[e] * nsToS
		if w == 0 {
			continue
		}
		pa, rotA, _ := pulsesOf(e.A)
		pb, rotB, _ := pulsesOf(e.B)
		if !rotA && !rotB {
			if zz := w * pairIntegral(pa, pb, T); zz != 0 {
				res.PhiZZ[e] += zz
			}
		}
		if !rotA {
			res.PhiZ[e.A] -= w * signIntegral(pa, T)
		}
		if !rotB {
			res.PhiZ[e.B] -= w * signIntegral(pb, T)
		}
	}
	if includeStark {
		// Sources in ascending order, as Integrator adds them: an idle
		// qubit between two driven neighbors sums its Stark terms in one
		// fixed order, so phiZ is bit-deterministic.
		srcs := make([]int, 0, len(m.Driven))
		for src := range m.Driven {
			srcs = append(srcs, src)
		}
		sort.Ints(srcs)
		for _, src := range srcs {
			for _, nb := range dev.Neighbors(src) {
				pn, rotN, activeN := pulsesOf(nb)
				if activeN || rotN {
					continue
				}
				w := 2 * math.Pi * dev.Stark[device.Directed{Src: src, Dst: nb}] * nsToS
				if w == 0 {
					continue
				}
				res.PhiZ[nb] += w * signIntegral(pn, T)
			}
		}
	}
	// Drop numerically negligible entries so the EC pass does not chase
	// noise-floor angles.
	for q, v := range res.PhiZ {
		if math.Abs(v) < Floor {
			delete(res.PhiZ, q)
		}
	}
	for e, v := range res.PhiZZ {
		if math.Abs(v) < Floor {
			delete(res.PhiZZ, e)
		}
	}
	return res
}
