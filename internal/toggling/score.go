package toggling

import (
	"math"

	"casq/internal/circuit"
	"casq/internal/device"
	"casq/internal/gates"
)

// Integrator evaluates the toggling-frame integrals of one layer at a time
// into per-qubit and per-edge slices, in closed form from each qubit's
// pulse times. It caches the device's crosstalk edge tables and Stark
// adjacency when built, and reuses its pulse scratch from layer to layer,
// so Layer allocates nothing in steady state. Every float accumulates in
// one canonical order — ZZ terms edge by edge in Edges order, then Stark
// terms by ascending source qubit (targets ascending) — so the angles are
// bit-deterministic; the tests pin them bit for bit against a map-based
// reference model (IntegrateFiltered, reference_test.go). The tables are
// read when the Integrator is built; build a new one after recalibrating
// the device. An Integrator is not safe for concurrent use.
type Integrator struct {
	// Edges are the device's crosstalk edges with nonzero ZZ, in
	// AllCrosstalkEdges order (NN, then NNN); W[i] is edge i's angular
	// rate 2*pi*ZZ*1e-9 (rad/ns).
	Edges []device.Edge
	W     []float64
	// PhiZ (per qubit) and PhiZZ (per edge) are the surviving Rz and Rzz
	// error angles of the last integrated layer. Entries below Floor in
	// magnitude are noise-floor terms that the passes ignore.
	PhiZ  []float64
	PhiZZ []float64

	eIdx     map[device.Edge]int
	starkOff []int       // Stark terms of source q: stark[starkOff[q]:starkOff[q+1]]
	stark    []starkTerm // by source, targets ascending

	// Per-layer scratch, reset between layers.
	sched    []qubitScratch
	touched  []int  // qubits with layer state to reset
	gateMask []bool // per edge: intra-gate this layer
	gateHit  []int  // edge indices to reset
	times    []float64
}

// Floor is the magnitude below which an integrated angle is numerical
// noise: the passes and the layout score ignore such entries.
const Floor = 1e-12

type starkTerm struct {
	dst int
	w   float64 // 2*pi*Stark*1e-9
}

// qubitScratch is one qubit's pulse activity within the layer: its pulse
// times, whether it is an ECR target (rotary echo) or takes part in a gate,
// and the driven flag the Stark loop needs.
type qubitScratch struct {
	pulses  []float64
	rotary  bool
	active  bool
	driven  bool
	touched bool
}

// NewIntegrator builds an integrator bound to one device, with per-qubit
// scratch for nQubits qubits (at least the device's).
func NewIntegrator(dev *device.Device, nQubits int) *Integrator {
	n := max(nQubits, dev.NQubits)
	it := &Integrator{
		eIdx:  map[device.Edge]int{},
		sched: make([]qubitScratch, n),
		PhiZ:  make([]float64, n),
	}
	ne := len(dev.Edges) + len(dev.NNNEdges)
	it.Edges, it.W = make([]device.Edge, 0, ne), make([]float64, 0, ne)
	const nsToS = 1e-9
	for _, es := range [][]device.Edge{dev.Edges, dev.NNNEdges} {
		for _, e := range es {
			w := 2 * math.Pi * dev.ZZ[e] * nsToS
			if w == 0 {
				continue
			}
			it.eIdx[e] = len(it.Edges)
			it.Edges = append(it.Edges, e)
			it.W = append(it.W, w)
		}
	}
	it.PhiZZ = make([]float64, len(it.Edges))
	it.gateMask = make([]bool, len(it.Edges))
	// Stark adjacency: each source's NN targets ascending, as
	// dev.Neighbors lists them, in one pass over the edges.
	it.starkOff = make([]int, n+1)
	for _, e := range dev.Edges {
		it.starkOff[e.A+1]++
		it.starkOff[e.B+1]++
	}
	for q := 0; q < n; q++ {
		it.starkOff[q+1] += it.starkOff[q]
	}
	nbs := make([]int, it.starkOff[n])
	fill := append([]int(nil), it.starkOff[:n]...)
	for _, e := range dev.Edges {
		nbs[fill[e.A]], nbs[fill[e.B]] = e.B, e.A
		fill[e.A]++
		fill[e.B]++
	}
	it.stark = make([]starkTerm, 0, len(nbs))
	for src := 0; src < n; src++ {
		lo := it.starkOff[src]
		it.starkOff[src] = len(it.stark)
		seg := nbs[lo:fill[src]]
		sortInts(seg)
		for _, dst := range seg {
			if w := 2 * math.Pi * dev.Stark[device.Directed{Src: src, Dst: dst}] * nsToS; w != 0 {
				it.stark = append(it.stark, starkTerm{dst, w})
			}
		}
	}
	it.starkOff[n] = len(it.stark)
	return it
}

// EdgeIndex returns the index in Edges of the crosstalk edge (a, b).
func (it *Integrator) EdgeIndex(a, b int) (int, bool) {
	i, ok := it.eIdx[device.NewEdge(a, b)]
	return i, ok
}

// Layer integrates one scheduled layer into PhiZ and PhiZZ, Stark terms
// included when includeStark is set. Edges touching a qubit marked in
// collapsed (nil = none) contribute nothing.
// A layer without positive duration leaves every angle zero.
func (it *Integrator) Layer(l *circuit.Layer, includeStark bool, collapsed []bool) {
	it.reset()
	for ii := range l.Instrs {
		in := &l.Instrs[ii]
		if in.Cond != nil {
			continue
		}
		switch {
		case gates.NumQubits(in.Gate) == 2:
			c, t := in.Qubits[0], in.Qubits[1]
			sc, st := it.touch(c), it.touch(t)
			sc.active, st.active = true, true
			sc.pulses = append(sc.pulses, l.Duration/2) // internal echo
			if in.Gate == gates.RZZ {
				sc.pulses = append(sc.pulses, l.Duration)
			}
			st.rotary = true
			sc.driven, st.driven = true, true
			if idx, ok := it.eIdx[device.NewEdge(c, t)]; ok {
				if !it.gateMask[idx] {
					it.gateMask[idx] = true
					it.gateHit = append(it.gateHit, idx)
				}
			}
		case in.Gate == gates.XGate || in.Gate == gates.YGate || in.Gate == gates.XDD:
			q := it.touch(in.Qubits[0])
			q.pulses = append(q.pulses, in.Time)
			if in.Tag != "dd" && in.Tag != "twirl" {
				q.active = true
			}
		case in.Gate == gates.Delay || in.Gate == gates.Barrier:
			// no effect
		default:
			if len(in.Qubits) == 1 {
				it.touch(in.Qubits[0]).active = true
			}
		}
	}
	for _, q := range it.touched {
		sortFloats(it.sched[q].pulses)
	}
	if l.Duration <= 0 {
		return
	}
	T := l.Duration
	for i, e := range it.Edges {
		if it.gateMask[i] || (collapsed != nil && (collapsed[e.A] || collapsed[e.B])) {
			continue
		}
		w := it.W[i]
		a, b := &it.sched[e.A], &it.sched[e.B]
		if !a.rotary && !b.rotary {
			it.PhiZZ[i] = w * it.pairIntegral(a.pulses, b.pulses, T)
		}
		if !a.rotary {
			it.PhiZ[e.A] -= w * signIntegral(a.pulses, T)
		}
		if !b.rotary {
			it.PhiZ[e.B] -= w * signIntegral(b.pulses, T)
		}
	}
	if !includeStark {
		return
	}
	// Stark shifts from driven qubits onto idle neighbors, sources
	// ascending.
	for src := range it.sched {
		if !it.sched[src].driven {
			continue
		}
		for _, st := range it.stark[it.starkOff[src]:it.starkOff[src+1]] {
			nb := &it.sched[st.dst]
			if nb.active || nb.rotary {
				continue
			}
			it.PhiZ[st.dst] += st.w * signIntegral(nb.pulses, T)
		}
	}
}

// Scorer computes the layout stage's exact predicted-error score — the sum
// of |phiZ| and |phiZZ| toggling-frame angles over every layer — on one
// reused Integrator. The layout search exact-scores dozens of candidates
// per Choose call on a worker pool, so the steady-state inner loop here is
// allocation-free (pinned by TestScorerZeroAlloc), and the Integrator's
// canonical accumulation order plus a fixed summation order (edges, then
// qubits ascending) make the score bit-deterministic across runs and
// worker counts.
type Scorer struct {
	it *Integrator
}

// NewScorer builds a scorer bound to one device, caching the crosstalk
// edge tables and Stark adjacency so repeated ScoreCircuit calls allocate
// nothing.
func NewScorer(dev *device.Device) *Scorer {
	return &Scorer{it: NewIntegrator(dev, dev.NQubits)}
}

// ScoreCircuit returns the total predicted coherent error (radians) of a
// scheduled circuit on the scorer's device: per layer, the magnitudes of
// every surviving phiZ and phiZZ angle above the Integrate noise floor,
// Stark included.
func (s *Scorer) ScoreCircuit(c *circuit.Circuit) float64 {
	tot := 0.0
	for i := range c.Layers {
		tot += s.scoreLayer(&c.Layers[i])
	}
	return tot
}

// scoreLayer integrates the layer and sums the magnitudes of its angles.
func (s *Scorer) scoreLayer(l *circuit.Layer) float64 {
	s.it.Layer(l, true, nil)
	if l.Duration <= 0 {
		return 0
	}
	tot := 0.0
	for _, v := range s.it.PhiZZ {
		if math.Abs(v) >= Floor {
			tot += math.Abs(v)
		}
	}
	for _, v := range s.it.PhiZ {
		if math.Abs(v) >= Floor {
			tot += math.Abs(v)
		}
	}
	return tot
}

// touch returns the scratch of q, marking it for reset.
func (it *Integrator) touch(q int) *qubitScratch {
	qs := &it.sched[q]
	if !qs.touched {
		qs.touched = true
		it.touched = append(it.touched, q)
	}
	return qs
}

// reset clears the previous layer's scratch and angles without releasing
// buffers.
func (it *Integrator) reset() {
	for _, q := range it.touched {
		qs := &it.sched[q]
		qs.pulses = qs.pulses[:0]
		qs.rotary, qs.active, qs.driven, qs.touched = false, false, false, false
	}
	it.touched = it.touched[:0]
	for _, i := range it.gateHit {
		it.gateMask[i] = false
	}
	it.gateHit = it.gateHit[:0]
	clear(it.PhiZ)
	clear(it.PhiZZ)
}

// pairIntegral returns Int_0^T s_a(t) s_b(t) dt over a reused merge
// buffer (the product of suffix signs equals the product of prefix signs
// times both parities).
func (it *Integrator) pairIntegral(pa, pb []float64, T float64) float64 {
	it.times = it.times[:0]
	it.times = append(it.times, pa...)
	it.times = append(it.times, pb...)
	sortFloats(it.times)
	sa, sb := 1.0, 1.0
	ia, ib := 0, 0
	integral := 0.0
	prev := 0.0
	for _, t := range it.times {
		integral += sa * sb * (t - prev)
		prev = t
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
	if (len(pa)+len(pb))%2 == 1 {
		return -integral
	}
	return integral
}

// sortInts is an allocation-free insertion sort for short neighbor lists.
func sortInts(x []int) {
	for i := 1; i < len(x); i++ {
		v := x[i]
		j := i - 1
		for j >= 0 && x[j] > v {
			x[j+1] = x[j]
			j--
		}
		x[j+1] = v
	}
}

// sortFloats is an allocation-free insertion sort: pulse lists are tiny
// (a handful of DD/echo pulses), where it beats the generic sort anyway.
func sortFloats(x []float64) {
	for i := 1; i < len(x); i++ {
		v := x[i]
		j := i - 1
		for j >= 0 && x[j] > v {
			x[j+1] = x[j]
			j--
		}
		x[j+1] = v
	}
}
