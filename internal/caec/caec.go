// Package caec implements Context-Aware Error Compensation (paper
// Algorithm 2). The pass walks a scheduled, twirled (and possibly
// DD-decorated) circuit layer by layer, computes the coherent Z/ZZ error
// that survives each layer from the device calibration and the layer's
// pulse context (via the toggling-frame integrals), and then:
//
//   - Z errors are compensated immediately with virtual Rz corrections —
//     free on hardware, inserted as zero-duration correction layers;
//   - ZZ errors accumulate in a compensation dictionary that is commuted
//     through twirl layers (sign flips when the twirl Paulis anticommute
//     with ZZ) and absorbed into downstream two-qubit gates at no cost when
//     they are RZZ or Ucan rotations (gamma -> gamma - theta/2) or CX
//     (which converts the ZZ into a free virtual Rz on the target);
//   - compensations that cannot be absorbed are materialized as
//     pulse-stretched native RZZ gates (short duration, proportionally
//     small error), or — next to a mid-circuit measurement — as
//     measurement-conditioned virtual Rz corrections appended to the
//     feed-forward operation (paper Fig. 9).
package caec

import (
	"fmt"
	"math"

	"casq/internal/circuit"
	"casq/internal/device"
	"casq/internal/gates"
	"casq/internal/sched"
	"casq/internal/toggling"
)

// Options configure the pass.
type Options struct {
	IncludeStark bool
	// AbsorbOnly prevents materializing explicit RZZ corrections; pending
	// ZZ compensations that cannot be absorbed are dropped (counted in
	// Stats.Dropped).
	AbsorbOnly bool
	// MinAngle ignores compensation angles below this threshold (radians).
	MinAngle float64
	// MaterializeMin is the smallest pending ZZ angle (radians) worth an
	// explicit pulse-stretched RZZ correction gate. Compensations below it
	// that cannot be absorbed for free are dropped: the correction gate's
	// own error and the idle window it opens on the rest of the device
	// would cost more than the residual coherent error it removes. Zero
	// materializes everything (exact coherent cancellation).
	MaterializeMin float64
	// FFTime is the feed-forward duration (ns) the compiler assumes when
	// computing measurement-conditioned corrections; < 0 means use the
	// device calibration (DurFF). The Fig. 9 experiment scans this value.
	FFTime float64
}

// DefaultOptions enables Stark compensation and native-RZZ materialization
// for pending angles above ~0.1 rad.
func DefaultOptions() Options {
	return Options{IncludeStark: true, MinAngle: 1e-9, MaterializeMin: 0.1, FFTime: -1}
}

// Stats reports what the pass did.
type Stats struct {
	VirtualRZ     int // free virtual Rz corrections inserted
	AbsorbedUcan  int // ZZ compensations absorbed into Ucan/RZZ angles
	AbsorbedCX    int // ZZ compensations converted to virtual Rz through CX
	InsertedRZZ   int // pulse-stretched native RZZ corrections materialized
	Conditional   int // measurement-conditioned corrections appended
	SignFlips     int // compensation sign flips through twirl Paulis
	Dropped       int
	DroppedAngles float64
}

// Apply runs CA-EC over the circuit, returning a new compiled circuit
// (rescheduled) and statistics. The input must be scheduled.
func Apply(c *circuit.Circuit, dev *device.Device, opts Options) (*circuit.Circuit, Stats, error) {
	if opts.MinAngle <= 0 {
		opts.MinAngle = 1e-9
	}
	n := max(c.NQubits, dev.NQubits)
	it := toggling.NewIntegrator(dev, n)
	ne := len(it.Edges)
	p := &pass{
		dev:      dev,
		opts:     opts,
		out:      circuit.New(c.NQubits, c.NCBits),
		it:       it,
		comp:     make([]float64, ne),
		pending:  make([]bool, ne),
		seen:     make([]bool, ne),
		gateAt:   make([]int, ne),
		gateMark: make([]int32, ne),
		roles:    make([]role, n),
		mark:     make([]int32, n),
		zAcc:     make([]float64, n),
		zHas:     make([]bool, n),
	}
	p.out.Layers = make([]circuit.Layer, 0, 2*len(c.Layers)+1)
	for li := range c.Layers {
		if err := p.processLayer(&c.Layers[li]); err != nil {
			return nil, p.stats, fmt.Errorf("caec: layer %d: %w", li, err)
		}
	}
	// Materialize anything still pending at the end of the circuit. Each
	// correction layer idles the rest of the device briefly and can leave
	// new (much smaller) pending terms; a few rounds converge.
	for iter := 0; iter < 3 && p.nPending > 0; iter++ {
		p.materializePending(p.pendingList())
	}
	sched.Schedule(p.out, dev)
	return p.out, p.stats, nil
}

// pass is the state of one Apply call. Its slices are scratch indexed by
// qubit or by crosstalk edge (the integrator's Edges order), reused layer
// after layer; nothing in the returned circuit aliases them.
type pass struct {
	dev   *device.Device
	opts  Options
	out   *circuit.Circuit
	it    *toggling.Integrator
	stats Stats

	// The compensation dictionary: pending[i] says edge i holds a pending
	// ZZ *error* angle comp[i] (possibly zero); nPending counts them.
	// Walks over it go in edge order, so float sums over edges
	// (Stats.DroppedAngles) are bit-deterministic.
	comp     []float64
	pending  []bool
	nPending int

	// Per-layer marks: an entry is current when it holds this layer's
	// stamp, so nothing is cleared between layers.
	stamp    int32
	gateAt   []int   // per edge: index in the layer of the gate on it
	gateMark []int32 // per edge: stamp of the layer gateAt refers to
	roles    []role  // per qubit: operand role in the current gate layer
	mark     []int32 // per qubit: twirl flips, or used by a packed RZZ

	collapsed []bool // qubits already measured mid-circuit; nil before any

	// Z corrections being merged into one virtual-Rz layer.
	zAcc []float64
	zHas []bool
	zQs  []int

	// processTwoQubitLayer's state: the edges pending before resolution,
	// the CX-converted Z corrections due after the layer, and the edges to
	// materialize before it (also reused for other edge lists).
	seen   []bool
	afterZ []zCorr
	must   []int
	work   []int // materializePending's packing queue
}

// role is a qubit's operand role in the two-qubit gate layer of stamp.
type role struct {
	kind  gates.Kind
	first bool
	stamp int32
}

// nextStamp starts a new round of marks.
func (p *pass) nextStamp() int32 {
	p.stamp++
	return p.stamp
}

func (p *pass) isCollapsed(q int) bool { return p.collapsed != nil && p.collapsed[q] }

// addPending adds a ZZ error angle to edge i's pending compensation.
func (p *pass) addPending(i int, theta float64) {
	if !p.pending[i] {
		p.pending[i] = true
		p.nPending++
	}
	p.comp[i] += theta
}

// dropPending removes edge i's pending compensation.
func (p *pass) dropPending(i int) {
	if p.pending[i] {
		p.pending[i] = false
		p.nPending--
	}
	p.comp[i] = 0
}

// pendingList lists the pending edges in edge order.
func (p *pass) pendingList() []int {
	p.must = p.must[:0]
	for i, ok := range p.pending {
		if ok {
			p.must = append(p.must, i)
		}
	}
	return p.must
}

func (p *pass) processLayer(l *circuit.Layer) error {
	switch l.Kind {
	case circuit.TwirlLayer:
		p.commuteThroughTwirl(l)
		p.out.Layers = append(p.out.Layers, l.Clone())
		return nil
	case circuit.OneQubitLayer:
		p.out.Layers = append(p.out.Layers, l.Clone())
		p.emitLayerErrors(l)
		return nil
	case circuit.TwoQubitLayer:
		return p.processTwoQubitLayer(l)
	case circuit.MeasureLayer:
		return p.processMeasureLayer(l)
	}
	p.out.Layers = append(p.out.Layers, l.Clone())
	return nil
}

// commuteThroughTwirl moves the pending ZZ compensations past a twirl
// layer: the sign flips iff exactly one endpoint's Pauli anticommutes with
// Z (paper Fig. 1d).
func (p *pass) commuteThroughTwirl(l *circuit.Layer) {
	flip := p.nextStamp()
	for i := range l.Instrs {
		if in := &l.Instrs[i]; in.Gate == gates.XGate || in.Gate == gates.YGate {
			p.mark[in.Qubits[0]] = flip
		}
	}
	for i, e := range p.it.Edges {
		if !p.pending[i] || p.comp[i] == 0 {
			continue
		}
		if (p.mark[e.A] == flip) != (p.mark[e.B] == flip) {
			p.comp[i] = -p.comp[i]
			p.stats.SignFlips++
		}
	}
}

// processTwoQubitLayer first resolves pending ZZ compensations against the
// layer's gates (absorb, convert, or materialize), then appends the layer
// and accounts for the new errors it generates.
func (p *pass) processTwoQubitLayer(l *circuit.Layer) error {
	nl := l.Clone()
	stamp := p.nextStamp()
	for i := range nl.Instrs {
		in := &nl.Instrs[i]
		if gates.NumQubits(in.Gate) != 2 {
			continue
		}
		// Operand roles: qubit -> (gate kind, operand index).
		p.roles[in.Qubits[0]] = role{in.Gate, true, stamp}
		p.roles[in.Qubits[1]] = role{in.Gate, false, stamp}
		if e, ok := p.it.EdgeIndex(in.Qubits[0], in.Qubits[1]); ok {
			p.gateAt[e], p.gateMark[e] = i, stamp
		}
	}
	p.afterZ = p.afterZ[:0]

	copy(p.seen, p.pending)
	p.must = p.must[:0]
	for i := range p.it.Edges {
		if !p.seen[i] {
			continue
		}
		theta := p.comp[i]
		if math.Abs(theta) < p.opts.MinAngle {
			p.dropPending(i)
			continue
		}
		if p.resolve(&nl, stamp, i, theta) {
			continue
		}
		sign, blocked := p.classify(stamp, p.it.Edges[i])
		if blocked {
			p.must = append(p.must, i)
			continue
		}
		if sign < 0 {
			p.comp[i] = -theta
			p.stats.SignFlips++
		}
	}
	p.materializePending(p.must)
	// The correction layers just inserted idle the rest of the device for a
	// short window and may have produced new (small) pending terms that also
	// sit before this gate layer. Give them the same treatment, but drop
	// blocked ones instead of recursing into further correction layers.
	for i := range p.it.Edges {
		if !p.pending[i] || p.seen[i] {
			continue
		}
		theta := p.comp[i]
		if math.Abs(theta) < p.opts.MinAngle {
			p.dropPending(i)
			continue
		}
		if p.resolve(&nl, stamp, i, theta) {
			continue
		}
		sign, blocked := p.classify(stamp, p.it.Edges[i])
		if blocked {
			p.stats.Dropped++
			p.stats.DroppedAngles += math.Abs(theta)
			p.dropPending(i)
			continue
		}
		if sign < 0 {
			p.comp[i] = -theta
			p.stats.SignFlips++
		}
	}

	p.out.Layers = append(p.out.Layers, nl)
	p.emitLayerErrors(l)
	for _, z := range p.afterZ {
		p.addZ(z.q, z.errAngle)
	}
	p.flushZ()
	return nil
}

// classify decides what happens to a pending Rzz on edge e as it meets the
// gate layer marked with stamp: carried through (sign-conjugated by the
// ideal gates: ECR flips Z on its control, CX/RZZ preserve it); or blocked
// (gate targets and Ucan operands turn ZZ into non-diagonal operators) and
// hence materialized before the layer.
func (p *pass) classify(stamp int32, e device.Edge) (carrySign float64, blocked bool) {
	carrySign = 1
	for _, q := range [2]int{e.A, e.B} {
		r := p.roles[q]
		if r.stamp != stamp {
			continue
		}
		switch {
		case r.kind == gates.RZZ:
			// diagonal: commutes on either operand
		case r.kind == gates.Ucan:
			blocked = true
		case r.first: // control of ECR/CX/ZX/SWAP
			switch r.kind {
			case gates.ECR:
				carrySign = -carrySign // ECR Z_c ECR^dag = -Z_c
			case gates.CX:
				// CX preserves Z on its control
			default:
				blocked = true
			}
		default: // target of ECR/CX/...: Z_t maps to a non-local Pauli
			blocked = true
		}
	}
	return carrySign, blocked
}

// resolve absorbs a pending Rzz on edge i into the gate of nl on the same
// edge when that gate can take it for free.
func (p *pass) resolve(nl *circuit.Layer, stamp int32, i int, theta float64) (done bool) {
	if p.gateMark[i] != stamp {
		return false
	}
	in := &nl.Instrs[p.gateAt[i]]
	switch in.Gate {
	case gates.Ucan:
		_, _, g := gates.AbsorbRzzIntoUcan(in.Params[0], in.Params[1], in.Params[2], theta)
		in.Params[2] = g
		p.stats.AbsorbedUcan++
	case gates.RZZ:
		in.Params[0] = gates.AbsorbRzzIntoRzz(in.Params[0], theta)
		p.stats.AbsorbedUcan++
	case gates.CX:
		// CX . Rzz(theta) = (I x Rz(theta)) . CX: the pending ZZ becomes a
		// free virtual Rz on the target after the gate.
		p.afterZ = append(p.afterZ, zCorr{q: in.Qubits[1], errAngle: theta})
		p.stats.AbsorbedCX++
	default:
		return false
	}
	p.dropPending(i)
	return true
}

type zCorr struct {
	q        int
	errAngle float64 // accumulated *error* angle; correction is its negative
}

// emitLayerErrors computes the surviving coherent error of the layer via
// the toggling integrals, immediately compensates the Z part with a virtual
// Rz layer, and adds the ZZ part to the pending dictionary. Edges touching
// a collapsed (measured) qubit are handled once, by the
// measurement-conditioned corrections, and are excluded here.
func (p *pass) emitLayerErrors(l *circuit.Layer) {
	if l.Duration <= 0 {
		return
	}
	p.it.Layer(l, p.opts.IncludeStark, p.collapsed)
	for q, phi := range p.it.PhiZ {
		if math.Abs(phi) < toggling.Floor || p.isCollapsed(q) {
			continue
		}
		p.addZ(q, phi)
	}
	p.flushZ()
	for i, phi := range p.it.PhiZZ {
		if math.Abs(phi) < toggling.Floor {
			continue
		}
		p.addPending(i, phi)
	}
}

// addZ adds an error angle to qubit q's next virtual-Rz correction.
func (p *pass) addZ(q int, errAngle float64) {
	if !p.zHas[q] {
		p.zHas[q] = true
		p.zQs = append(p.zQs, q)
	}
	p.zAcc[q] += errAngle
}

// flushZ appends a zero-duration virtual-Rz layer undoing the error angles
// added since the last flush, one correction per qubit in ascending order.
func (p *pass) flushZ() {
	sortInts(p.zQs)
	var corr *circuit.Layer
	var qs []int
	var ps []float64
	for _, q := range p.zQs {
		angle := p.zAcc[q]
		p.zAcc[q], p.zHas[q] = 0, false
		if math.Abs(angle) < p.opts.MinAngle {
			continue
		}
		if corr == nil {
			n := len(p.zQs)
			p.out.Layers = append(p.out.Layers, circuit.Layer{Kind: circuit.OneQubitLayer, Instrs: make([]circuit.Instruction, 0, n)})
			corr = &p.out.Layers[len(p.out.Layers)-1]
			qs, ps = make([]int, 0, n), make([]float64, 0, n)
		}
		// Each qubit is corrected once, so the layer stays disjoint.
		k := len(qs)
		qs, ps = append(qs, q), append(ps, -angle)
		corr.Instrs = append(corr.Instrs, circuit.Instruction{
			Gate:   gates.RZ,
			Qubits: qs[k : k+1 : k+1],
			Params: ps[k : k+1 : k+1],
			Tag:    "ec",
		})
		p.stats.VirtualRZ++
	}
	p.zQs = p.zQs[:0]
}

func sortInts(xs []int) {
	for i := 1; i < len(xs); i++ {
		for j := i; j > 0 && xs[j-1] > xs[j]; j-- {
			xs[j-1], xs[j] = xs[j], xs[j-1]
		}
	}
}

// materializePending inserts pulse-stretched native RZZ corrections for the
// listed edges, packing disjoint edges into shared layers. edges may alias
// p.must; it is consumed before any layer is emitted.
func (p *pass) materializePending(edges []int) {
	work := p.work[:0]
	for _, i := range edges {
		theta := p.comp[i]
		if math.Abs(theta) < p.opts.MinAngle {
			p.dropPending(i)
			continue
		}
		if p.opts.AbsorbOnly || math.Abs(theta) < p.opts.MaterializeMin {
			p.stats.Dropped++
			p.stats.DroppedAngles += math.Abs(theta)
			p.dropPending(i)
			continue
		}
		work = append(work, i)
	}
	// Greedy pack into layers of disjoint edges, deterministically ordered.
	for len(work) > 0 {
		p.sortEdges(work)
		used := p.nextStamp()
		layer := circuit.Layer{Kind: circuit.TwoQubitLayer, Instrs: make([]circuit.Instruction, 0, len(work))}
		qs, ps := make([]int, 0, 2*len(work)), make([]float64, 0, len(work))
		rest := work[:0]
		for _, i := range work {
			e := p.it.Edges[i]
			if p.mark[e.A] == used || p.mark[e.B] == used {
				rest = append(rest, i)
				continue
			}
			p.mark[e.A], p.mark[e.B] = used, used
			k := len(ps)
			qs, ps = append(qs, e.A, e.B), append(ps, -p.comp[i])
			layer.Instrs = append(layer.Instrs, circuit.Instruction{
				Gate:   gates.RZZ,
				Qubits: qs[2*k : 2*k+2 : 2*k+2],
				Params: ps[k : k+1 : k+1],
				Tag:    "ec",
			})
			p.stats.InsertedRZZ++
			p.dropPending(i)
		}
		// The correction layer has nonzero duration itself, so the rest of
		// the device idles (and accumulates error) while it runs; account
		// for that too.
		layer.Duration = sched.LayerDuration(&layer, p.dev)
		p.out.Layers = append(p.out.Layers, layer)
		p.emitLayerErrors(&p.out.Layers[len(p.out.Layers)-1])
		work = rest
	}
	p.work = work
}

// sortEdges orders edge indices by (A, B).
func (p *pass) sortEdges(es []int) {
	edges := p.it.Edges
	for i := 1; i < len(es); i++ {
		for j := i; j > 0; j-- {
			a, b := edges[es[j-1]], edges[es[j]]
			if a.A < b.A || (a.A == b.A && a.B <= b.B) {
				break
			}
			es[j-1], es[j] = es[j], es[j-1]
		}
	}
}

// processMeasureLayer handles mid-circuit measurement: pending ZZ touching
// measured qubits is materialized first; errors accumulated during the
// measurement + feed-forward window on edges adjacent to a measured qubit
// become measurement-conditioned virtual Rz corrections (paper Fig. 9);
// edges between unmeasured qubits accumulate normally.
func (p *pass) processMeasureLayer(l *circuit.Layer) error {
	measured := map[int]int{} // qubit -> classical bit
	for _, in := range l.Instrs {
		if in.Gate == gates.Measure {
			measured[in.Qubits[0]] = in.CBit
		}
	}
	p.must = p.must[:0]
	for i, e := range p.it.Edges {
		if p.pending[i] && p.comp[i] != 0 && (hasKey(measured, e.A) || hasKey(measured, e.B)) {
			p.must = append(p.must, i)
		}
	}
	p.materializePending(p.must)
	p.out.Layers = append(p.out.Layers, l.Clone())

	ff := p.opts.FFTime
	if ff < 0 {
		ff = p.dev.DurFF
	}
	tau := l.Duration + ff // measurement + feed-forward idle window
	var condLayer *circuit.Layer
	for i, e := range p.it.Edges {
		w := p.it.W[i]
		ma, aOK := measured[e.A]
		mb, bOK := measured[e.B]
		switch {
		case aOK && bOK:
			// Both collapsed: pure phase, nothing to correct.
		case aOK || bOK:
			// One endpoint measured: the surviving error on the spectator is
			// Rz(w*tau*(z_m - 1)): zero for outcome 0, -2*w*tau for outcome
			// 1. Compensate with a conditional virtual Rz on the spectator.
			spec, cbit := e.B, ma
			if bOK {
				spec, cbit = e.A, mb
			}
			if p.isCollapsed(spec) {
				continue
			}
			if condLayer == nil {
				p.out.Layers = append(p.out.Layers, circuit.Layer{Kind: circuit.OneQubitLayer})
				condLayer = &p.out.Layers[len(p.out.Layers)-1]
			}
			// The correction is a conditional *virtual* Rz: diagonal, so it
			// commutes with the remaining idle evolution and can execute as
			// soon as the measurement result is available (Time 0, zero
			// duration).
			condLayer.Add(circuit.Instruction{
				Gate:   gates.RZ,
				Qubits: []int{spec},
				Params: []float64{2 * w * tau},
				Cond:   &circuit.Condition{Bit: cbit, Value: 1},
				Tag:    "ec",
			})
			p.stats.Conditional++
		default:
			if p.isCollapsed(e.A) || p.isCollapsed(e.B) {
				continue
			}
			// Both idle and unmeasured: the usual U11 accumulation over the
			// measurement window (the feed-forward window is accounted by
			// the following conditional layer's own toggling pass).
			p.addPending(i, w*l.Duration)
			p.addZ(e.A, -w*l.Duration)
			p.addZ(e.B, -w*l.Duration)
		}
	}
	p.flushZ()
	if p.collapsed == nil {
		p.collapsed = make([]bool, len(p.zAcc))
	}
	for q := range measured {
		p.collapsed[q] = true
	}
	return nil
}

func hasKey(m map[int]int, k int) bool {
	_, ok := m[k]
	return ok
}
