package stab

import (
	"fmt"
	"math"
	"math/rand"
	"sync"

	"casq/internal/circuit"
	"casq/internal/gates"
	"casq/internal/pauli"
	"casq/internal/toggling"
	"casq/internal/twirl"
)

// quarterEps bounds how far a virtual-Z (or RZZ) angle may sit from a
// multiple of pi/2 and still count as Clifford. CA-EC compensation angles
// (tag "ec") are exempt: their residual goes into the coherent-phase
// accumulator, where it cancels the error integral it compensates.
const quarterEps = 1e-9

// opKind enumerates program operations. Clifford and Pauli ops drive both
// the reference tableau and the per-shot frames; channel ops are sampled
// into frames only; measure ops consult the reference record.
type opKind int

const (
	opCliff1    opKind = iota // 1q Clifford conjugation on q0
	opCliff2                  // 2q Clifford conjugation on (q0, q1)
	opPauliGate               // fixed Pauli gate (twirl/DD pulse): tableau signs only
	opChan1                   // one-qubit Pauli channel with cumulative thresholds
	opZZ                      // correlated Z(x)Z flip with probability prob
	opDepol2                  // uniform two-qubit depolarizing with probability prob
	opMeasure                 // Z measurement of q0 into cbit, readout flip prob
)

type op struct {
	kind   opKind
	q0, q1 int
	c1     *cliff1 // opCliff1: conjugation table and its word masks
	c2     *symp2  // opCliff2: conjugation table and its word masks
	p      pauli.Pauli
	// chan1 cumulative thresholds: u < thrX -> X, < thrXY -> Y, < thrXYZ -> Z.
	thrX, thrXY, thrXYZ float64
	prob                float64 // opZZ / opDepol2 probability, opMeasure readout flip
	cbit                int
	mi                  int // measurement index into program.meas
}

// measInfo is the reference record of one measurement: the tableau's
// outcome, whether it was deterministic, and — when random — the packed
// pre-measurement stabilizer whose frame-multiplication flips the
// collapse branch.
type measInfo struct {
	ref    int
	det    bool
	fx, fz []uint64
}

// program is one compiled circuit: the op stream, the reference
// measurement record, and the final reference tableau (for expectation
// values).
//
// A compiled program lives in the pooled arena ar and only for the Engine
// call that compiled it: the call releases it on return, and everything
// the call hands back (expectation values, outcome planes, CompileInfo) is
// copied out of it first.
type program struct {
	nq, ncb, words int
	ops            []op
	meas           []measInfo
	tab            *Tableau
	ar             *arena // nil once released, and for hand-built programs
}

// CompileInfo summarizes a compiled program for benchmarks and tests.
type CompileInfo struct {
	Ops       int // total program operations
	Cliffords int // tableau/frame conjugations
	Channels  int // derived Pauli-channel locations
	Measures  int
}

// ---- Clifford table resolution -------------------------------------------

var (
	tableMu    sync.Mutex
	cliff1Memo = map[gates.Key]*pauli.Clifford1Q{}
	cliff2Memo = map[gates.Key]*pauli.CliffordTable{}
	sPow       [4]*pauli.Clifford1Q // S^k conjugation tables, k=1..3 (0 unused)
	sPowOnce   sync.Once
)

// clifford1For resolves (building on first use) the conjugation table of a
// one-qubit gate kind, or nil when the gate is not Clifford. Non-finite
// angles are never Clifford; they are refused before the memo, where NaN
// keys would never match and pile up.
func clifford1For(g gates.Kind, params []float64) *pauli.Clifford1Q {
	if !finite(params) {
		return nil
	}
	k, cacheable := gates.KeyOf(g, params)
	if cacheable {
		tableMu.Lock()
		if t, ok := cliff1Memo[k]; ok {
			tableMu.Unlock()
			return t
		}
		tableMu.Unlock()
	}
	t, err := pauli.NewClifford1Q(gates.Matrix1Q(g, params...))
	if err != nil {
		t = nil
	}
	if cacheable {
		tableMu.Lock()
		cliff1Memo[k] = t
		tableMu.Unlock()
	}
	return t
}

// clifford2For resolves the conjugation table of a two-qubit gate kind,
// or nil when it is not Clifford (non-finite angles included, as in
// clifford1For). ECR/CX/SWAP reuse the twirl package's shared tables.
func clifford2For(g gates.Kind, params []float64) *pauli.CliffordTable {
	if !finite(params) {
		return nil
	}
	switch g {
	case gates.ECR, gates.CX, gates.SWAP:
		t, err := twirl.TableFor(g)
		if err != nil {
			return nil
		}
		return t
	}
	k, cacheable := gates.KeyOf(g, params)
	if cacheable {
		tableMu.Lock()
		if t, ok := cliff2Memo[k]; ok {
			tableMu.Unlock()
			return t
		}
		tableMu.Unlock()
	}
	t, err := pauli.NewCliffordTable(gates.Matrix2Q(g, params...))
	if err != nil {
		t = nil
	}
	if cacheable {
		tableMu.Lock()
		cliff2Memo[k] = t
		tableMu.Unlock()
	}
	return t
}

// sPowTable returns the conjugation table of S^k (k in 1..3: S, Z, Sdg).
func sPowTable(k int) *pauli.Clifford1Q {
	sPowOnce.Do(func() {
		for i, g := range []gates.Kind{gates.S, gates.ZGate, gates.Sdg} {
			t, err := pauli.NewClifford1Q(gates.Matrix1Q(g))
			if err != nil {
				panic("stab: S-power table: " + err.Error())
			}
			sPow[i+1] = t
		}
	})
	return sPow[k]
}

// splitQuarter decomposes an angle into its Clifford part k*(pi/2)
// (k in 0..3) and the residual delta in (-pi/4, pi/4].
func splitQuarter(theta float64) (k int, delta float64) {
	r := math.Round(theta / (math.Pi / 2))
	delta = theta - r*(math.Pi/2)
	k = int(r) % 4
	if k < 0 {
		k += 4
	}
	return k, delta
}

// ---- Representability ----------------------------------------------------

// Supports reports whether the circuit is twirl-representable: every gate
// is Clifford up to virtual-Z residuals that the Pauli-twirling
// approximation absorbs. Specifically: any Clifford one-qubit gate;
// RZ/RZZ at multiples of pi/2 (arbitrary angles allowed for "ec"-tagged
// compensation gates, whose residual rides the coherent-phase
// accumulator); ECR/CX/SWAP; measurements. Non-finite angles are rejected
// for every tag. Classically conditioned gates and Reset are not
// representable (frame sampling has no feed-forward).
// A nil error means the stabilizer engine can run the circuit.
func Supports(c *circuit.Circuit) error {
	for li := range c.Layers {
		for ii := range c.Layers[li].Instrs {
			in := &c.Layers[li].Instrs[ii]
			if in.Cond != nil {
				return fmt.Errorf("stab: layer %d: conditioned %s has data-dependent frames", li, in.Gate)
			}
			if in.Gate != gates.Delay && !finite(in.Params) {
				return fmt.Errorf("stab: layer %d: %s%v has a non-finite angle", li, in.Gate, in.Params)
			}
			switch in.Gate {
			case gates.Delay, gates.Barrier, gates.ID, gates.Measure:
			case gates.Reset:
				return fmt.Errorf("stab: layer %d: reset is not representable", li)
			case gates.ZGate, gates.S, gates.Sdg, gates.XGate, gates.YGate, gates.XDD, gates.H, gates.SX, gates.SXdg:
			case gates.RZ:
				if _, d := splitQuarter(in.Params[0]); math.Abs(d) > quarterEps && in.Tag != "ec" {
					return fmt.Errorf("stab: layer %d: rz(%g) is not Clifford", li, in.Params[0])
				}
			case gates.RZZ:
				if _, d := splitQuarter(in.Params[0]); math.Abs(d) > quarterEps && in.Tag != "ec" {
					return fmt.Errorf("stab: layer %d: rzz(%g) is not Clifford", li, in.Params[0])
				}
			case gates.ECR, gates.CX, gates.SWAP:
			case gates.Ucan, gates.ZX:
				if clifford2For(in.Gate, in.Params) == nil {
					return fmt.Errorf("stab: layer %d: %s%v is not Clifford", li, in.Gate, in.Params)
				}
			default:
				if gates.NumQubits(in.Gate) == 1 {
					if clifford1For(in.Gate, in.Params) == nil {
						return fmt.Errorf("stab: layer %d: %s%v is not Clifford", li, in.Gate, in.Params)
					}
				} else {
					return fmt.Errorf("stab: layer %d: %s is not representable", li, in.Gate)
				}
			}
		}
	}
	return nil
}

// finite reports whether every angle is a finite number. NaN and ±Inf pass
// the Clifford residual test (every comparison with NaN is false) and
// would compile into silently dropped channels.
func finite(params []float64) bool {
	for _, v := range params {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return false
		}
	}
	return true
}

// HasTwirl reports whether the circuit carries Pauli-twirl gates — the
// precondition for the Pauli-twirling approximation to hold, and what the
// executor's auto engine dispatch requires alongside Supports.
func HasTwirl(c *circuit.Circuit) bool {
	for li := range c.Layers {
		if c.Layers[li].Kind == circuit.TwirlLayer && len(c.Layers[li].Instrs) > 0 {
			return true
		}
		for ii := range c.Layers[li].Instrs {
			if c.Layers[li].Instrs[ii].Tag == "twirl" {
				return true
			}
		}
	}
	return false
}

// ---- Compilation ---------------------------------------------------------

// compiler walks the circuit's schedule once on the same walker the
// statevector simulator replays per shot (toggling.Walker), with symbolic
// coherent-phase accumulators in place of statevector amplitudes: the
// walker integrates the ZZ, spectator Z and Stark angles between events
// and flips accumulator signs at pi pulses, the compiler adds the signed
// time integral the parity and quasi-static detunings act through, and
// converts the surviving angles into Pauli-channel probabilities at the
// points where the statevector kernel flushes its phase accumulator.
type compiler struct {
	e    *Engine
	walk toggling.Walker
	lc   toggling.LayerContext // the current layer, rebuilt per layer

	phi   []float64 // pending deterministic Z angle per qubit
	tau   []float64 // signed time integral (ns) for per-shot random detuning
	phiZZ []float64 // pending ZZ angle per walker edge

	ops   []op
	nMeas int
}

// compile compiles the circuit into a program that lives in an arena taken
// from arenaPool. The caller releases the program when its call ends.
func (e *Engine) compile(c *circuit.Circuit) (*program, error) {
	ar := arenaPool.Get().(*arena)
	p, err := e.compileIn(ar, c)
	if err != nil {
		ar.put()
		return nil, err
	}
	return p, nil
}

// compileIn compiles the circuit into the buffers of ar.
func (e *Engine) compileIn(ar *arena, c *circuit.Circuit) (*program, error) {
	if err := c.Validate(); err != nil {
		return nil, err
	}
	if err := Supports(c); err != nil {
		return nil, err
	}
	nq := c.NQubits
	cp := &ar.cp
	cp.e = e
	cp.walk.Reset(e.Dev, c)
	cp.phi = resized(cp.phi, nq)
	cp.tau = resized(cp.tau, nq)
	cp.phiZZ = resized(cp.phiZZ, len(cp.walk.Edges))
	cp.ops = cp.ops[:0]
	cp.nMeas = 0
	for li := range c.Layers {
		if err := cp.layer(&c.Layers[li], nq); err != nil {
			return nil, fmt.Errorf("stab: layer %d: %w", li, err)
		}
	}
	for q := 0; q < nq; q++ {
		cp.flush(q)
	}

	p := &program{nq: nq, ncb: c.NCBits, words: (nq + 63) / 64, ops: cp.ops, ar: ar}
	p.reference(e.Cfg.Seed)
	return p, nil
}

// layer compiles one scheduled layer: the walker's events in time order,
// with the coherent phases accumulated between them, then the layer's
// relaxation channels.
func (cp *compiler) layer(l *circuit.Layer, nq int) error {
	lc := &cp.lc
	cp.walk.Layer(lc, l, cp.e.Dev)
	cur := l.Start
	for i := range lc.Events {
		ev := &lc.Events[i]
		cp.accumulate(cur, ev.T)
		cur = ev.T
		if err := cp.exec(ev); err != nil {
			return err
		}
	}
	cp.accumulate(cur, l.Start+l.Duration)
	if cp.e.Cfg.EnableT1T2 && l.Duration > 0 {
		for q := 0; q < nq; q++ {
			cp.emitRelaxation(q, l.Duration)
		}
	}
	return nil
}

// cliff1Op and cliff2Op build Clifford ops carrying their table's word
// masks, which the reference tableau and the bit-plane plan both run on.
func cliff1Op(q int, tbl *pauli.Clifford1Q) op {
	return op{kind: opCliff1, q0: q, c1: cliff1For(tbl)}
}

func cliff2Op(q0, q1 int, tbl *pauli.CliffordTable) op {
	return op{kind: opCliff2, q0: q0, q1: q1, c2: symp2For(tbl)}
}

// exec turns one event into ops, resolving gates to Clifford tables.
func (cp *compiler) exec(ev *toggling.Event) error {
	cfg := &cp.e.Cfg
	in := ev.In
	switch ev.Kind {
	case toggling.EvGate2Q: // ECR, CX, SWAP, Clifford Ucan/ZX: one ideal Clifford
		tab := clifford2For(in.Gate, in.Params)
		if tab == nil {
			return fmt.Errorf("%s is not Clifford", in.Gate)
		}
		if in.Gate != gates.ECR {
			// Z does not generally commute through CX/SWAP/Ucan as
			// modeled (their ghost echo is not a physical pulse), so both
			// operands' pending phases materialize as channels here.
			cp.flush(ev.Q0)
		}
		// An ECR control's pending phases ride: ECR = X(ctrl)·ZX(pi/2)
		// conjugates Z(ctrl) to -Z(ctrl), and the mid-gate echo event
		// applies exactly that sign — so coherent Z/ZZ terms on the
		// control (including control-control ZZ, the CA-EC headline
		// channel) stay in the accumulator until a genuinely
		// non-commuting point, where a deferred EC compensation can still
		// cancel them, matching the statevector kernel's algebra. The
		// target's Z is rotated by ZX into non-diagonal form, so it must
		// convert to a channel before the gate.
		cp.flush(ev.Q1)
		cp.ops = append(cp.ops, cliff2Op(ev.Q0, ev.Q1, tab))
	case toggling.EvPulse:
		p := pauli.X
		if in.Gate == gates.YGate {
			p = pauli.Y
		}
		cp.flip(ev.Q0)
		cp.ops = append(cp.ops, op{kind: opPauliGate, q0: ev.Q0, p: p})
		if cfg.EnableGateErr && ev.ErrP > 0 {
			cp.emitDepol1(ev.Q0, ev.ErrP)
		}
	case toggling.EvVirtualZ:
		if in.Gate == gates.RZ && in.Tag == "ec" {
			// A CA-EC compensation exists to cancel the error integral in
			// this same accumulator; splitting off a Clifford part here
			// would desynchronize the two whenever the compensation
			// exceeds pi/4 (net -k*pi/2 at flush instead of ~0), so the
			// full angle rides the accumulator exactly as it does in the
			// statevector kernel.
			cp.phi[ev.Q0] += ev.Angle
			return nil
		}
		k, delta := splitQuarter(ev.Angle)
		if k != 0 {
			cp.ops = append(cp.ops, cliff1Op(ev.Q0, sPowTable(k)))
		}
		cp.phi[ev.Q0] += delta
	case toggling.EvRZZ:
		if in.Tag == "ec" {
			cp.phiZZ[ev.Edge] += ev.Angle
			return nil
		}
		k, delta := splitQuarter(ev.Angle)
		if k != 0 {
			cp.ops = append(cp.ops, cliff2Op(ev.Q0, ev.Q1, clifford2For(gates.RZZ, []float64{float64(k) * math.Pi / 2})))
		}
		cp.phiZZ[ev.Edge] += delta
	case toggling.EvEcho:
		cp.flip(ev.Q0)
	case toggling.EvGate1Q:
		tab := clifford1For(in.Gate, in.Params)
		if tab == nil {
			return fmt.Errorf("%s%v is not Clifford", in.Gate, in.Params)
		}
		cp.flush(ev.Q0)
		cp.ops = append(cp.ops, cliff1Op(ev.Q0, tab))
		if cfg.EnableGateErr && ev.ErrP > 0 {
			cp.emitDepol1(ev.Q0, ev.ErrP)
		}
	case toggling.EvErr2Q:
		if cfg.EnableGateErr && ev.ErrP > 0 {
			cp.ops = append(cp.ops, op{kind: opDepol2, q0: ev.Q0, q1: ev.Q1, prob: ev.ErrP})
		}
	case toggling.EvMeasure:
		cp.flush(ev.Q0)
		flip := 0.0
		if cfg.EnableReadoutErr {
			flip = cp.e.Dev.ReadoutErr[ev.Q0]
		}
		cp.ops = append(cp.ops, op{kind: opMeasure, q0: ev.Q0, cbit: in.CBit, prob: flip, mi: cp.nMeas})
		cp.nMeas++
	}
	return nil
}

// accumulate integrates the coherent crosstalk Hamiltonian over [from, to]
// into the symbolic phase accumulators: the walker's ZZ and Stark terms,
// then the signed time integral tau that the per-shot parity and
// quasi-static detunings act through at flush.
func (cp *compiler) accumulate(from, to float64) {
	dt := to - from
	if dt <= 0 {
		return
	}
	cfg := &cp.e.Cfg
	res := cp.e.Dev.RotaryResidual
	cp.walk.Accumulate(&cp.lc, cp.phi, cp.phiZZ, dt, res, cfg.EnableZZ, cfg.EnableStark)
	if cfg.EnableParity || cfg.EnableQuasistatic {
		for q := range cp.tau {
			f := 1.0
			if cp.lc.Rotary[q] {
				f = res
			}
			cp.tau[q] += dt * f
		}
	}
}

// flip conjugates the pending phases on q, tau included, through an X/Y
// pulse.
func (cp *compiler) flip(q int) {
	cp.walk.Flip(q, cp.phi, cp.phiZZ)
	cp.tau[q] = -cp.tau[q]
}

// flush converts the pending coherent phases involving q into Pauli
// channels via the Pauli-twirling approximation and clears them. The
// surviving single-qubit angle phi combines the deterministic integral
// with the per-shot random detunings through their characteristic
// functions: 1 - 2 pZ = cos(phi) * cos(delta*tau) * exp(-(sigma*tau)^2/2),
// which is exactly the twirl-averaged coherence factor of the segment.
// Pending ZZ angles become correlated Z(x)Z channels with sin^2(phi/2).
func (cp *compiler) flush(q int) {
	cfg := &cp.e.Cfg
	dev := cp.e.Dev
	c := math.Cos(cp.phi[q])
	if cfg.EnableParity {
		c *= math.Cos(dev.Delta[q] * toggling.HzToRadPerNs * cp.tau[q])
	}
	if cfg.EnableQuasistatic && q < len(dev.Quasistatic) {
		sg := dev.Quasistatic[q] * toggling.HzToRadPerNs * cp.tau[q]
		c *= math.Exp(-sg * sg / 2)
	}
	cp.phi[q] = 0
	cp.tau[q] = 0
	if pz := (1 - c) / 2; pz > 1e-15 {
		cp.ops = append(cp.ops, op{kind: opChan1, q0: q, thrXYZ: pz})
	}
	for _, ei := range cp.walk.QEdges[q] {
		phi := cp.phiZZ[ei]
		if phi == 0 {
			continue
		}
		cp.phiZZ[ei] = 0
		s := math.Sin(phi / 2)
		if pzz := s * s; pzz > 1e-15 {
			ed := cp.walk.Edges[ei]
			cp.ops = append(cp.ops, op{kind: opZZ, q0: ed.A, q1: ed.B, prob: pzz})
		}
	}
}

// emitDepol1 emits a uniform one-qubit depolarizing channel (probability p
// split evenly over X, Y, Z — matching the statevector kernel's gate-error
// model).
func (cp *compiler) emitDepol1(q int, p float64) {
	cp.ops = append(cp.ops, op{kind: opChan1, q0: q, thrX: p / 3, thrXY: 2 * p / 3, thrXYZ: p})
}

// emitRelaxation emits the layer's T1/T2 channel on q: the Pauli-twirled
// amplitude-damping channel composed with pure dephasing, with the same
// gamma and 1/Tphi bookkeeping as the statevector kernel (T1 <= 0 disables
// damping and leaves 1/Tphi = 1/T2).
func (cp *compiler) emitRelaxation(q int, dur float64) {
	dev := cp.e.Dev
	t1, t2 := dev.T1[q], dev.T2[q]
	probs := [4]float64{1, 0, 0, 0} // I, X, Y, Z
	if t1 > 0 {
		gamma := 1 - math.Exp(-dur/t1)
		s := math.Sqrt(1 - gamma)
		probs = composeChan(probs, [4]float64{(1 + s) * (1 + s) / 4, gamma / 4, gamma / 4, (1 - s) * (1 - s) / 4})
	}
	if t2 > 0 {
		invTphi := 1 / t2
		if t1 > 0 {
			invTphi -= 1 / (2 * t1)
		}
		if invTphi > 0 {
			pphi := (1 - math.Exp(-dur*invTphi)) / 2
			probs = composeChan(probs, [4]float64{1 - pphi, 0, 0, pphi})
		}
	}
	if probs[1]+probs[2]+probs[3] > 1e-15 {
		cp.ops = append(cp.ops, op{
			kind: opChan1, q0: q,
			thrX: probs[1], thrXY: probs[1] + probs[2], thrXYZ: probs[1] + probs[2] + probs[3],
		})
	}
}

// composeChan convolves two Pauli channels over the phase-free Pauli
// group, indexed I=0, X=1, Y=2, Z=3 (XOR is the group product in this
// enumeration).
func composeChan(a, b [4]float64) [4]float64 {
	var out [4]float64
	for i := 0; i < 4; i++ {
		for j := 0; j < 4; j++ {
			out[i^j] += a[i] * b[j]
		}
	}
	return out
}

// reference runs the ideal Clifford skeleton once on the tableau, drawing
// nondeterministic measurement outcomes from a seed-derived RNG and
// recording, per measurement, the branch-flip stabilizer the frame
// sampler needs. The tableau, the RNG and the records live in p.ar.
func (p *program) reference(seed int64) {
	ar := p.ar
	p.tab = ar.tableau(p.nq)
	if ar.rng == nil {
		ar.rng = rand.New(&ar.src)
	}
	ar.src.Seed(seed*6364136223846793005 + 1442695040888963407)
	meas, flips := ar.meas[:0], ar.flips[:0]
	w := p.words
	for i := range p.ops {
		o := &p.ops[i]
		switch o.kind {
		case opCliff1:
			p.tab.applyCliff1(o.q0, o.c1)
		case opCliff2:
			p.tab.applySymp2(o.q0, o.q1, o.c2)
		case opPauliGate:
			p.tab.ApplyPauli(o.q0, o.p)
		case opMeasure:
			bit, det := p.tab.measureZ(o.q0, ar.rng)
			inf := measInfo{ref: bit, det: det}
			if !det {
				n := len(flips)
				flips = append(append(flips, p.tab.gx...), p.tab.gz...)
				inf.fx = flips[n : n+w : n+w]
				inf.fz = flips[n+w : n+2*w : n+2*w]
			}
			meas = append(meas, inf)
		}
	}
	p.meas = meas
	ar.meas, ar.flips = meas, flips
}

// info summarizes the program.
func (p *program) info() CompileInfo {
	inf := CompileInfo{Ops: len(p.ops), Measures: len(p.meas)}
	for i := range p.ops {
		switch p.ops[i].kind {
		case opCliff1, opCliff2, opPauliGate:
			inf.Cliffords++
		case opChan1, opZZ, opDepol2:
			inf.Channels++
		}
	}
	return inf
}
