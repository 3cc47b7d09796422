package sim_test

import (
	"math"
	"testing"

	"casq/internal/circuit"
	"casq/internal/dd"
	"casq/internal/device"
	"casq/internal/gates"
	"casq/internal/linalg"
	"casq/internal/sched"
	"casq/internal/sim"
	"casq/internal/toggling"
)

// quietDevice builds a line device with only coherent crosstalk (all
// stochastic channels zeroed) and perfect rotary suppression, for exact
// physics checks.
func quietDevice(n int) *device.Device {
	opts := device.DefaultOptions()
	opts.DeltaMax = 0
	opts.QuasistaticSigma = 0
	opts.Err1Q = 0
	opts.Err2Q = 0
	opts.ReadoutErr = 0
	opts.T1Min, opts.T1Max = 1e12, 1e12
	opts.T2Factor = 2.0
	opts.RotaryResidual = 0
	// Make 1q layers effectively instantaneous so per-layer error algebra
	// is exact in the tests below (real devices use ~60 ns; the finite
	// value only adds small extra idle phases).
	opts.Dur1Q = 1e-6
	return device.NewLine("quiet", n, opts)
}

func coherentCfg() sim.Config {
	c := sim.CoherentOnly(1)
	c.Workers = 1
	return c
}

func TestIdealBellCounts(t *testing.T) {
	dev := quietDevice(2)
	c := circuit.New(2, 2)
	c.AddLayer(circuit.OneQubitLayer).H(0)
	c.AddLayer(circuit.TwoQubitLayer).CX(0, 1)
	c.AddLayer(circuit.MeasureLayer).Measure(0, 0).Measure(1, 1)
	sched.Schedule(c, dev)

	cfg := sim.Ideal()
	cfg.Shots = 400
	cfg.Seed = 3
	r := sim.New(dev, cfg)
	res, err := r.Counts(c)
	if err != nil {
		t.Fatal(err)
	}
	p00 := res.Probability("00")
	p11 := res.Probability("11")
	if math.Abs(p00-0.5) > 0.1 || math.Abs(p11-0.5) > 0.1 {
		t.Errorf("Bell counts wrong: p00=%.3f p11=%.3f", p00, p11)
	}
	if res.Probability("01")+res.Probability("10") > 0 {
		t.Errorf("ideal Bell produced odd-parity outcomes")
	}
}

func TestECRMatchesIdealUnitary(t *testing.T) {
	// With all noise off, executing an ECR through the event sequence must
	// reproduce the ideal ECR matrix acting on any basis state.
	dev := quietDevice(2)
	for b := 0; b < 4; b++ {
		c := circuit.New(2, 0)
		prep := c.AddLayer(circuit.OneQubitLayer)
		if b&1 != 0 {
			prep.X(0)
		}
		if b&2 != 0 {
			prep.X(1)
		}
		c.AddLayer(circuit.TwoQubitLayer).ECR(0, 1)
		sched.Schedule(c, dev)

		r := sim.New(dev, sim.Ideal())
		got, err := r.FinalState(c)
		if err != nil {
			t.Fatal(err)
		}
		want := linalg.NewVector(2)
		want[0] = 0
		want[b] = 1
		want.Apply2Q(gates.ECRMatrix(), 0, 1)
		if f := linalg.FidelityPure(got, want); f < 1-1e-9 {
			t.Errorf("basis %02b: ECR fidelity %.6f", b, f)
		}
	}
}

func TestIdlePairMatchesU11(t *testing.T) {
	// Two idle neighbors for time tau must evolve under
	// U11 = Rzz(theta) [Rz(-theta) x Rz(-theta)], theta = 2 pi nu tau
	// (paper Eq. 2).
	dev := quietDevice(2)
	tau := 500.0
	c := circuit.New(2, 0)
	c.AddLayer(circuit.OneQubitLayer).H(0).H(1)
	idle := c.AddLayer(circuit.TwoQubitLayer)
	idle.Add(circuit.Instruction{Gate: gates.Delay, Qubits: []int{0}, Params: []float64{tau}})
	idle.Add(circuit.Instruction{Gate: gates.Delay, Qubits: []int{1}, Params: []float64{tau}})
	sched.Schedule(c, dev)

	r := sim.New(dev, coherentCfg())
	got, err := r.FinalState(c)
	if err != nil {
		t.Fatal(err)
	}

	theta := 2 * math.Pi * dev.ZZRate(0, 1) * tau * 1e-9
	want := linalg.NewVector(2)
	want.Apply1Q(gates.Matrix1Q(gates.H), 0)
	want.Apply1Q(gates.Matrix1Q(gates.H), 1)
	// The 1q layer itself has duration Dur1Q during which crosstalk also
	// acts; account for it in the expected angle.
	thetaPrep := 2 * math.Pi * dev.ZZRate(0, 1) * dev.Dur1Q * 1e-9
	tot := theta + thetaPrep
	want.Apply2Q(gates.Matrix2Q(gates.RZZ, tot), 0, 1)
	want.Apply1Q(gates.Matrix1Q(gates.RZ, -tot), 0)
	want.Apply1Q(gates.Matrix1Q(gates.RZ, -tot), 1)

	if f := linalg.FidelityPure(got, want); f < 1-1e-9 {
		t.Errorf("idle pair does not match U11: fidelity %.9f", f)
	}
	// Sanity: the state must have moved away from |++>.
	plus := linalg.NewVector(2)
	plus.Apply1Q(gates.Matrix1Q(gates.H), 0)
	plus.Apply1Q(gates.Matrix1Q(gates.H), 1)
	if f := linalg.FidelityPure(got, plus); f > 0.99 {
		t.Errorf("no coherent error accumulated (fidelity to |++> = %.4f)", f)
	}
}

func TestTogglingPredictsSimulator(t *testing.T) {
	// For an arbitrary pulse arrangement, the simulator's final state must
	// equal the ideal pulse circuit followed by the toggling-frame error
	// unitary. This pins the suffix-sign convention shared by sim and CA-EC.
	dev := quietDevice(4)
	build := func() *circuit.Circuit {
		c := circuit.New(4, 0)
		prep := c.AddLayer(circuit.OneQubitLayer)
		prep.H(0).H(1).H(2).H(3)
		l := c.AddLayer(circuit.TwoQubitLayer)
		l.ECR(0, 1)
		// Asymmetric DD pulses on the idle qubits 2 and 3.
		l.Add(circuit.Instruction{Gate: gates.XDD, Qubits: []int{2}, Tag: "dd", Time: 125})
		l.Add(circuit.Instruction{Gate: gates.XDD, Qubits: []int{2}, Tag: "dd", Time: 300})
		l.Add(circuit.Instruction{Gate: gates.XDD, Qubits: []int{3}, Tag: "dd", Time: 250})
		l.Add(circuit.Instruction{Gate: gates.XDD, Qubits: []int{3}, Tag: "dd", Time: 500})
		return c
	}

	noisy := build()
	sched.Schedule(noisy, dev)
	r := sim.New(dev, coherentCfg())
	got, err := r.FinalState(noisy)
	if err != nil {
		t.Fatal(err)
	}

	ideal := build()
	sched.Schedule(ideal, dev)
	ri := sim.New(dev, sim.Ideal())
	want, err := ri.FinalState(ideal)
	if err != nil {
		t.Fatal(err)
	}
	// Apply the predicted error for each layer (prep layer + gate layer).
	it := toggling.NewIntegrator(dev, dev.NQubits)
	for li := range ideal.Layers {
		it.Layer(&ideal.Layers[li], true, nil)
		for q, phi := range it.PhiZ {
			if math.Abs(phi) >= toggling.Floor {
				want.Apply1Q(gates.Matrix1Q(gates.RZ, phi), q)
			}
		}
		for i, phi := range it.PhiZZ {
			if math.Abs(phi) >= toggling.Floor {
				want.Apply2Q(gates.Matrix2Q(gates.RZZ, phi), it.Edges[i].A, it.Edges[i].B)
			}
		}
	}
	if f := linalg.FidelityPure(got, want); f < 1-1e-9 {
		t.Fatalf("toggling prediction mismatch: fidelity %.9f", f)
	}
}

// ramseyFidelity runs a case-I style Ramsey: |++> on (0,1), idle for d
// layers of tau each, return fidelity to |++>.
func ramseyFidelity(t *testing.T, dev *device.Device, d int, strategy dd.Strategy) float64 {
	t.Helper()
	tau := 500.0
	c := circuit.New(2, 0)
	c.AddLayer(circuit.OneQubitLayer).H(0).H(1)
	for i := 0; i < d; i++ {
		l := c.AddLayer(circuit.TwoQubitLayer)
		l.Add(circuit.Instruction{Gate: gates.Delay, Qubits: []int{0}, Params: []float64{tau}})
		l.Add(circuit.Instruction{Gate: gates.Delay, Qubits: []int{1}, Params: []float64{tau}})
	}
	sched.Schedule(c, dev)
	if strategy != dd.None {
		opts := dd.DefaultOptions()
		opts.Strategy = strategy
		if _, err := dd.Insert(c, dev, opts); err != nil {
			t.Fatal(err)
		}
	}
	r := sim.New(dev, coherentCfg())
	st, err := r.FinalState(c)
	if err != nil {
		t.Fatal(err)
	}
	plus := linalg.NewVector(2)
	plus.Apply1Q(gates.Matrix1Q(gates.H), 0)
	plus.Apply1Q(gates.Matrix1Q(gates.H), 1)
	return linalg.FidelityPure(st, plus)
}

func TestDDSuppressionCaseI(t *testing.T) {
	dev := quietDevice(2)
	d := 8
	bare := ramseyFidelity(t, dev, d, dd.None)
	aligned := ramseyFidelity(t, dev, d, dd.Aligned)
	staggered := ramseyFidelity(t, dev, d, dd.Staggered)
	ca := ramseyFidelity(t, dev, d, dd.ContextAware)

	if bare > 0.9 {
		t.Errorf("bare Ramsey should have decayed, got %.4f", bare)
	}
	// Aligned DD cancels the single-qubit Z but not the ZZ (paper Fig. 3c):
	// it must beat bare but stay clearly below the staggered strategies.
	if aligned < bare-0.05 {
		t.Errorf("aligned DD (%.4f) should not be worse than bare (%.4f)", aligned, bare)
	}
	if staggered < 0.999 {
		t.Errorf("staggered DD should fully cancel coherent idle errors, got %.6f", staggered)
	}
	if ca < 0.999 {
		t.Errorf("CA-DD should fully cancel coherent idle errors, got %.6f", ca)
	}
	if aligned > 0.99 {
		t.Errorf("aligned DD unexpectedly suppressed ZZ (%.4f); staggering should matter", aligned)
	}
}

func TestControlSpectatorEcho(t *testing.T) {
	// Case II (paper Fig. 3d): a spectator adjacent to an ECR control.
	// The gate echo alone cancels ZZ(ctrl, spec); context-aware pulses at
	// T/4, 3T/4 keep it cancelled and also remove the spectator Z; aligned
	// pulses at T/2, T undo the echo and reintroduce the ZZ error.
	dev := quietDevice(3) // line 0-1-2, ECR direction 0->1 on edge (0,1)
	dev.Stark = map[device.Directed]float64{}

	build := func(pulses []float64) *circuit.Circuit {
		c := circuit.New(3, 0)
		// Spectator is qubit 2? No: control of ECR(0,1) is 0; its neighbor
		// on the line is 1 (the target). Use ECR(1,2) instead: control 1,
		// target 2, spectator 0 adjacent to control 1.
		c.AddLayer(circuit.OneQubitLayer).H(0)
		l := c.AddLayer(circuit.TwoQubitLayer)
		l.ECR(1, 2)
		for _, p := range pulses {
			l.Add(circuit.Instruction{Gate: gates.XDD, Qubits: []int{0}, Tag: "dd", Time: p})
		}
		return c
	}
	run := func(pulses []float64) float64 {
		c := build(pulses)
		sched.Schedule(c, dev)
		r := sim.New(dev, coherentCfg())
		st, err := r.FinalState(c)
		if err != nil {
			t.Fatal(err)
		}
		plus := linalg.NewVector(3)
		plus.Apply1Q(gates.Matrix1Q(gates.H), 0)
		// Project onto the spectator's |+> regardless of gate qubits:
		// measure <X0>.
		x0 := st.Copy()
		x0.Apply1Q(gates.Matrix1Q(gates.XGate), 0)
		return real(linalg.Inner(st, x0))
	}
	T := dev.DurECR
	none := run(nil)
	caPulses := run([]float64{T / 4, 3 * T / 4})
	alignedPulses := run([]float64{T / 2, T})

	// With no DD: ZZ echoed away, but the spectator keeps its Z error, so
	// <X0> rotates away from 1 (by the -nu/2 Z of Eq. 1 plus prep-layer
	// effects).
	if none > 0.995 {
		t.Errorf("no-DD spectator unexpectedly clean: <X0>=%.4f", none)
	}
	if caPulses < 0.9999 {
		t.Errorf("CA-aligned pulses (T/4, 3T/4) should fully protect the spectator, got %.6f", caPulses)
	}
	if alignedPulses > caPulses-1e-6 {
		t.Errorf("echo-aligned pulses (T/2, T) should be worse than staggered: %.6f vs %.6f", alignedPulses, caPulses)
	}
}

func TestMidCircuitMeasurementAndFeedForward(t *testing.T) {
	// |+> on q0, CX(0,1), measure q1, conditional X on q0 must yield a
	// deterministic |1> on q0... actually X|0/1> conditioned on the measured
	// bit maps the post-measurement state of q0 to |1> when outcome=0 is
	// corrected with X too. Simpler deterministic check: measure q1 then
	// conditionally flip q0 so that q0 always ends in |1>.
	dev := quietDevice(2)
	// Remove coherent noise entirely for a pure logic check.
	for e := range dev.ZZ {
		dev.ZZ[e] = 0
	}
	dev.Stark = map[device.Directed]float64{}

	c := circuit.New(2, 2)
	c.AddLayer(circuit.OneQubitLayer).H(0)
	c.AddLayer(circuit.TwoQubitLayer).CX(0, 1)
	c.AddLayer(circuit.MeasureLayer).Measure(1, 0)
	ff := c.AddLayer(circuit.OneQubitLayer)
	ff.CondX(0, 0, 0) // flip q0 when the aux measured 0
	c.AddLayer(circuit.MeasureLayer).Measure(0, 1)
	sched.Schedule(c, dev)

	cfg := sim.Ideal()
	cfg.Shots = 200
	r := sim.New(dev, cfg)
	res, err := r.Counts(c)
	if err != nil {
		t.Fatal(err)
	}
	// After CX, q0 and q1 agree; flipping q0 when q1==0 forces q0 = 1.
	if p := res.Probability("x1"); p < 0.999 {
		t.Errorf("feed-forward failed: P(q0=1) = %.4f, counts=%v", p, res.Counts)
	}
}

// TestPureDephasingWithT1Disabled is the regression test for the T1=0
// divide-by-zero: with amplitude damping disabled (T1 <= 0) the pure
// dephasing rate must reduce to 1/Tphi = 1/T2 instead of silently becoming
// -Inf and skipping dephasing on T2-only devices.
func TestPureDephasingWithT1Disabled(t *testing.T) {
	dev := quietDevice(1)
	dev.T1 = []float64{0}    // damping disabled
	dev.T2 = []float64{1000} // pure dephasing only
	for e := range dev.ZZ {
		dev.ZZ[e] = 0
	}
	dur := 2000.0
	c := circuit.New(1, 0)
	c.AddLayer(circuit.OneQubitLayer).H(0)
	l := c.AddLayer(circuit.TwoQubitLayer)
	l.Add(circuit.Instruction{Gate: gates.Delay, Qubits: []int{0}, Params: []float64{dur}})
	sched.Schedule(c, dev)

	cfg := sim.Config{Shots: 4000, Seed: 5, EnableT1T2: true}
	cfg.Workers = 1
	vals, err := sim.New(dev, cfg).Expectations(c, []sim.ObsSpec{{0: 'X'}})
	if err != nil {
		t.Fatal(err)
	}
	// Each shot flips Z with p = (1 - exp(-dur/T2))/2, so
	// <X> = exp(-dur/T2) ~ 0.135 in the mean. The old code returned 1.0.
	want := math.Exp(-dur / 1000.0)
	if math.Abs(vals[0]-want) > 0.05 {
		t.Errorf("T2-only dephasing off: <X> = %.4f, want ~%.4f", vals[0], want)
	}
}

// TestProbabilityLengthMismatch pins the pattern-matching contract in both
// directions: a constrained pattern position beyond the measured bitstring
// is a non-match (the old code silently ignored it), while measured bits
// beyond the pattern are unconstrained.
func TestProbabilityLengthMismatch(t *testing.T) {
	res := sim.Result{Counts: map[string]int{"01": 3, "11": 1}, Shots: 4}
	// Pattern longer than the bitstrings, constrained in the overflow:
	// nothing can match.
	if p := res.Probability("011"); p != 0 {
		t.Errorf("constrained position beyond bitstring matched: p = %v, want 0", p)
	}
	if p := res.Probability("xx1"); p != 0 {
		t.Errorf("constrained position beyond bitstring matched: p = %v, want 0", p)
	}
	// Pattern longer but unconstrained in the overflow: matches normally.
	if p := res.Probability("01xx"); p != 0.75 {
		t.Errorf("unconstrained overflow positions should match: p = %v, want 0.75", p)
	}
	// Pattern shorter than the bitstrings: extra measured bits are
	// unconstrained.
	if p := res.Probability("0"); p != 0.75 {
		t.Errorf("bits beyond pattern should be unconstrained: p = %v, want 0.75", p)
	}
	if p := res.Probability("x1"); p != 1 {
		t.Errorf("p = %v, want 1", p)
	}
	if p := res.Probability(""); p != 1 {
		t.Errorf("empty pattern should match everything: p = %v, want 1", p)
	}
}

func TestRelaxationDecaysExcitedState(t *testing.T) {
	dev := quietDevice(1)
	dev.T1 = []float64{1000} // 1 us in ns: strong decay over a long delay
	dev.T2 = []float64{800}
	c := circuit.New(1, 1)
	c.AddLayer(circuit.OneQubitLayer).X(0)
	l := c.AddLayer(circuit.TwoQubitLayer)
	l.Add(circuit.Instruction{Gate: gates.Delay, Qubits: []int{0}, Params: []float64{2000}})
	c.AddLayer(circuit.MeasureLayer).Measure(0, 0)
	sched.Schedule(c, dev)

	cfg := sim.DefaultConfig()
	cfg.Shots = 600
	cfg.Seed = 11
	cfg.EnableZZ = false
	cfg.EnableStark = false
	cfg.EnableParity = false
	cfg.EnableQuasistatic = false
	cfg.EnableGateErr = false
	cfg.EnableReadoutErr = false
	r := sim.New(dev, cfg)
	res, err := r.Counts(c)
	if err != nil {
		t.Fatal(err)
	}
	p1 := res.Probability("1")
	want := math.Exp(-2000.0 / 1000.0) // ~0.135
	if math.Abs(p1-want) > 0.06 {
		t.Errorf("T1 decay off: got P(1)=%.3f want ~%.3f", p1, want)
	}
}
