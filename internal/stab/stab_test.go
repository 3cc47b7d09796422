package stab

import (
	"math"
	"testing"

	"casq/internal/circuit"
	"casq/internal/device"
	"casq/internal/gates"
	"casq/internal/sched"
	"casq/internal/sim"
)

func noiselessCfg(shots int) sim.Config {
	return sim.Config{Shots: shots, Seed: 9}
}

// TestEngineGHZExpectations: on a noiseless GHZ circuit every frame is
// trivial, so the engine must reproduce the exact stabilizer expectations.
func TestEngineGHZExpectations(t *testing.T) {
	dev := device.NewLine("ghz3", 3, device.DefaultOptions())
	c := circuit.New(3, 0)
	c.AddLayer(circuit.OneQubitLayer).H(0)
	c.AddLayer(circuit.TwoQubitLayer).CX(0, 1)
	c.AddLayer(circuit.TwoQubitLayer).CX(1, 2)
	sched.Schedule(c, dev)
	e := New(dev, noiselessCfg(16))
	vals, err := e.Expectations(c, []sim.ObsSpec{
		{0: 'X', 1: 'X', 2: 'X'},
		{0: 'Z', 1: 'Z'},
		{0: 'Z'},
		{0: 'Y', 1: 'Y', 2: 'X'},
	})
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{1, 1, 0, -1}
	for i, w := range want {
		if math.Abs(vals[i]-w) > 1e-12 {
			t.Fatalf("obs %d: got %.6f want %.1f", i, vals[i], w)
		}
	}
}

// TestEngineBellCounts: noiseless Bell sampling must produce only
// correlated bitstrings, close to 50/50, and be deterministic in the seed
// and worker count.
func TestEngineBellCounts(t *testing.T) {
	dev := device.NewLine("bell2", 2, device.DefaultOptions())
	c := circuit.New(2, 2)
	c.AddLayer(circuit.OneQubitLayer).H(0)
	c.AddLayer(circuit.TwoQubitLayer).CX(0, 1)
	c.AddLayer(circuit.MeasureLayer).Measure(0, 0).Measure(1, 1)
	sched.Schedule(c, dev)

	cfg := noiselessCfg(4000)
	res, err := New(dev, cfg).Counts(c)
	if err != nil {
		t.Fatal(err)
	}
	if res.Counts["01"] != 0 || res.Counts["10"] != 0 {
		t.Fatalf("anticorrelated Bell outcomes: %v", res.Counts)
	}
	p00 := res.Probability("00")
	if math.Abs(p00-0.5) > 0.05 {
		t.Fatalf("P(00) = %.3f, want ~0.5", p00)
	}
	// Worker-count independence, bit-identical.
	for _, workers := range []int{1, 3, 8} {
		cfg2 := cfg
		cfg2.Workers = workers
		res2, err := New(dev, cfg2).Counts(c)
		if err != nil {
			t.Fatal(err)
		}
		if len(res2.Counts) != len(res.Counts) {
			t.Fatalf("workers=%d: counts differ", workers)
		}
		for k, v := range res.Counts {
			if res2.Counts[k] != v {
				t.Fatalf("workers=%d: counts[%s] = %d, want %d", workers, k, res2.Counts[k], v)
			}
		}
	}
}

// TestEngineReadoutError: readout flips corrupt a deterministic |00>
// sample at roughly the calibrated rate.
func TestEngineReadoutError(t *testing.T) {
	opts := device.DefaultOptions()
	opts.ReadoutErr = 0.10
	dev := device.NewLine("ro2", 2, opts)
	c := circuit.New(2, 2)
	c.AddLayer(circuit.MeasureLayer).Measure(0, 0).Measure(1, 1)
	sched.Schedule(c, dev)
	cfg := noiselessCfg(8000)
	cfg.EnableReadoutErr = true
	res, err := New(dev, cfg).Counts(c)
	if err != nil {
		t.Fatal(err)
	}
	flip0 := 1 - res.Probability("0x")
	if flip0 < 0.04 || flip0 > 0.25 {
		t.Fatalf("readout flip rate %.3f implausible for calibration ~0.1x[0.6,1.5]", flip0)
	}
}

// TestEngineZZDephasing: an idle |+> pair under always-on ZZ must lose
// <X> coherence at the analytic twirl-averaged rate cos(phi).
func TestEngineZZDephasing(t *testing.T) {
	opts := device.DefaultOptions()
	opts.DeltaMax = 0
	opts.QuasistaticSigma = 0
	opts.Err1Q, opts.Err2Q, opts.ReadoutErr = 0, 0, 0
	opts.T1Min, opts.T1Max = 0, 0
	dev := device.NewLine("zz2", 2, opts)
	c := circuit.New(2, 0)
	c.AddLayer(circuit.OneQubitLayer).H(0).H(1)
	idle := c.AddLayer(circuit.TwoQubitLayer)
	const dur = 400.0
	idle.Add(circuit.Instruction{Gate: gates.Delay, Qubits: []int{0}, Params: []float64{dur}})
	idle.Add(circuit.Instruction{Gate: gates.Delay, Qubits: []int{1}, Params: []float64{dur}})
	// Uncompute so <Z> reads the coherence.
	c.AddLayer(circuit.OneQubitLayer).H(0).H(1)
	sched.Schedule(c, dev)

	cfg := noiselessCfg(60000)
	cfg.EnableZZ = true
	e := New(dev, cfg)
	vals, err := e.Expectations(c, []sim.ObsSpec{{0: 'Z'}})
	if err != nil {
		t.Fatal(err)
	}
	// The phase accumulates over the first two layers (the H layer idles
	// under ZZ too): phi = omega * T on both the single-qubit and the ZZ
	// term, each contributing a cos(phi) coherence factor — the exact
	// idle-pair analytic value (1 + cos(2 phi)) / 2 = cos^2(phi).
	T := c.Layers[0].Duration + c.Layers[1].Duration
	w := 2 * math.Pi * dev.ZZ[device.NewEdge(0, 1)] * 1e-9
	want := math.Cos(w*T) * math.Cos(w*T)
	if math.Abs(vals[0]-want) > 0.01 {
		t.Fatalf("<Z> after ZZ dephasing: got %.4f want %.4f", vals[0], want)
	}
}

// TestSupportsPolicy pins the twirl-representability rules.
func TestSupportsPolicy(t *testing.T) {
	ok := circuit.New(2, 1)
	ok.AddLayer(circuit.OneQubitLayer).H(0).RZ(1, math.Pi/2)
	ok.AddLayer(circuit.TwoQubitLayer).ECR(0, 1)
	ok.AddLayer(circuit.MeasureLayer).Measure(0, 0)
	if err := Supports(ok); err != nil {
		t.Fatalf("Clifford circuit rejected: %v", err)
	}

	badRZ := circuit.New(1, 0)
	badRZ.AddLayer(circuit.OneQubitLayer).RZ(0, 0.3)
	if Supports(badRZ) == nil {
		t.Fatal("untagged rz(0.3) must be rejected")
	}

	ecRZ := circuit.New(1, 0)
	l := ecRZ.AddLayer(circuit.OneQubitLayer)
	l.Add(circuit.Instruction{Gate: gates.RZ, Qubits: []int{0}, Params: []float64{0.3}, Tag: "ec"})
	if err := Supports(ecRZ); err != nil {
		t.Fatalf("ec-tagged rz(0.3) must be accepted: %v", err)
	}

	badU := circuit.New(2, 0)
	badU.AddLayer(circuit.TwoQubitLayer).Ucan(0, 1, 0.2, 0.1, 0.05)
	if Supports(badU) == nil {
		t.Fatal("generic Ucan must be rejected")
	}

	cond := circuit.New(1, 1)
	cond.AddLayer(circuit.OneQubitLayer).CondX(0, 0, 1)
	if Supports(cond) == nil {
		t.Fatal("conditioned gates must be rejected")
	}
}

// TestHasTwirl detects twirl layers and tags.
func TestHasTwirl(t *testing.T) {
	c := circuit.New(2, 0)
	c.AddLayer(circuit.TwoQubitLayer).ECR(0, 1)
	if HasTwirl(c) {
		t.Fatal("untwirled circuit flagged as twirled")
	}
	tw := c.AddLayer(circuit.TwirlLayer)
	tw.Add(circuit.Instruction{Gate: gates.XGate, Qubits: []int{0}, Tag: "twirl"})
	if !HasTwirl(c) {
		t.Fatal("twirl layer not detected")
	}
}

// TestEngineInfo sanity-checks the compile summary used by the benchmarks.
func TestEngineInfo(t *testing.T) {
	dev := device.NewLine("info3", 3, device.DefaultOptions())
	c := circuit.New(3, 1)
	c.AddLayer(circuit.OneQubitLayer).H(0)
	c.AddLayer(circuit.TwoQubitLayer).ECR(0, 1)
	c.AddLayer(circuit.MeasureLayer).Measure(0, 0)
	sched.Schedule(c, dev)
	inf, err := New(dev, sim.DefaultConfig()).Info(c)
	if err != nil {
		t.Fatal(err)
	}
	if inf.Cliffords < 2 || inf.Channels == 0 || inf.Measures != 1 || inf.Ops != inf.Cliffords+inf.Channels+inf.Measures {
		t.Fatalf("implausible compile info: %+v", inf)
	}
}

// TestSupportsRejectsNonFiniteAngles: NaN and ±Inf angles pass the
// Clifford residual test by comparison alone, so Supports must reject them
// explicitly — for every tag — and the Clifford-table memos must not grow
// with NaN keys that never match.
func TestSupportsRejectsNonFiniteAngles(t *testing.T) {
	for _, v := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		for _, tag := range []string{"", "ec", "twirl"} {
			rz := circuit.New(1, 0)
			rz.AddLayer(circuit.OneQubitLayer).Add(circuit.Instruction{Gate: gates.RZ, Qubits: []int{0}, Params: []float64{v}, Tag: tag})
			if Supports(rz) == nil {
				t.Errorf("rz(%g) tag %q accepted", v, tag)
			}
			rzz := circuit.New(2, 0)
			rzz.AddLayer(circuit.TwoQubitLayer).Add(circuit.Instruction{Gate: gates.RZZ, Qubits: []int{0, 1}, Params: []float64{v}, Tag: tag})
			if Supports(rzz) == nil {
				t.Errorf("rzz(%g) tag %q accepted", v, tag)
			}
		}
		u := circuit.New(1, 0)
		u.AddLayer(circuit.OneQubitLayer).U(0, math.Pi/2, v, math.Pi)
		if Supports(u) == nil {
			t.Errorf("u(pi/2, %g, pi) accepted", v)
		}
	}

	memoSizes := func() (int, int) {
		tableMu.Lock()
		defer tableMu.Unlock()
		return len(cliff1Memo), len(cliff2Memo)
	}
	n1, n2 := memoSizes()
	for i := 0; i < 5; i++ {
		if clifford1For(gates.U3, []float64{math.Pi / 2, math.NaN(), math.Pi}) != nil {
			t.Fatal("u with a NaN angle resolved to a Clifford table")
		}
		if clifford2For(gates.Ucan, []float64{math.NaN(), 0, 0}) != nil {
			t.Fatal("ucan with a NaN angle resolved to a Clifford table")
		}
	}
	if m1, m2 := memoSizes(); m1 != n1 || m2 != n2 {
		t.Fatalf("NaN keys memoized: cliff1Memo %d -> %d, cliff2Memo %d -> %d", n1, m1, n2, m2)
	}
}
