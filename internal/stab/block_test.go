package stab

import (
	"math"
	"math/bits"
	"testing"

	"casq/internal/circuit"
	"casq/internal/device"
	"casq/internal/gates"
	"casq/internal/pauli"
	"casq/internal/sched"
	"casq/internal/sim"
)

// drawBits draws n 64-shot masks from a Bernoulli table and returns the
// total set-bit count.
func drawBits(b *bern, r *wordRNG, n int) int {
	ones := 0
	for i := 0; i < n; i++ {
		ones += bits.OnesCount64(b.draw(r))
	}
	return ones
}

// TestBernoulliMaskFrequencies checks the word-mask Bernoulli sampler on
// both paths (sparse geometric gaps and dense binary expansion): the
// set-bit frequency over a large fixed-seed sample must sit within 5
// standard errors of p.
func TestBernoulliMaskFrequencies(t *testing.T) {
	const words = 4000
	n := float64(words * 64)
	for _, p := range []float64{0, 0.0005, 0.004, 0.04, 0.06, 0.25, 0.5, 0.75, 1} {
		b := makeBern(p)
		r := &wordRNG{}
		r.seed(12345)
		got := float64(drawBits(&b, r, words)) / n
		tol := 5 * math.Sqrt(p*(1-p)/n)
		if math.Abs(got-p) > tol {
			t.Errorf("p=%g: frequency %.6f off by more than %.6f", p, got, tol)
		}
	}
}

// chanProgram builds a minimal program around the given ops (no Cliffords,
// no tableau needed for channel sampling).
func chanProgram(nq, ncb int, ops []op, meas []measInfo) (*program, *blockProgram) {
	p := &program{nq: nq, ncb: ncb, words: (nq + 63) / 64, ops: ops, meas: meas}
	return p, p.blockPlan()
}

// TestChan1MaskFrequencies is the alias/threshold-table property test for
// single-qubit channels: sampled X/Y/Z outcome frequencies over many
// blocks must match the PTA-derived probabilities under a chi-square
// bound.
func TestChan1MaskFrequencies(t *testing.T) {
	const pX, pY, pZ = 0.02, 0.03, 0.05
	p, bp := chanProgram(1, 0, []op{
		{kind: opChan1, q0: 0, thrX: pX, thrXY: pX + pY, thrXYZ: pX + pY + pZ},
	}, nil)
	f := newBlockFrame(p)
	const blocks = 4000
	var nI, nX, nY, nZ float64
	for b := 0; b < blocks; b++ {
		f.reset(sim.BlockSeed(7, b))
		f.run(bp)
		x, z := f.x[0], f.z[0]
		nX += float64(bits.OnesCount64(x &^ z))
		nY += float64(bits.OnesCount64(x & z))
		nZ += float64(bits.OnesCount64(z &^ x))
		nI += float64(bits.OnesCount64(^(x | z)))
	}
	n := float64(blocks * 64)
	chi2 := 0.0
	for _, c := range []struct{ obs, p float64 }{
		{nI, 1 - pX - pY - pZ}, {nX, pX}, {nY, pY}, {nZ, pZ},
	} {
		exp := c.p * n
		chi2 += (c.obs - exp) * (c.obs - exp) / exp
	}
	// 3 degrees of freedom; 25 is far beyond the 99.99th percentile.
	if chi2 > 25 {
		t.Errorf("chan1 outcome chi-square = %.2f (I=%.0f X=%.0f Y=%.0f Z=%.0f of %.0f)",
			chi2, nI, nX, nY, nZ, n)
	}
}

// TestChan1PureZFastPath covers the zOnly short-circuit (the coherent
// dephasing channels): only the Z plane moves, at rate thrXYZ.
func TestChan1PureZFastPath(t *testing.T) {
	const pZ = 0.04
	p, bp := chanProgram(1, 0, []op{{kind: opChan1, q0: 0, thrXYZ: pZ}}, nil)
	f := newBlockFrame(p)
	const blocks = 4000
	ones := 0
	for b := 0; b < blocks; b++ {
		f.reset(sim.BlockSeed(13, b))
		f.run(bp)
		if f.x[0] != 0 {
			t.Fatal("pure-Z channel touched the X plane")
		}
		ones += bits.OnesCount64(f.z[0])
	}
	n := float64(blocks * 64)
	got := float64(ones) / n
	if tol := 5 * math.Sqrt(pZ*(1-pZ)/n); math.Abs(got-pZ) > tol {
		t.Errorf("pure-Z rate %.6f, want %.6f +/- %.6f", got, pZ, tol)
	}
}

// TestZZMaskFrequencies checks the correlated Z(x)Z channel: both qubits'
// Z planes flip on exactly the same shots, at the derived rate.
func TestZZMaskFrequencies(t *testing.T) {
	const pZZ = 0.07
	p, bp := chanProgram(2, 0, []op{{kind: opZZ, q0: 0, q1: 1, prob: pZZ}}, nil)
	f := newBlockFrame(p)
	const blocks = 4000
	ones := 0
	for b := 0; b < blocks; b++ {
		f.reset(sim.BlockSeed(21, b))
		f.run(bp)
		if f.z[0] != f.z[1] {
			t.Fatal("ZZ flips decorrelated between the qubits")
		}
		if f.x[0] != 0 || f.x[1] != 0 {
			t.Fatal("ZZ channel touched an X plane")
		}
		ones += bits.OnesCount64(f.z[0])
	}
	n := float64(blocks * 64)
	got := float64(ones) / n
	if tol := 5 * math.Sqrt(pZZ*(1-pZZ)/n); math.Abs(got-pZZ) > tol {
		t.Errorf("ZZ rate %.6f, want %.6f +/- %.6f", got, pZZ, tol)
	}
}

// TestDepol2MaskFrequencies checks the two-qubit depolarizing table: the
// event rate matches prob and the 15 non-identity Pauli pairs are drawn
// roughly uniformly (chi-square over the pair categories).
func TestDepol2MaskFrequencies(t *testing.T) {
	const pD = 0.12
	p, bp := chanProgram(2, 0, []op{{kind: opDepol2, q0: 0, q1: 1, prob: pD}}, nil)
	f := newBlockFrame(p)
	const blocks = 6000
	var cat [16]float64
	for b := 0; b < blocks; b++ {
		f.reset(sim.BlockSeed(33, b))
		f.run(bp)
		for s := 0; s < 64; s++ {
			k0 := int(f.x[0]>>uint(s))&1 | int(f.z[0]>>uint(s))&1<<1
			k1 := int(f.x[1]>>uint(s))&1 | int(f.z[1]>>uint(s))&1<<1
			cat[k0*4+k1]++
		}
	}
	n := float64(blocks * 64)
	chi2 := 0.0
	for k, obs := range cat {
		exp := pD / 15 * n
		if k == 0 {
			exp = (1 - pD) * n
		}
		chi2 += (obs - exp) * (obs - exp) / exp
	}
	// 15 degrees of freedom; 45 is far beyond the 99.99th percentile.
	if chi2 > 45 {
		t.Errorf("depol2 outcome chi-square = %.2f (categories %v)", chi2, cat)
	}
}

// TestMeasureMaskFrequencies covers the measurement tables: deterministic
// reference outcomes with readout-error flips at the calibrated rate, and
// nondeterministic outcomes redrawn 50/50 with the branch-flip stabilizer
// applied to exactly the redrawn shots.
func TestMeasureMaskFrequencies(t *testing.T) {
	// Deterministic ref=1 with 8% readout flip.
	const pRO = 0.08
	p, bp := chanProgram(1, 1,
		[]op{{kind: opMeasure, q0: 0, cbit: 0, prob: pRO, mi: 0}},
		[]measInfo{{ref: 1, det: true}})
	f := newBlockFrame(p)
	const blocks = 4000
	zeros := 0
	for b := 0; b < blocks; b++ {
		f.reset(sim.BlockSeed(41, b))
		f.run(bp)
		zeros += 64 - bits.OnesCount64(f.cbits[0])
	}
	n := float64(blocks * 64)
	got := float64(zeros) / n
	if tol := 5 * math.Sqrt(pRO*(1-pRO)/n); math.Abs(got-pRO) > tol {
		t.Errorf("readout flip rate %.6f, want %.6f +/- %.6f", got, pRO, tol)
	}

	// Nondeterministic: outcomes redraw 50/50, and the recorded
	// anticommuting stabilizer (X on qubit 1 here) flips on exactly the
	// redrawn shots — so qubit 1's X plane must equal the outcome word.
	p2, bp2 := chanProgram(2, 1,
		[]op{{kind: opMeasure, q0: 0, cbit: 0, prob: 0, mi: 0}},
		[]measInfo{{ref: 0, det: false, fx: []uint64{0b10}, fz: []uint64{0}}})
	f2 := newBlockFrame(p2)
	ones := 0
	for b := 0; b < blocks; b++ {
		f2.reset(sim.BlockSeed(43, b))
		f2.run(bp2)
		if f2.x[1] != f2.cbits[0] {
			t.Fatal("branch-flip stabilizer not applied to exactly the redrawn shots")
		}
		ones += bits.OnesCount64(f2.cbits[0])
	}
	got = float64(ones) / n
	if tol := 5 * math.Sqrt(0.25/n); math.Abs(got-0.5) > tol {
		t.Errorf("nondeterministic outcome rate %.6f, want 0.5 +/- %.6f", got, tol)
	}
}

// TestBlockCliffordMasksMatchScalar is the symplectic-mask property test:
// for every cached Clifford table used by the compiler, driving a
// bit-plane frame through the mask form must agree with the scalar
// Conjugate on all Pauli inputs (checked word-parallel: every shot carries
// the same input Pauli).
func TestBlockCliffordMasksMatchScalar(t *testing.T) {
	for _, g := range []gates.Kind{gates.H, gates.S, gates.Sdg, gates.SX, gates.SXdg, gates.ZGate} {
		c1 := clifford1For(g, nil)
		if c1 == nil {
			t.Fatalf("%s: no Clifford table", g)
		}
		p, bp := chanProgram(1, 0, []op{cliff1Op(0, c1)}, nil)
		f := newBlockFrame(p)
		for in := 0; in < 4; in++ {
			xb, zb := uint64(in&1), uint64(in>>1)
			f.reset(0)
			f.x[0], f.z[0] = onesIf(xb), onesIf(zb)
			f.run(bp)
			wx, wz := xzFromPauli(c1.Conjugate(pauliFromXZ(xb, zb)).Out)
			if f.x[0] != onesIf(wx) || f.z[0] != onesIf(wz) {
				t.Errorf("%s on (x=%d,z=%d): block planes (%x,%x), want (%x,%x)",
					g, xb, zb, f.x[0], f.z[0], onesIf(wx), onesIf(wz))
			}
		}
	}
	for _, g := range []gates.Kind{gates.ECR, gates.CX, gates.SWAP} {
		c2 := clifford2For(g, nil)
		if c2 == nil {
			t.Fatalf("%s: no Clifford table", g)
		}
		p, bp := chanProgram(2, 0, []op{cliff2Op(0, 1, c2)}, nil)
		f := newBlockFrame(p)
		for in := 0; in < 16; in++ {
			x0, z0 := uint64(in&1), uint64(in>>1&1)
			x1, z1 := uint64(in>>2&1), uint64(in>>3&1)
			f.reset(0)
			f.x[0], f.z[0] = onesIf(x0), onesIf(z0)
			f.x[1], f.z[1] = onesIf(x1), onesIf(z1)
			f.run(bp)
			c := c2.Conjugate(pauli.Pair{P0: pauliFromXZ(x0, z0), P1: pauliFromXZ(x1, z1)})
			wx0, wz0 := xzFromPauli(c.Out.P0)
			wx1, wz1 := xzFromPauli(c.Out.P1)
			if f.x[0] != onesIf(wx0) || f.z[0] != onesIf(wz0) || f.x[1] != onesIf(wx1) || f.z[1] != onesIf(wz1) {
				t.Errorf("%s on input %04b: block planes disagree with scalar conjugation", g, in)
			}
		}
	}
}

var blockSink uint64

// TestBlockShotLoopZeroAlloc mirrors sim's TestShotLoopZeroAlloc for the
// bit-plane path: after the one-time frame construction, the steady-state
// block body — reset, run every op with channels and measurements, read
// an observable parity word — performs zero heap allocations.
func TestBlockShotLoopZeroAlloc(t *testing.T) {
	dev := device.NewLine("alloc", 4, device.DefaultOptions())
	c := circuit.New(4, 4)
	c.AddLayer(circuit.OneQubitLayer).H(0).H(2)
	c.AddLayer(circuit.TwoQubitLayer).ECR(0, 1).ECR(2, 3)
	c.AddLayer(circuit.TwoQubitLayer).ECR(0, 1).ECR(2, 3)
	ml := c.AddLayer(circuit.MeasureLayer)
	for q := 0; q < 4; q++ {
		ml.Measure(q, q)
	}
	sched.Schedule(c, dev)
	cfg := sim.DefaultConfig()
	cfg.EnableReadoutErr = true
	e := New(dev, cfg)
	p, err := e.compile(c)
	if err != nil {
		t.Fatal(err)
	}
	bp := p.blockPlan()
	pl, err := e.planObs(p, sim.ObsSpec{0: 'X', 1: 'X'})
	if err != nil {
		t.Fatal(err)
	}
	f := newBlockFrame(p)
	f.reset(sim.BlockSeed(e.Cfg.Seed, 0))
	f.run(bp)
	blockSink = f.anticommuteWord(&pl)

	blk := 1
	allocs := testing.AllocsPerRun(50, func() {
		f.reset(sim.BlockSeed(e.Cfg.Seed, blk))
		blk++
		f.run(bp)
		blockSink ^= f.anticommuteWord(&pl)
	})
	if allocs != 0 {
		t.Errorf("steady-state block body allocates %.1f objects per block, want 0", allocs)
	}
}
