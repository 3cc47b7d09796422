package stab

import (
	"math/bits"
	"math/rand"

	"casq/internal/pauli"
	"casq/internal/sim"
)

// frame is one worker's reusable Pauli-frame state: the packed X/Z masks
// of the current frame, the classical bits of the shot in flight, and a
// reseedable RNG. One frame value is owned by exactly one worker for its
// whole lifetime, so the steady-state shot loop allocates nothing and the
// race detector can verify the buffers never cross goroutines.
type frame struct {
	x, z  []uint64
	cbits []int
	src   *sim.ShotSource
	rng   *rand.Rand
}

func newFrame(p *program) *frame {
	src := new(sim.ShotSource)
	return &frame{
		x:     make([]uint64, p.words),
		z:     make([]uint64, p.words),
		cbits: make([]int, p.ncb),
		src:   src,
		rng:   rand.New(src),
	}
}

// reset clears the frame and classical bits and reseeds the RNG for a new
// trajectory.
func (f *frame) reset(seed int64) {
	f.src.Seed(seed)
	for i := range f.x {
		f.x[i] = 0
		f.z[i] = 0
	}
	for i := range f.cbits {
		f.cbits[i] = 0
	}
}

func (f *frame) xorPauli(q int, code int) {
	w, b := q/64, uint(q%64)
	// code: 0=I, 1=X, 2=Y, 3=Z (matching the statevector kernel's draw).
	switch code {
	case 1:
		f.x[w] ^= 1 << b
	case 2:
		f.x[w] ^= 1 << b
		f.z[w] ^= 1 << b
	case 3:
		f.z[w] ^= 1 << b
	}
}

// run propagates one trajectory's frame through the program, sampling
// every derived Pauli channel and recording measured bits.
func (f *frame) run(p *program) {
	for i := range p.ops {
		o := &p.ops[i]
		switch o.kind {
		case opCliff1:
			w, b := o.q0/64, uint(o.q0%64)
			xb := (f.x[w] >> b) & 1
			zb := (f.z[w] >> b) & 1
			if xb == 0 && zb == 0 {
				continue
			}
			c := o.c1.tbl.Conjugate(pauliFromXZ(xb, zb))
			nx, nz := xzFromPauli(c.Out)
			f.x[w] = f.x[w]&^(1<<b) | nx<<b
			f.z[w] = f.z[w]&^(1<<b) | nz<<b
		case opCliff2:
			w0, b0 := o.q0/64, uint(o.q0%64)
			w1, b1 := o.q1/64, uint(o.q1%64)
			p0 := pauliFromXZ((f.x[w0]>>b0)&1, (f.z[w0]>>b0)&1)
			p1 := pauliFromXZ((f.x[w1]>>b1)&1, (f.z[w1]>>b1)&1)
			if p0 == pauli.I && p1 == pauli.I {
				continue
			}
			c := o.c2.tbl.Conjugate(pauli.Pair{P0: p0, P1: p1})
			nx0, nz0 := xzFromPauli(c.Out.P0)
			nx1, nz1 := xzFromPauli(c.Out.P1)
			f.x[w0] = f.x[w0]&^(1<<b0) | nx0<<b0
			f.z[w0] = f.z[w0]&^(1<<b0) | nz0<<b0
			f.x[w1] = f.x[w1]&^(1<<b1) | nx1<<b1
			f.z[w1] = f.z[w1]&^(1<<b1) | nz1<<b1
		case opPauliGate:
			// Conjugating a Pauli frame through a Pauli gate changes at
			// most its (unobservable) sign.
		case opChan1:
			u := f.rng.Float64()
			if u >= o.thrXYZ {
				continue
			}
			switch {
			case u < o.thrX:
				f.xorPauli(o.q0, 1)
			case u < o.thrXY:
				f.xorPauli(o.q0, 2)
			default:
				f.xorPauli(o.q0, 3)
			}
		case opZZ:
			if f.rng.Float64() < o.prob {
				f.z[o.q0/64] ^= 1 << (o.q0 % 64)
				f.z[o.q1/64] ^= 1 << (o.q1 % 64)
			}
		case opDepol2:
			if f.rng.Float64() < o.prob {
				k := 1 + f.rng.Intn(15)
				f.xorPauli(o.q0, k%4)
				f.xorPauli(o.q1, k/4)
			}
		case opMeasure:
			inf := &p.meas[o.mi]
			bit := inf.ref ^ int((f.x[o.q0/64]>>(o.q0%64))&1)
			if !inf.det && f.rng.Intn(2) == 1 {
				// Redraw the nondeterministic collapse: flip the recorded
				// branch and move the frame onto the opposite one via the
				// recorded anticommuting stabilizer, preserving outcome
				// correlations across later measurements.
				bit ^= 1
				for w := range f.x {
					f.x[w] ^= inf.fx[w]
					f.z[w] ^= inf.fz[w]
				}
			}
			if o.prob > 0 && f.rng.Float64() < o.prob {
				bit ^= 1
			}
			if o.cbit >= 0 && o.cbit < len(f.cbits) {
				f.cbits[o.cbit] = bit
			}
		}
	}
}

// anticommutes reports whether the frame anticommutes with the packed
// Pauli (px, pz) — the per-shot sign of an observable relative to the
// reference state.
func (f *frame) anticommutes(px, pz []uint64) bool {
	var par uint64
	for w := range f.x {
		par ^= f.x[w] & pz[w]
		par ^= f.z[w] & px[w]
	}
	return bits.OnesCount64(par)&1 == 1
}

// numShots returns the effective shot count (at least 1).
func (e *Engine) numShots() int {
	if e.Cfg.Shots <= 0 {
		return 1
	}
	return e.Cfg.Shots
}

// forEachShot runs one reset+run trajectory per shot index through the
// shared engine shot loop (sim.ForEachShot): per-worker reusable frames,
// sim.ShotSeed seeding — the identical discipline to the statevector
// kernel, from the same code.
func (e *Engine) forEachShot(p *program, fn func(i int, f *frame)) {
	sim.ForEachShot(e.numShots(), e.Cfg.Workers, func() *frame { return newFrame(p) },
		func(i int, f *frame) {
			f.reset(sim.ShotSeed(e.Cfg.Seed, i))
			f.run(p)
			fn(i, f)
		})
}
