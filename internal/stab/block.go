package stab

import (
	"math"
	"math/bits"

	"casq/internal/obs"
	"casq/internal/sim"
)

// This file is the bit-plane shot engine: the batched counterpart of
// frame.go's scalar-per-shot reference path. Where the scalar path walks
// one trajectory at a time through per-qubit packed words, the bit-plane
// path transposes the axes — storage is indexed [qubit][shot bit], one
// uint64 word holding the X (or Z) frame bit of 64 shots — so every
// program op advances 64 trajectories per word operation, stim-style:
//
//   - Clifford conjugation becomes a symplectic GF(2) linear map applied
//     as masked XORs of whole shot words (signs are unobservable on
//     frames, exactly as in the scalar path);
//   - Pauli channels draw 64-shot Bernoulli masks from precomputed
//     threshold tables (see bern): sparse probabilities sample the set
//     bits geometrically, dense ones combine random words along the
//     binary expansion of p — both exact, both O(1)ish per 64 shots;
//   - measurements read a 64-shot outcome word straight off the X plane,
//     redraw nondeterministic branches with one fair-coin word (flipping
//     the recorded anticommuting stabilizer onto exactly the redrawn
//     shots), and record the word into a classical bit-plane.
//
// Each 64-shot block owns a deterministic RNG seeded by
// sim.BlockSeed(seed, block), so results are bit-identical for any worker
// count; the shots%64 remainder runs through the scalar reference frames
// (sim.ShotSeed seeding) as the tail of the same loop.

// wordRNG is the block sampler: a SplitMix64 stream, seeded per 64-shot
// block. It is deliberately not math/rand — the block path draws whole
// words, and the scalar reference path keeps its own rand.Source streams.
type wordRNG struct{ s uint64 }

func (r *wordRNG) seed(v int64) { r.s = uint64(v) }

// golden is the SplitMix64 stream increment.
const golden = 0x9e3779b97f4a7c15

func (r *wordRNG) next() uint64 {
	r.s += golden
	return mix64(r.s)
}

// mix64 is the SplitMix64 output function. The stream is counter-based:
// draw k (1-based) from state s is mix64(s + k*golden), so any draw can be
// computed without walking the ones before it.
func mix64(z uint64) uint64 {
	z = (z ^ z>>30) * 0xbf58476d1ce4e5b9
	z = (z ^ z>>27) * 0x94d049bb133111eb
	return z ^ z>>31
}

// float64 returns a uniform draw strictly inside (0, 1).
func (r *wordRNG) float64() float64 {
	return (float64(r.next()>>11) + 0.5) * (1.0 / (1 << 53))
}

// intn returns a uniform draw in [0, n) via the multiply-shift reduction.
func (r *wordRNG) intn(n int) int {
	hi, _ := bits.Mul64(r.next(), uint64(n))
	return int(hi)
}

// bernSparse is the probability below which a Bernoulli mask is cheaper to
// sample by geometric gaps between set bits (expected 64p log draws) than
// by combining words along the binary expansion of p (up to 53 word
// draws). Every calibration-derived channel in practice sits far below it.
const bernSparse = 0.05

// bern is one precomputed Bernoulli-mask table: everything needed to draw
// a 64-shot mask whose bits are independently 1 with probability p. The
// tables are built once at compile time — this is the "threshold table"
// half of the channel tables; chan1 ops pair one bern with conditional
// X/Y/Z thresholds (see blockOp).
type bern struct {
	p      float64
	invLog float64 // 1/ln(1-p): sparse path gap scale; 0 selects the dense path
	p53    uint64  // p in 0.53 fixed point: dense path binary expansion
}

func makeBern(p float64) bern {
	b := bern{p: p}
	switch {
	case p <= 0 || p >= 1:
	case p < bernSparse:
		b.invLog = 1 / math.Log1p(-p)
	default:
		b.p53 = uint64(math.Ldexp(p, 53))
		if b.p53 == 0 {
			b.p53 = 1
		}
	}
	return b
}

// draw samples one 64-shot Bernoulli(p) mask.
func (b *bern) draw(r *wordRNG) uint64 {
	switch {
	case b.p <= 0:
		return 0
	case b.p >= 1:
		return ^uint64(0)
	case b.invLog != 0:
		// Geometric gaps: the index of each set bit advances by
		// 1 + floor(ln(U)/ln(1-p)) — the exact Bernoulli process, visiting
		// only the set bits. The gap is range-checked as a float before
		// the int conversion: below p ~ 4e-18 it can exceed the int64
		// range, and the conversion would wrap the index negative.
		var w uint64
		for i := -1; ; {
			g := math.Log(r.float64()) * b.invLog
			if g >= 64 {
				return w
			}
			if i += 1 + int(g); i >= 64 {
				return w
			}
			w |= 1 << uint(i)
		}
	}
	// Dense: the mask is the LSB-first chain over the 53-bit fraction of p
	// (w = r_t, then r_j | w where bit j is set and r_j & w where it is
	// clear, j = t+1..52, t the lowest set bit) — exact for the 53-bit
	// truncation of p, like any float64 comparison. It is evaluated
	// MSB-first instead: a lane is decided by the first j from the top
	// where r_j's bit equals p's bit (1 under OR, 0 under AND), so each
	// draw settles half the open lanes and ~8 draws decide all 64. The
	// stream is counter-based, so r_j is computed directly, and the state
	// still advances by all 53-t draws: mask and RNG state are exactly
	// those of the chain.
	p53 := b.p53
	t := bits.TrailingZeros64(p53)
	s0 := r.s
	r.s += uint64(53-t) * golden
	var w uint64
	open := ^uint64(0)
	for j := 52; j > t; j-- {
		x := mix64(s0 + uint64(j-t+1)*golden)
		if p53>>uint(j)&1 == 1 {
			w |= open & x
			open &^= x
		} else {
			open &= x
		}
		if open == 0 {
			return w
		}
	}
	return w | open&mix64(s0+golden)
}

// blockOp is one program op lowered to bit-plane form: Cliffords carry
// their symplectic masks, channels their Bernoulli tables plus conditional
// thresholds, measurements their reference word and branch-flip qubit
// lists. The slice is index-parallel free — it replaces the scalar op
// stream entirely for the block path.
type blockOp struct {
	kind   opKind
	q0, q1 int32

	// opCliff1: newX = (x & mxx) ^ (z & mzx); newZ = (x & mxz) ^ (z & mzz).
	mxx, mzx, mxz, mzz uint64
	// opCliff2 symplectic masks.
	sy *symp2

	// Channel table: flip draws the 64-shot event mask; for opChan1 a
	// flipped shot resolves to X/Y/Z by condX/condXY (conditional
	// thresholds within the flip: u < condX -> X, u < condXY -> Y, else
	// Z); zOnly short-circuits the pure-dephasing shape (no X/Y part) to
	// a single word XOR. opMeasure reuses flip for the readout error.
	flip         bern
	condX, conXY float64
	zOnly        bool

	// opMeasure.
	refMask  uint64
	det      bool
	fxQ, fzQ []int32
	cbit     int32
}

// blockProgram is the compiled bit-plane op stream of a program.
type blockProgram struct {
	nq, ncb int
	ops     []blockOp
}

// blockPlan lowers the program's op stream into bit-plane form: Clifford
// ops copy the symplectic masks the compiler derived per table (the same
// masks the reference tableau ran on), channels get their Bernoulli and
// threshold tables. Called once per compiled program, before the shot
// loop; the plan lives in the program's arena (a private one for programs
// built without).
func (p *program) blockPlan() *blockProgram {
	ar := p.ar
	if ar == nil {
		ar = new(arena)
	}
	bp := &ar.bp
	bp.nq, bp.ncb = p.nq, p.ncb
	bp.ops = resized(bp.ops, len(p.ops))
	qs := ar.qs[:0]
	for i := range p.ops {
		o := &p.ops[i]
		b := &bp.ops[i]
		b.kind = o.kind
		b.q0, b.q1 = int32(o.q0), int32(o.q1)
		switch o.kind {
		case opCliff1:
			b.mxx, b.mzx, b.mxz, b.mzz = o.c1.mxx, o.c1.mzx, o.c1.mxz, o.c1.mzz
		case opCliff2:
			b.sy = o.c2
		case opPauliGate:
			// Frame signs are unobservable; nothing to lower.
		case opChan1:
			b.flip = makeBern(o.thrXYZ)
			if o.thrXYZ > 0 {
				b.condX = o.thrX / o.thrXYZ
				b.conXY = o.thrXY / o.thrXYZ
			}
			b.zOnly = o.thrXY == 0
		case opZZ, opDepol2:
			b.flip = makeBern(o.prob)
		case opMeasure:
			inf := &p.meas[o.mi]
			if inf.ref == 1 {
				b.refMask = ^uint64(0)
			}
			b.det = inf.det
			if !inf.det {
				n := len(qs)
				qs = appendBits(qs, inf.fx)
				m := len(qs)
				qs = appendBits(qs, inf.fz)
				b.fxQ, b.fzQ = qs[n:m:m], qs[m:len(qs):len(qs)]
			}
			b.flip = makeBern(o.prob)
			b.cbit = int32(o.cbit)
		}
	}
	ar.qs = qs
	return bp
}

// appendBits appends the indices of the set bits of a packed qubit mask to
// dst, in increasing order.
func appendBits(dst []int32, mask []uint64) []int32 {
	for w, v := range mask {
		for ; v != 0; v &= v - 1 {
			dst = append(dst, int32(w*64+bits.TrailingZeros64(v)))
		}
	}
	return dst
}

// blockFrame is one worker's reusable bit-plane state: the X/Z frame bits
// of 64 shots per qubit word, the classical outcome planes, and the
// per-block RNG. One blockFrame is owned by exactly one worker, so the
// steady-state block loop allocates nothing.
type blockFrame struct {
	x, z  []uint64 // [qubit] -> 64-shot word
	cbits []uint64 // [classical bit] -> 64-shot word
	rng   wordRNG
}

func newBlockFrame(p *program) *blockFrame {
	return &blockFrame{
		x:     make([]uint64, p.nq),
		z:     make([]uint64, p.nq),
		cbits: make([]uint64, p.ncb),
	}
}

// reset clears the planes and reseeds the block RNG.
func (f *blockFrame) reset(seed int64) {
	f.rng.seed(seed)
	for i := range f.x {
		f.x[i] = 0
		f.z[i] = 0
	}
	for i := range f.cbits {
		f.cbits[i] = 0
	}
}

// xorCode flips Pauli code (1=X, 2=Y, 3=Z) into the frame planes of qubit
// q on the shots selected by mask.
func (f *blockFrame) xorCode(q int32, code int, mask uint64) {
	switch code {
	case 1:
		f.x[q] ^= mask
	case 2:
		f.x[q] ^= mask
		f.z[q] ^= mask
	case 3:
		f.z[q] ^= mask
	}
}

// run advances all 64 shots of the block through the program: word-
// parallel Clifford conjugation, mask-sampled channels, word measurements.
func (f *blockFrame) run(bp *blockProgram) {
	for i := range bp.ops {
		o := &bp.ops[i]
		switch o.kind {
		case opCliff1:
			x, z := f.x[o.q0], f.z[o.q0]
			f.x[o.q0] = (x & o.mxx) ^ (z & o.mzx)
			f.z[o.q0] = (x & o.mxz) ^ (z & o.mzz)
		case opCliff2:
			m := &o.sy.m
			x0, z0 := f.x[o.q0], f.z[o.q0]
			x1, z1 := f.x[o.q1], f.z[o.q1]
			f.x[o.q0] = (x0 & m[0][0]) ^ (z0 & m[1][0]) ^ (x1 & m[2][0]) ^ (z1 & m[3][0])
			f.z[o.q0] = (x0 & m[0][1]) ^ (z0 & m[1][1]) ^ (x1 & m[2][1]) ^ (z1 & m[3][1])
			f.x[o.q1] = (x0 & m[0][2]) ^ (z0 & m[1][2]) ^ (x1 & m[2][2]) ^ (z1 & m[3][2])
			f.z[o.q1] = (x0 & m[0][3]) ^ (z0 & m[1][3]) ^ (x1 & m[2][3]) ^ (z1 & m[3][3])
		case opPauliGate:
			// Sign-only on frames: unobservable.
		case opChan1:
			m := o.flip.draw(&f.rng)
			if m == 0 {
				continue
			}
			if o.zOnly {
				// Pure dephasing (the coherent-integral channels): one XOR.
				f.z[o.q0] ^= m
				continue
			}
			var xm, zm uint64
			for w := m; w != 0; w &= w - 1 {
				bit := uint64(1) << uint(bits.TrailingZeros64(w))
				u := f.rng.float64()
				switch {
				case u < o.condX:
					xm |= bit
				case u < o.conXY:
					xm |= bit
					zm |= bit
				default:
					zm |= bit
				}
			}
			f.x[o.q0] ^= xm
			f.z[o.q0] ^= zm
		case opZZ:
			m := o.flip.draw(&f.rng)
			f.z[o.q0] ^= m
			f.z[o.q1] ^= m
		case opDepol2:
			m := o.flip.draw(&f.rng)
			for w := m; w != 0; w &= w - 1 {
				bit := uint64(1) << uint(bits.TrailingZeros64(w))
				k := 1 + f.rng.intn(15)
				f.xorCode(o.q0, k%4, bit)
				f.xorCode(o.q1, k/4, bit)
			}
		case opMeasure:
			bitsW := f.x[o.q0] ^ o.refMask
			if !o.det {
				// Redraw the nondeterministic collapse for each shot with
				// one fair-coin word: flipped shots move onto the opposite
				// branch via the recorded anticommuting stabilizer,
				// preserving outcome correlations across later
				// measurements — the word-parallel mirror of the scalar
				// path's per-shot redraw.
				r := f.rng.next()
				bitsW ^= r
				for _, q := range o.fxQ {
					f.x[q] ^= r
				}
				for _, q := range o.fzQ {
					f.z[q] ^= r
				}
			}
			if o.flip.p > 0 {
				bitsW ^= o.flip.draw(&f.rng)
			}
			if o.cbit >= 0 && int(o.cbit) < len(f.cbits) {
				f.cbits[o.cbit] = bitsW
			}
		}
	}
}

// anticommuteWord returns the per-shot anticommutation parity of the
// frame block against a compiled observable: bit s is 1 iff shot s's
// frame anticommutes with the observable — 64 shots per XOR, using the
// observable's precomputed qubit lists.
func (f *blockFrame) anticommuteWord(pl *obsPlan) uint64 {
	var par uint64
	for _, q := range pl.zQ {
		par ^= f.x[q]
	}
	for _, q := range pl.xQ {
		par ^= f.z[q]
	}
	return par
}

// blockWorker is one worker's reusable state for the block-granular shot
// loop: the bit-plane frame for full 64-shot words, a lazily built scalar
// reference frame for the remainder tail, and a classical-bit scratch for
// key building.
type blockWorker struct {
	bf *blockFrame
	sf *frame
	p  *program
}

func newBlockWorker(p *program) *blockWorker {
	return &blockWorker{bf: newBlockFrame(p), p: p}
}

// scalar returns the worker's scalar reference frame, building it on
// first use (only the one worker that claims the tail unit ever pays).
func (w *blockWorker) scalar() *frame {
	if w.sf == nil {
		w.sf = newFrame(w.p)
	}
	return w.sf
}

// forEachShotBlock runs the bit-plane shot loop over the compiled program:
// full 64-shot blocks reset to sim.BlockSeed and run the lowered block
// plan; the shots%64 remainder tail runs the scalar reference frame with
// sim.ShotSeed seeding, so tail shots match what the scalar engine would
// produce at the same indices. Per-unit seeding keeps results
// bit-identical for any worker count.
func (e *Engine) forEachShotBlock(p *program,
	onBlock func(b, base int, bf *blockFrame), onTail func(i int, f *frame)) {
	bp := p.blockPlan()
	tr, lane := e.Cfg.Tracer, e.Cfg.Lane
	sim.ForEachShotBlock(e.numShots(), e.Cfg.Workers,
		func() *blockWorker { return newBlockWorker(p) },
		func(b, base int, w *blockWorker) {
			var sp obs.Span
			if tr.Enabled() {
				sp = tr.Start("stab.block").WithLane(lane)
			}
			w.bf.reset(sim.BlockSeed(e.Cfg.Seed, b))
			w.bf.run(bp)
			onBlock(b, base, w.bf)
			sp.End()
		},
		func(i int, w *blockWorker) {
			f := w.scalar()
			f.reset(sim.ShotSeed(e.Cfg.Seed, i))
			f.run(p)
			onTail(i, f)
		})
}
