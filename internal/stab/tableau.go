package stab

import (
	"fmt"
	"math/bits"
	"math/rand"
	"slices"
	"sync"

	"casq/internal/pauli"
)

// Tableau is a bit-packed Aaronson-Gottesman stabilizer tableau on n
// qubits: rows 0..n-1 are destabilizer generators, rows n..2n-1 stabilizer
// generators. Storage is qubit-major: qubit q owns one column of
// ⌈2n/64⌉ words holding the X (and, separately, Z) bits of all 2n rows,
// and the signs are one bitset over rows. A Clifford on q therefore
// rewrites a few whole words — the symplectic masks of its conjugation
// table plus a sign-flip mask built from the table's negative entries —
// updating 64 rows per word operation (stim's bit-sliced layout), never
// 2^n. A separate qubit-packed scratch row accumulates the stabilizer
// products behind deterministic measurements and expectation values.
type Tableau struct {
	n     int
	words int      // qubit-axis words of one packed row: ⌈n/64⌉
	rw    int      // row-axis words of one column: ⌈2n/64⌉
	x, z  []uint64 // column q is [q*rw, (q+1)*rw); bit r = row r's X (Z) bit on q
	sign  []uint64 // bit r set: row r carries sign -1
	act   []uint64 // MeasureZ: rows to multiply by the pivot; ExpectPacked: anticommuting rows
	lo    []uint64 // MeasureZ: bit-sliced mod-4 phase counter, low bit
	hi    []uint64 // MeasureZ: bit-sliced mod-4 phase counter, high bit

	sx, sz []uint64 // scratch row (qubit-packed)
	ssign  bool
	gx, gz []uint64 // one generator row gathered out of the columns
}

// NewTableau returns the tableau of |0...0>: destabilizer i = X_i,
// stabilizer i = Z_i, all signs +.
func NewTableau(n int) *Tableau {
	words := (n + 63) / 64
	rw := (2*n + 63) / 64
	t := &Tableau{
		n:     n,
		words: words,
		rw:    rw,
		x:     make([]uint64, n*rw),
		z:     make([]uint64, n*rw),
		sign:  make([]uint64, rw),
		act:   make([]uint64, rw),
		lo:    make([]uint64, rw),
		hi:    make([]uint64, rw),
		sx:    make([]uint64, words),
		sz:    make([]uint64, words),
		gx:    make([]uint64, words),
		gz:    make([]uint64, words),
	}
	t.reset()
	return t
}

// reset returns the tableau to |0...0>. The remaining buffers are scratch
// that every use clears or overwrites first.
func (t *Tableau) reset() {
	clear(t.x)
	clear(t.z)
	clear(t.sign)
	for i := 0; i < t.n; i++ {
		setBit(t.x[i*t.rw:], i, 1)
		setBit(t.z[i*t.rw:], t.n+i, 1)
	}
}

// N returns the qubit count.
func (t *Tableau) N() int { return t.n }

// xcol and zcol return qubit q's X and Z columns.
func (t *Tableau) xcol(q int) []uint64 { return t.x[q*t.rw : (q+1)*t.rw] }
func (t *Tableau) zcol(q int) []uint64 { return t.z[q*t.rw : (q+1)*t.rw] }

// getBit and setBit read and write bit i of a bitset.
func getBit(c []uint64, i int) uint64 { return c[i>>6] >> uint(i&63) & 1 }

func setBit(c []uint64, i int, v uint64) {
	c[i>>6] = c[i>>6]&^(1<<uint(i&63)) | v<<uint(i&63)
}

// pauliFromXZ maps symplectic bits to a Pauli: (0,0)=I, (1,0)=X, (1,1)=Y,
// (0,1)=Z.
func pauliFromXZ(xb, zb uint64) pauli.Pauli {
	switch {
	case xb == 1 && zb == 0:
		return pauli.X
	case xb == 1 && zb == 1:
		return pauli.Y
	case xb == 0 && zb == 1:
		return pauli.Z
	}
	return pauli.I
}

func xzFromPauli(p pauli.Pauli) (xb, zb uint64) {
	switch p {
	case pauli.X:
		return 1, 0
	case pauli.Y:
		return 1, 1
	case pauli.Z:
		return 0, 1
	}
	return 0, 0
}

// onesIf expands a symplectic bit into a word mask.
func onesIf(b uint64) uint64 { return -(b & 1) }

// cliff1 is a one-qubit Clifford's conjugation table together with its
// action as word masks: newX = (x & mxx) ^ (z & mzx), newZ = (x & mxz) ^ (z & mzz), and the sign
// flips on the words where the input Pauli is X, Y or Z and the table maps
// it to a negative image. Built once per conjugation table (cliff1For) and
// shared by the reference tableau (rows on the word axis) and the
// bit-plane shot engine (shots on the word axis).
type cliff1 struct {
	tbl                *pauli.Clifford1Q
	mxx, mzx, mxz, mzz uint64
	negX, negY, negZ   uint64
}

func newCliff1(tbl *pauli.Clifford1Q) cliff1 {
	cx := tbl.Conjugate(pauli.X)
	cz := tbl.Conjugate(pauli.Z)
	ax, az := xzFromPauli(cx.Out)
	bx, bz := xzFromPauli(cz.Out)
	neg := func(p pauli.Pauli) uint64 {
		if tbl.Conjugate(p).Sign < 0 {
			return ^uint64(0)
		}
		return 0
	}
	return cliff1{
		tbl: tbl,
		mxx: onesIf(ax), mzx: onesIf(bx), mxz: onesIf(az), mzz: onesIf(bz),
		negX: neg(pauli.X), negY: neg(pauli.Y), negZ: neg(pauli.Z),
	}
}

// symp2 is a two-qubit Clifford's conjugation table together with its
// action on the symplectic bits, as masks: out[j] = XOR over i of (in[i] & m[i][j]), with i, j
// running over (x0, z0, x1, z1). neg lists the input pairs whose image
// carries a -1 (at most 15), each as literal masks: the pair's minterm
// over (x0, z0, x1, z1) is AND over v of (in[v] ^ lit[v]). Built once per
// distinct CliffordTable (symp2For).
type symp2 struct {
	tbl *pauli.CliffordTable
	m   [4][4]uint64
	neg [][4]uint64
}

func newSymp2(tbl *pauli.CliffordTable) *symp2 {
	s := &symp2{tbl: tbl}
	ins := [4]pauli.Pair{
		{P0: pauli.X, P1: pauli.I},
		{P0: pauli.Z, P1: pauli.I},
		{P0: pauli.I, P1: pauli.X},
		{P0: pauli.I, P1: pauli.Z},
	}
	for i, p := range ins {
		c := tbl.Conjugate(p)
		x0, z0 := xzFromPauli(c.Out.P0)
		x1, z1 := xzFromPauli(c.Out.P1)
		s.m[i][0] = onesIf(x0)
		s.m[i][1] = onesIf(z0)
		s.m[i][2] = onesIf(x1)
		s.m[i][3] = onesIf(z1)
	}
	for p0 := pauli.I; p0 <= pauli.Z; p0++ {
		for p1 := pauli.I; p1 <= pauli.Z; p1++ {
			if tbl.Conjugate(pauli.Pair{P0: p0, P1: p1}).Sign >= 0 {
				continue
			}
			x0, z0 := xzFromPauli(p0)
			x1, z1 := xzFromPauli(p1)
			s.neg = append(s.neg, [4]uint64{^onesIf(x0), ^onesIf(z0), ^onesIf(x1), ^onesIf(z1)})
		}
	}
	return s
}

// maskMemo caches each conjugation table's word masks (*cliff1 per
// *pauli.Clifford1Q, *symp2 per *pauli.CliffordTable), so every table is
// lowered once per process. Tables are themselves memoized per gate, so the
// memo stays as small as the gate set.
var maskMemo sync.Map

func cliff1For(tbl *pauli.Clifford1Q) *cliff1 {
	if m, ok := maskMemo.Load(tbl); ok {
		return m.(*cliff1)
	}
	c := newCliff1(tbl)
	m, _ := maskMemo.LoadOrStore(tbl, &c)
	return m.(*cliff1)
}

func symp2For(tbl *pauli.CliffordTable) *symp2 {
	if m, ok := maskMemo.Load(tbl); ok {
		return m.(*symp2)
	}
	m, _ := maskMemo.LoadOrStore(tbl, newSymp2(tbl))
	return m.(*symp2)
}

// ApplyClifford1 conjugates every row through a one-qubit Clifford on q.
func (t *Tableau) ApplyClifford1(q int, tbl *pauli.Clifford1Q) {
	t.applyCliff1(q, cliff1For(tbl))
}

func (t *Tableau) applyCliff1(q int, c *cliff1) {
	xc, zc := t.xcol(q), t.zcol(q)
	for k := range xc {
		x, z := xc[k], zc[k]
		t.sign[k] ^= x&^z&c.negX | x&z&c.negY | z&^x&c.negZ
		xc[k] = x&c.mxx ^ z&c.mzx
		zc[k] = x&c.mxz ^ z&c.mzz
	}
}

// ApplyClifford2 conjugates every row through a two-qubit Clifford whose
// first operand is q0 (the Pair.P0 slot of the table).
func (t *Tableau) ApplyClifford2(q0, q1 int, tbl *pauli.CliffordTable) {
	t.applySymp2(q0, q1, symp2For(tbl))
}

func (t *Tableau) applySymp2(q0, q1 int, s *symp2) {
	xa, za := t.xcol(q0), t.zcol(q0)
	xb, zb := t.xcol(q1), t.zcol(q1)
	m := &s.m
	for k := range xa {
		x0, z0, x1, z1 := xa[k], za[k], xb[k], zb[k]
		var flip uint64
		for _, l := range s.neg {
			flip |= (x0 ^ l[0]) & (z0 ^ l[1]) & (x1 ^ l[2]) & (z1 ^ l[3])
		}
		t.sign[k] ^= flip
		xa[k] = (x0 & m[0][0]) ^ (z0 & m[1][0]) ^ (x1 & m[2][0]) ^ (z1 & m[3][0])
		za[k] = (x0 & m[0][1]) ^ (z0 & m[1][1]) ^ (x1 & m[2][1]) ^ (z1 & m[3][1])
		xb[k] = (x0 & m[0][2]) ^ (z0 & m[1][2]) ^ (x1 & m[2][2]) ^ (z1 & m[3][2])
		zb[k] = (x0 & m[0][3]) ^ (z0 & m[1][3]) ^ (x1 & m[2][3]) ^ (z1 & m[3][3])
	}
}

// ApplyPauli conjugates every row through a Pauli gate on q: rows whose
// factor at q anticommutes with p flip sign.
func (t *Tableau) ApplyPauli(q int, p pauli.Pauli) {
	px, pz := xzFromPauli(p)
	mx, mz := onesIf(px), onesIf(pz)
	xc, zc := t.xcol(q), t.zcol(q)
	for k := range xc {
		t.sign[k] ^= xc[k]&mz ^ zc[k]&mx
	}
}

// gather copies generator row r out of the columns into (gx, gz) and
// returns its sign bit.
func (t *Tableau) gather(r int) uint64 {
	clear(t.gx)
	clear(t.gz)
	w, b := r>>6, uint(r&63)
	for q := 0; q < t.n; q++ {
		t.gx[q>>6] |= (t.x[q*t.rw+w] >> b & 1) << uint(q&63)
		t.gz[q>>6] |= (t.z[q*t.rw+w] >> b & 1) << uint(q&63)
	}
	return getBit(t.sign, r)
}

// resetScratch sets the scratch row to +I.
func (t *Tableau) resetScratch() {
	clear(t.sx)
	clear(t.sz)
	t.ssign = false
}

// mulScratch sets scratch := row r * scratch with exact sign tracking.
// The product of two Hermitian Paulis is i^k times a Pauli; the per-qubit
// factors' exponents are counted word-parallel (+1 for XY, YZ, ZX; -1,
// counted as +3, for YX, ZY, XZ), and tableau row products always land on
// an even k (a Hermitian result), which is asserted.
func (t *Tableau) mulScratch(r int) {
	phase := 0 // exponent of i, mod 4
	if t.gather(r) == 1 {
		phase += 2
	}
	if t.ssign {
		phase += 2
	}
	for w := range t.sx {
		xs, zs, xd, zd := t.gx[w], t.gz[w], t.sx[w], t.sz[w]
		sX, sY, sZ := xs&^zs, xs&zs, zs&^xs
		dX, dY, dZ := xd&^zd, xd&zd, zd&^xd
		plus := sX&dY | sY&dZ | sZ&dX
		minus := sX&dZ | sY&dX | sZ&dY
		phase += bits.OnesCount64(plus) + 3*bits.OnesCount64(minus)
		t.sx[w] = xd ^ xs
		t.sz[w] = zd ^ zs
	}
	switch phase % 4 {
	case 0:
		t.ssign = false
	case 2:
		t.ssign = true
	default:
		panic(fmt.Sprintf("stab: non-Hermitian row product (phase i^%d)", phase%4))
	}
}

// lowRows returns the mask of rows below n within row word k.
func lowRows(k, n int) uint64 {
	switch {
	case (k+1)*64 <= n:
		return ^uint64(0)
	case k*64 >= n:
		return 0
	}
	return 1<<uint(n-k*64) - 1
}

// mulScratchRows multiplies into the scratch row, in increasing row order,
// the stabilizer partner r+n of every destabilizer r < n set in rows.
func (t *Tableau) mulScratchRows(rows []uint64) {
	for k, w := range rows {
		for w &= lowRows(k, t.n); w != 0; w &= w - 1 {
			t.mulScratch(k*64 + bits.TrailingZeros64(w) + t.n)
		}
	}
}

// MeasureZ measures Z on qubit q in place, drawing nondeterministic
// outcomes from rng. It returns the outcome bit, whether the outcome was
// deterministic, and — for nondeterministic measurements — the packed
// X/Z masks of the pre-measurement stabilizer that anticommuted with Z_q.
// Multiplying a Pauli frame by that mask maps the recorded collapse
// branch onto the opposite one, which is how the frame sampler re-draws
// nondeterministic outcomes per shot without losing multi-qubit outcome
// correlations.
func (t *Tableau) MeasureZ(q int, rng *rand.Rand) (bit int, deterministic bool, flipX, flipZ []uint64) {
	bit, deterministic = t.measureZ(q, rng)
	if deterministic {
		return bit, true, nil, nil
	}
	return bit, false, slices.Clone(t.gx), slices.Clone(t.gz)
}

// measureZ is MeasureZ without the copies: a nondeterministic measurement
// leaves the anticommuting pre-measurement stabilizer in (gx, gz), valid
// until the next tableau call.
func (t *Tableau) measureZ(q int, rng *rand.Rand) (bit int, deterministic bool) {
	xq := t.xcol(q)
	p := -1
	for k, w := range xq {
		if w &^= lowRows(k, t.n); w != 0 {
			p = k*64 + bits.TrailingZeros64(w)
			break
		}
	}
	if p < 0 {
		// Deterministic: accumulate stabilizer rows paired with
		// destabilizers that contain X_q into the scratch row; its sign is
		// the outcome.
		t.resetScratch()
		t.mulScratchRows(xq)
		if t.ssign {
			bit = 1
		}
		return bit, true
	}
	// Nondeterministic: record the anticommuting stabilizer for frame
	// redraws, then perform the standard CHP update.
	sp := t.gather(p)
	// Every other row containing X_q becomes (row p) * row, all rows in one
	// pass per qubit: p's factor at qubit j is a constant, the rows' factors
	// are whole words, and each row's i-exponent accumulates in the
	// bit-sliced counter (hi, lo) mod 4. Destabilizer p-n is skipped: it
	// is overwritten below, and it anticommutes with row p, so its product
	// would not be Hermitian.
	pw, pb := p>>6, uint(p&63)
	d := p - t.n
	copy(t.act, xq)
	t.act[pw] &^= 1 << pb
	t.act[d>>6] &^= 1 << uint(d&63)
	clear(t.lo)
	clear(t.hi)
	for j := 0; j < t.n; j++ {
		xj, zj := t.xcol(j), t.zcol(j)
		xs, zs := xj[pw]>>pb&1, zj[pw]>>pb&1
		if xs|zs == 0 {
			continue
		}
		sX, sY, sZ := onesIf(xs&^zs), onesIf(xs&zs), onesIf(zs&^xs)
		mx, mz := onesIf(xs), onesIf(zs)
		for k, a := range t.act {
			xd, zd := xj[k], zj[k]
			dX, dY, dZ := xd&^zd, xd&zd, zd&^xd
			plus := (sX&dY | sY&dZ | sZ&dX) & a
			minus := (sX&dZ | sY&dX | sZ&dY) & a
			carry := t.lo[k] & plus
			t.lo[k] ^= plus
			t.hi[k] ^= carry
			borrow := minus &^ t.lo[k]
			t.lo[k] ^= minus
			t.hi[k] ^= borrow
			xj[k] = xd ^ a&mx
			zj[k] = zd ^ a&mz
		}
	}
	spm := onesIf(sp)
	for k, a := range t.act {
		if odd := t.lo[k] & a; odd != 0 {
			b := uint(bits.TrailingZeros64(odd))
			ph := 2*((t.sign[k]^t.hi[k]^spm)>>b&1) + 1
			panic(fmt.Sprintf("stab: non-Hermitian row product (phase i^%d)", ph))
		}
		t.sign[k] ^= a & (t.hi[k] ^ spm)
	}
	// Destabilizer p-n := old stabilizer p; stabilizer p := +/- Z_q.
	for j := 0; j < t.n; j++ {
		xj, zj := t.xcol(j), t.zcol(j)
		setBit(xj, d, getBit(xj, p))
		setBit(zj, d, getBit(zj, p))
		setBit(xj, p, 0)
		setBit(zj, p, 0)
	}
	setBit(t.zcol(q), p, 1)
	setBit(t.sign, d, sp)
	bit = rng.Intn(2)
	setBit(t.sign, p, uint64(bit))
	return bit, false
}

// ExpectPacked returns <psi| P |psi> for the packed Pauli (px, pz) with
// the given sign (true = -P): exactly +1, -1, or 0 on a stabilizer state.
func (t *Tableau) ExpectPacked(px, pz []uint64, neg bool) float64 {
	// act: the rows anticommuting with P, by symplectic parity over P's
	// support, 64 rows per word.
	clear(t.act)
	for w := range px {
		for s := px[w] | pz[w]; s != 0; s &= s - 1 {
			b := bits.TrailingZeros64(s)
			q := w*64 + b
			if pz[w]>>uint(b)&1 == 1 {
				for k, v := range t.xcol(q) {
					t.act[k] ^= v
				}
			}
			if px[w]>>uint(b)&1 == 1 {
				for k, v := range t.zcol(q) {
					t.act[k] ^= v
				}
			}
		}
	}
	for k, a := range t.act {
		if a&^lowRows(k, t.n) != 0 {
			return 0
		}
	}
	// P commutes with the whole group, so it is +/- a product of
	// stabilizer generators: generator i participates iff destabilizer i
	// anticommutes with P.
	t.resetScratch()
	t.mulScratchRows(t.act)
	for w := range t.sx {
		if t.sx[w] != px[w] || t.sz[w] != pz[w] {
			panic("stab: stabilizer-product reconstruction mismatch")
		}
	}
	val := 1.0
	if t.ssign != neg {
		val = -1
	}
	return val
}

// Expect returns the expectation of a pauli.String (phase must be real,
// i.e. Phase in {0, 2}).
func (t *Tableau) Expect(s pauli.String) (float64, error) {
	if len(s.Ops) != t.n {
		return 0, fmt.Errorf("stab: Pauli string length %d != %d qubits", len(s.Ops), t.n)
	}
	ph := ((s.Phase % 4) + 4) % 4
	if ph%2 != 0 {
		return 0, fmt.Errorf("stab: non-Hermitian observable phase i^%d", ph)
	}
	px := make([]uint64, t.words)
	pz := make([]uint64, t.words)
	for q, p := range s.Ops {
		xb, zb := xzFromPauli(p)
		px[q/64] |= xb << (q % 64)
		pz[q/64] |= zb << (q % 64)
	}
	return t.ExpectPacked(px, pz, ph == 2), nil
}
