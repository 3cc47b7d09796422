package stab

import (
	"fmt"
	"math/bits"
	"math/rand"

	"casq/internal/pauli"
)

// refTableau is the row-major Aaronson-Gottesman tableau the qubit-major
// Tableau replaced, kept as the slow reference the differential tests
// compare against: rows 0..n-1 are destabilizers, n..2n-1 stabilizers,
// row 2n is a scratch row; each row stores its X/Z bits over qubit words
// plus one sign, and every update walks rows one Pauli at a time through
// the conjugation tables.
type refTableau struct {
	n, words int
	x, z     []uint64 // (2n+1) rows * words
	sign     []bool   // per row: true = -1
}

func newRefTableau(n int) *refTableau {
	words := (n + 63) / 64
	t := &refTableau{
		n:     n,
		words: words,
		x:     make([]uint64, (2*n+1)*words),
		z:     make([]uint64, (2*n+1)*words),
		sign:  make([]bool, 2*n+1),
	}
	for i := 0; i < n; i++ {
		t.x[i*words+i/64] |= 1 << (i % 64)
		t.z[(n+i)*words+i/64] |= 1 << (i % 64)
	}
	return t
}

// rowPauli extracts the Pauli of row r at qubit q.
func (t *refTableau) rowPauli(r, q int) pauli.Pauli {
	w, b := q/64, uint(q%64)
	xb := (t.x[r*t.words+w] >> b) & 1
	zb := (t.z[r*t.words+w] >> b) & 1
	return pauliFromXZ(xb, zb)
}

// setRowPauli writes the Pauli of row r at qubit q.
func (t *refTableau) setRowPauli(r, q int, p pauli.Pauli) {
	w, b := q/64, uint(q%64)
	xb, zb := xzFromPauli(p)
	t.x[r*t.words+w] = t.x[r*t.words+w]&^(1<<b) | xb<<b
	t.z[r*t.words+w] = t.z[r*t.words+w]&^(1<<b) | zb<<b
}

func (t *refTableau) ApplyClifford1(q int, tbl *pauli.Clifford1Q) {
	for r := 0; r < 2*t.n; r++ {
		p := t.rowPauli(r, q)
		if p == pauli.I {
			continue
		}
		c := tbl.Conjugate(p)
		t.setRowPauli(r, q, c.Out)
		if c.Sign < 0 {
			t.sign[r] = !t.sign[r]
		}
	}
}

func (t *refTableau) ApplyClifford2(q0, q1 int, tbl *pauli.CliffordTable) {
	for r := 0; r < 2*t.n; r++ {
		p0 := t.rowPauli(r, q0)
		p1 := t.rowPauli(r, q1)
		if p0 == pauli.I && p1 == pauli.I {
			continue
		}
		c := tbl.Conjugate(pauli.Pair{P0: p0, P1: p1})
		t.setRowPauli(r, q0, c.Out.P0)
		t.setRowPauli(r, q1, c.Out.P1)
		if c.Sign < 0 {
			t.sign[r] = !t.sign[r]
		}
	}
}

func (t *refTableau) ApplyPauli(q int, p pauli.Pauli) {
	if p == pauli.I {
		return
	}
	for r := 0; r < 2*t.n; r++ {
		if !t.rowPauli(r, q).Commutes(p) {
			t.sign[r] = !t.sign[r]
		}
	}
}

// mulRowFrom sets row dst := row src * row dst with exact sign tracking.
func (t *refTableau) mulRowFrom(dst, src int) {
	phase := 0 // exponent of i, mod 4
	if t.sign[dst] {
		phase += 2
	}
	if t.sign[src] {
		phase += 2
	}
	for q := 0; q < t.n; q++ {
		ps := t.rowPauli(src, q)
		pd := t.rowPauli(dst, q)
		if ps == pauli.I || pd == pauli.I {
			continue
		}
		k, _ := pauli.Mul(ps, pd)
		phase += k
	}
	for w := 0; w < t.words; w++ {
		t.x[dst*t.words+w] ^= t.x[src*t.words+w]
		t.z[dst*t.words+w] ^= t.z[src*t.words+w]
	}
	switch phase % 4 {
	case 0:
		t.sign[dst] = false
	case 2:
		t.sign[dst] = true
	default:
		panic(fmt.Sprintf("stab: non-Hermitian row product (phase i^%d)", phase%4))
	}
}

// anticommutesMask reports whether row r anticommutes with the packed
// Pauli (px, pz): the symplectic form parity over all qubits.
func (t *refTableau) anticommutesMask(r int, px, pz []uint64) bool {
	var par uint64
	for w := 0; w < t.words; w++ {
		par ^= t.x[r*t.words+w] & pz[w]
		par ^= t.z[r*t.words+w] & px[w]
	}
	return parity64(par)
}

func parity64(v uint64) bool { return bits.OnesCount64(v)&1 == 1 }

func (t *refTableau) MeasureZ(q int, rng *rand.Rand) (bit int, deterministic bool, flipX, flipZ []uint64) {
	w, b := q/64, uint(q%64)
	p := -1
	for r := t.n; r < 2*t.n; r++ {
		if (t.x[r*t.words+w]>>b)&1 == 1 {
			p = r
			break
		}
	}
	if p >= 0 {
		flipX = append([]uint64(nil), t.x[p*t.words:(p+1)*t.words]...)
		flipZ = append([]uint64(nil), t.z[p*t.words:(p+1)*t.words]...)
		// Destabilizer d is overwritten below and anticommutes with row p,
		// so it is not multiplied.
		d := p - t.n
		for r := 0; r < 2*t.n; r++ {
			if r != p && r != d && (t.x[r*t.words+w]>>b)&1 == 1 {
				t.mulRowFrom(r, p)
			}
		}
		copy(t.x[d*t.words:(d+1)*t.words], t.x[p*t.words:(p+1)*t.words])
		copy(t.z[d*t.words:(d+1)*t.words], t.z[p*t.words:(p+1)*t.words])
		t.sign[d] = t.sign[p]
		for i := 0; i < t.words; i++ {
			t.x[p*t.words+i] = 0
			t.z[p*t.words+i] = 0
		}
		t.z[p*t.words+w] = 1 << b
		bit = rng.Intn(2)
		t.sign[p] = bit == 1
		return bit, false, flipX, flipZ
	}
	sc := 2 * t.n
	for i := 0; i < t.words; i++ {
		t.x[sc*t.words+i] = 0
		t.z[sc*t.words+i] = 0
	}
	t.sign[sc] = false
	for r := 0; r < t.n; r++ {
		if (t.x[r*t.words+w]>>b)&1 == 1 {
			t.mulRowFrom(sc, r+t.n)
		}
	}
	if t.sign[sc] {
		bit = 1
	}
	return bit, true, nil, nil
}

func (t *refTableau) ExpectPacked(px, pz []uint64, neg bool) float64 {
	for r := t.n; r < 2*t.n; r++ {
		if t.anticommutesMask(r, px, pz) {
			return 0
		}
	}
	sc := 2 * t.n
	for i := 0; i < t.words; i++ {
		t.x[sc*t.words+i] = 0
		t.z[sc*t.words+i] = 0
	}
	t.sign[sc] = false
	for r := 0; r < t.n; r++ {
		if t.anticommutesMask(r, px, pz) {
			t.mulRowFrom(sc, r+t.n)
		}
	}
	for w := 0; w < t.words; w++ {
		if t.x[sc*t.words+w] != px[w] || t.z[sc*t.words+w] != pz[w] {
			panic("stab: stabilizer-product reconstruction mismatch")
		}
	}
	val := 1.0
	if t.sign[sc] != neg {
		val = -1
	}
	return val
}
