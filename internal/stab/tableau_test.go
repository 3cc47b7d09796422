package stab

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"casq/internal/gates"
	"casq/internal/linalg"
	"casq/internal/pauli"
)

// randomCliffordStep applies one random Clifford gate to both the tableau
// and the statevector.
func randomCliffordStep(t *testing.T, rng *rand.Rand, tab *Tableau, psi linalg.Vector, n int) {
	t.Helper()
	switch rng.Intn(3) {
	case 0: // generic 1q Clifford via table
		kinds := []gates.Kind{gates.H, gates.S, gates.Sdg, gates.SX, gates.SXdg}
		g := kinds[rng.Intn(len(kinds))]
		q := rng.Intn(n)
		tbl := clifford1For(g, nil)
		if tbl == nil {
			t.Fatalf("%s should be Clifford", g)
		}
		tab.ApplyClifford1(q, tbl)
		psi.Apply1Q(gates.Matrix1Q(g), q)
	case 1: // Pauli gate
		ps := []pauli.Pauli{pauli.X, pauli.Y, pauli.Z}
		p := ps[rng.Intn(3)]
		q := rng.Intn(n)
		tab.ApplyPauli(q, p)
		psi.Apply1Q(p.Matrix(), q)
	default: // 2q Clifford
		kinds := []gates.Kind{gates.ECR, gates.CX, gates.SWAP}
		g := kinds[rng.Intn(len(kinds))]
		q0 := rng.Intn(n)
		q1 := rng.Intn(n)
		for q1 == q0 {
			q1 = rng.Intn(n)
		}
		tbl := clifford2For(g, nil)
		if tbl == nil {
			t.Fatalf("%s should be Clifford", g)
		}
		tab.ApplyClifford2(q0, q1, tbl)
		psi.Apply2Q(gates.Matrix2Q(g), q0, q1)
	}
}

// TestTableauExpectationsMatchStatevector drives random Clifford circuits
// through the bit-packed tableau and an exact statevector in lockstep and
// compares every Pauli expectation on the final state.
func TestTableauExpectationsMatchStatevector(t *testing.T) {
	const n = 4
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 25; trial++ {
		tab := NewTableau(n)
		psi := linalg.NewVector(n)
		psi[0] = 1
		steps := 3 + rng.Intn(12)
		for s := 0; s < steps; s++ {
			randomCliffordStep(t, rng, tab, psi, n)
		}
		// Exhaustive Pauli strings on 4 qubits (256 of them).
		idx := make([]pauli.Pauli, n)
		for {
			s := pauli.String{Ops: append([]pauli.Pauli(nil), idx...)}
			got, err := tab.Expect(s)
			if err != nil {
				t.Fatal(err)
			}
			want := s.ExpectationOnState(psi)
			if math.Abs(got-want) > 1e-9 {
				t.Fatalf("trial %d: <%v>: tableau %.3f, statevector %.3f", trial, s, got, want)
			}
			i := 0
			for ; i < n; i++ {
				if idx[i] < pauli.Z {
					idx[i]++
					break
				}
				idx[i] = pauli.I
			}
			if i == n {
				break
			}
		}
	}
}

// TestTableauMeasureBellCorrelation checks the CHP measurement update:
// measuring one half of a Bell pair is random, the other half then
// deterministic and equal, and the recorded branch-flip stabilizer
// anticommutes with Z on the measured qubit.
func TestTableauMeasureBellCorrelation(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 20; trial++ {
		tab := NewTableau(2)
		tab.ApplyClifford1(0, clifford1For(gates.H, nil))
		tab.ApplyClifford2(0, 1, clifford2For(gates.CX, nil))
		b0, det, fx, fz := tab.MeasureZ(0, rng)
		if det {
			t.Fatal("Bell measurement should be nondeterministic")
		}
		if fx == nil || fz == nil {
			t.Fatal("nondeterministic measurement must record a flip stabilizer")
		}
		// The flip stabilizer must anticommute with Z_0.
		pz := []uint64{1}
		px := []uint64{0}
		var par uint64
		par ^= fx[0] & pz[0]
		par ^= fz[0] & px[0]
		if !parity64(par) {
			t.Fatal("flip stabilizer commutes with Z0")
		}
		b1, det1, _, _ := tab.MeasureZ(1, rng)
		if !det1 {
			t.Fatal("second Bell measurement should be deterministic")
		}
		if b0 != b1 {
			t.Fatalf("Bell outcomes disagree: %d vs %d", b0, b1)
		}
	}
}

// TestTableauDeterministicMeasure pins deterministic outcomes: |0>, X|0>,
// and a +1 X eigenstate measured after H.
func TestTableauDeterministicMeasure(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	tab := NewTableau(1)
	if b, det, _, _ := tab.MeasureZ(0, rng); !det || b != 0 {
		t.Fatalf("|0> measurement: got %d det=%v", b, det)
	}
	tab.ApplyPauli(0, pauli.X)
	if b, det, _, _ := tab.MeasureZ(0, rng); !det || b != 1 {
		t.Fatalf("X|0> measurement: got %d det=%v", b, det)
	}
	// H|1> is |->: X expectation -1, Z expectation 0.
	tab.ApplyClifford1(0, clifford1For(gates.H, nil))
	sX, _ := pauli.ParseString("X")
	if v, err := tab.Expect(sX); err != nil || v != -1 {
		t.Fatalf("<X> on |->: %v err=%v", v, err)
	}
	sZ, _ := pauli.ParseString("Z")
	if v, err := tab.Expect(sZ); err != nil || v != 0 {
		t.Fatalf("<Z> on |->: %v err=%v", v, err)
	}
}

// TestSplitQuarter pins the Clifford/residual decomposition of virtual-Z
// angles.
func TestSplitQuarter(t *testing.T) {
	cases := []struct {
		theta float64
		k     int
		delta float64
	}{
		{0, 0, 0},
		{math.Pi / 2, 1, 0},
		{math.Pi, 2, 0},
		{-math.Pi / 2, 3, 0},
		{3 * math.Pi / 2, 3, 0},
		{2 * math.Pi, 0, 0},
		{0.01, 0, 0.01},
		{math.Pi/2 + 0.02, 1, 0.02},
		{-0.03, 0, -0.03},
	}
	for _, c := range cases {
		k, d := splitQuarter(c.theta)
		if k != c.k || math.Abs(d-c.delta) > 1e-12 {
			t.Fatalf("splitQuarter(%g) = (%d, %g), want (%d, %g)", c.theta, k, d, c.k, c.delta)
		}
	}
}

// sameAsRef fails unless the qubit-major tableau holds exactly the rows and
// signs of the row-major reference, with every padding bit past row 2n
// still clear.
func sameAsRef(t *testing.T, label string, got *Tableau, want *refTableau) {
	t.Helper()
	n := want.n
	for r := 0; r < 2*n; r++ {
		for q := 0; q < n; q++ {
			g := pauliFromXZ(getBit(got.xcol(q), r), getBit(got.zcol(q), r))
			if w := want.rowPauli(r, q); g != w {
				t.Fatalf("%s: row %d qubit %d: %v, reference %v", label, r, q, g, w)
			}
		}
		if (getBit(got.sign, r) == 1) != want.sign[r] {
			t.Fatalf("%s: row %d: sign differs from reference", label, r)
		}
	}
	for r := 2 * n; r < 64*got.rw; r++ {
		pad := getBit(got.sign, r)
		for q := 0; q < n; q++ {
			pad |= getBit(got.xcol(q), r) | getBit(got.zcol(q), r)
		}
		if pad != 0 {
			t.Fatalf("%s: padding row %d is not clear", label, r)
		}
	}
}

// TestTableauMatchesRowMajorReference drives random Clifford + Pauli +
// measurement programs through the qubit-major Tableau and the row-major
// reference with identically seeded measurement RNGs, at sizes whose 2n
// rows fall on both sides of the 64-row word boundaries, and requires
// exact agreement: outcome bits, determinism flags, branch-flip masks,
// every row and sign, and ExpectPacked on random and stabilizer-group
// Paulis.
func TestTableauMatchesRowMajorReference(t *testing.T) {
	kinds1 := []gates.Kind{gates.H, gates.S, gates.Sdg, gates.SX, gates.SXdg, gates.ZGate, gates.XGate, gates.YGate}
	var tabs1 []*pauli.Clifford1Q
	for _, g := range kinds1 {
		tabs1 = append(tabs1, clifford1For(g, nil))
	}
	tabs2 := []*pauli.CliffordTable{clifford2For(gates.ECR, nil), clifford2For(gates.CX, nil), clifford2For(gates.SWAP, nil)}
	for k := 1; k <= 3; k++ {
		tabs2 = append(tabs2, clifford2For(gates.RZZ, []float64{float64(k) * math.Pi / 2}))
	}
	paulis := []pauli.Pauli{pauli.X, pauli.Y, pauli.Z}
	for _, n := range []int{1, 31, 32, 63, 64, 127} {
		// Coverage: both measurement branches and both expectation paths.
		var nDet, nRand, nZero, nSigned int
		for seed := int64(1); seed <= 3; seed++ {
			label := fmt.Sprintf("n=%d seed=%d", n, seed)
			got, want := NewTableau(n), newRefTableau(n)
			prog := rand.New(rand.NewSource(seed))
			rngGot := rand.New(rand.NewSource(seed + 100))
			rngWant := rand.New(rand.NewSource(seed + 100))
			steps := 200 + 4*n
			for s := 0; s < steps; s++ {
				switch u := prog.Float64(); {
				case u < 0.15:
					q := prog.Intn(n)
					gb, gd, gfx, gfz := got.MeasureZ(q, rngGot)
					wb, wd, wfx, wfz := want.MeasureZ(q, rngWant)
					if gb != wb || gd != wd || !slices.Equal(gfx, wfx) || !slices.Equal(gfz, wfz) {
						t.Fatalf("%s step %d: MeasureZ(%d) = (%d, %v, %x, %x), reference (%d, %v, %x, %x)",
							label, s, q, gb, gd, gfx, gfz, wb, wd, wfx, wfz)
					}
					if gd {
						nDet++
					} else {
						nRand++
					}
				case u < 0.25:
					q, p := prog.Intn(n), paulis[prog.Intn(3)]
					got.ApplyPauli(q, p)
					want.ApplyPauli(q, p)
				case u < 0.6 || n < 2:
					q, tb := prog.Intn(n), tabs1[prog.Intn(len(tabs1))]
					got.ApplyClifford1(q, tb)
					want.ApplyClifford1(q, tb)
				default:
					q0, q1 := prog.Intn(n), prog.Intn(n-1)
					if q1 >= q0 {
						q1++
					}
					tb := tabs2[prog.Intn(len(tabs2))]
					got.ApplyClifford2(q0, q1, tb)
					want.ApplyClifford2(q0, q1, tb)
				}
				if s%16 == 0 || s == steps-1 {
					sameAsRef(t, fmt.Sprintf("%s step %d", label, s), got, want)
				}
			}
			words := (n + 63) / 64
			for trial := 0; trial < 40; trial++ {
				px, pz := make([]uint64, words), make([]uint64, words)
				switch trial % 4 {
				case 0, 1:
					// An element of the stabilizer group: nonzero expectation.
					for r := n; r < 2*n; r++ {
						if prog.Intn(2) == 1 {
							for w := 0; w < words; w++ {
								px[w] ^= want.x[r*words+w]
								pz[w] ^= want.z[r*words+w]
							}
						}
					}
					if trial%4 == 1 {
						// Times one single-qubit Pauli: usually expectation 0.
						q := prog.Intn(n)
						xb, zb := xzFromPauli(paulis[prog.Intn(3)])
						px[q/64] ^= xb << (q % 64)
						pz[q/64] ^= zb << (q % 64)
					}
				default:
					for q := 0; q < n; q++ {
						xb, zb := xzFromPauli(pauli.Pauli(prog.Intn(4)))
						px[q/64] |= xb << (q % 64)
						pz[q/64] |= zb << (q % 64)
					}
				}
				neg := prog.Intn(2) == 1
				g, w := got.ExpectPacked(px, pz, neg), want.ExpectPacked(px, pz, neg)
				if g != w {
					t.Fatalf("%s trial %d: ExpectPacked = %v, reference %v", label, trial, g, w)
				}
				if g == 0 {
					nZero++
				} else {
					nSigned++
				}
			}
			sameAsRef(t, label+" after ExpectPacked", got, want)
		}
		if nDet == 0 || nRand == 0 || nZero == 0 || nSigned == 0 {
			t.Fatalf("n=%d: coverage gap: %d deterministic / %d random measurements, %d zero / %d signed expectations",
				n, nDet, nRand, nZero, nSigned)
		}
	}
}

// TestTableauMeasureAfterSX pins a measurement whose pivot's destabilizer
// partner also contains X_q (SX|0>: stabilizer -Y, destabilizer X): the
// outcome is random, the partner is replaced rather than multiplied, and
// a repeated measurement returns the same bit.
func TestTableauMeasureAfterSX(t *testing.T) {
	for seed := int64(0); seed < 8; seed++ {
		rng := rand.New(rand.NewSource(seed))
		tab := NewTableau(1)
		tab.ApplyClifford1(0, clifford1For(gates.SX, nil))
		b0, det0, _, _ := tab.MeasureZ(0, rng)
		b1, det1, _, _ := tab.MeasureZ(0, rng)
		if det0 || !det1 || b0 != b1 {
			t.Fatalf("seed %d: SX|0> measured (%d, det=%v) then (%d, det=%v)", seed, b0, det0, b1, det1)
		}
	}
}
