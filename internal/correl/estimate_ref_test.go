package correl

import (
	"math"
	"math/bits"
	"math/rand"
	"reflect"
	"runtime"
	"testing"

	"casq/internal/sim"
)

// refEstimate is the straightforward serial estimator the hoisted,
// row-parallel Estimate replaced: every pair recomputes both marginals of
// every estimate through refCovOf/refCorrOf. Estimate must match it bit
// for bit.
func refEstimate(pb sim.PackedBits) Matrix {
	n, S := len(pb.Planes), pb.Shots
	m := Matrix{
		N: n, Shots: S,
		Ones: make([]int, n),
		P:    make([]float64, n),
		N11:  make([]int, Pairs(n)),
		Cov:  make([]float64, Pairs(n)), Corr: make([]float64, Pairs(n)),
		SECov: make([]float64, Pairs(n)), SECorr: make([]float64, Pairs(n)),
	}
	if n == 0 || S == 0 {
		return m
	}
	words := blockWords(S)
	rowOnes := make([][]int, n)
	for i := range rowOnes {
		rowOnes[i] = make([]int, words)
		for w := 0; w < words; w++ {
			rowOnes[i][w] = bits.OnesCount64(pb.Planes[i][w] & wordMask(S, w))
			m.Ones[i] += rowOnes[i][w]
		}
		m.P[i] = float64(m.Ones[i]) / float64(S)
	}
	xw := make([]int, words)
	thetaCov := make([]float64, words)
	thetaCorr := make([]float64, words)
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			nxor := 0
			for w := 0; w < words; w++ {
				c := bits.OnesCount64((pb.Planes[i][w] ^ pb.Planes[j][w]) & wordMask(S, w))
				xw[w] = c
				nxor += c
			}
			k := PairIndex(n, i, j)
			n11 := (m.Ones[i] + m.Ones[j] - nxor) / 2
			m.N11[k] = n11
			m.Cov[k] = refCovOf(n11, m.Ones[i], m.Ones[j], S)
			m.Corr[k] = refCorrOf(n11, m.Ones[i], m.Ones[j], S)
			if words > 1 {
				var meanCov, meanCorr float64
				for w := 0; w < words; w++ {
					Sw := S - wordShots(S, w)
					oi := m.Ones[i] - rowOnes[i][w]
					oj := m.Ones[j] - rowOnes[j][w]
					n11w := (oi + oj - (nxor - xw[w])) / 2
					thetaCov[w] = refCovOf(n11w, oi, oj, Sw)
					thetaCorr[w] = refCorrOf(n11w, oi, oj, Sw)
					meanCov += thetaCov[w]
					meanCorr += thetaCorr[w]
				}
				W := float64(words)
				meanCov /= W
				meanCorr /= W
				var vc, vr float64
				for w := 0; w < words; w++ {
					dc := thetaCov[w] - meanCov
					dr := thetaCorr[w] - meanCorr
					vc += dc * dc
					vr += dr * dr
				}
				m.SECov[k] = math.Sqrt((W - 1) / W * vc)
				m.SECorr[k] = math.Sqrt((W - 1) / W * vr)
			}
		}
	}
	return m
}

func refCovOf(n11, oi, oj, S int) float64 {
	if S == 0 {
		return 0
	}
	fS := float64(S)
	return float64(n11)/fS - (float64(oi)/fS)*(float64(oj)/fS)
}

func refCorrOf(n11, oi, oj, S int) float64 {
	if S == 0 || oi == 0 || oi == S || oj == 0 || oj == S {
		return 0
	}
	fS := float64(S)
	pi, pj := float64(oi)/fS, float64(oj)/fS
	return refCovOf(n11, oi, oj, S) / math.Sqrt(pi*(1-pi)*pj*(1-pj))
}

// edgePlanes returns n planes over S shots covering the estimator's edge
// cases: an all-zero and an all-one plane (degenerate full-sample
// marginals), a plane whose flips all sit in word 0 (degenerate once the
// jackknife deletes that word), and random planes of mixed density. The
// three special planes sit at both ends, so each is the first and the
// second member of some pair. Every plane's final word carries garbage
// past the last shot — ones on the all-one plane, random bits elsewhere —
// that must never reach a count.
func edgePlanes(rng *rand.Rand, n, S int) sim.PackedBits {
	pb := sim.NewPackedBits(n, S)
	for i := range pb.Planes {
		kind := i
		if i >= n-3 {
			kind = n - 1 - i
		}
		for w := range pb.Planes[i] {
			switch kind {
			case 0:
			case 1:
				pb.Planes[i][w] = ^uint64(0)
			case 2:
				if w == 0 {
					pb.Planes[i][w] = rng.Uint64()
				}
			default:
				v := rng.Uint64()
				for d := 0; d < i%4; d++ {
					v &= rng.Uint64()
				}
				pb.Planes[i][w] = v
			}
		}
		last := len(pb.Planes[i]) - 1
		if kind != 1 && S%64 != 0 {
			pb.Planes[i][last] |= rng.Uint64() &^ (1<<uint(S%64) - 1)
		}
	}
	return pb
}

// TestEstimateMatchesReference pins the hoisted pair loop to the
// per-pair refCovOf/refCorrOf reference, bit for bit, on single-word records,
// word-aligned and ragged shot counts, degenerate marginals and planted
// tail garbage.
func TestEstimateMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for _, S := range []int{1, 37, 64, 65, 128, 200, 1000, 4096} {
		pb := edgePlanes(rng, 11, S)
		if got, want := Estimate(pb), refEstimate(pb); !reflect.DeepEqual(got, want) {
			t.Fatalf("shots=%d: Estimate differs from the reference\ngot:  %+v\nwant: %+v", S, got, want)
		}
	}
}

// TestEstimateWorkerCountInvariant runs the row-parallel estimator with
// one and four workers (GOMAXPROCS) and requires identical matrices.
func TestEstimateWorkerCountInvariant(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	pb := edgePlanes(rand.New(rand.NewSource(13)), 37, 3000)
	runtime.GOMAXPROCS(1)
	serial := Estimate(pb)
	runtime.GOMAXPROCS(4)
	parallel := Estimate(pb)
	if !reflect.DeepEqual(serial, parallel) {
		t.Fatal("Estimate output depends on GOMAXPROCS")
	}
	if !reflect.DeepEqual(serial, refEstimate(pb)) {
		t.Fatal("Estimate differs from the reference")
	}
}
