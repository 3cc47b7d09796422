// Package correl is the error-correlation spectroscopy estimator: it turns
// packed per-shot outcome planes (sim.PackedBits, bit 1 = "this shot's
// outcome flipped on this qubit") into the two-point covariance and
// correlation matrix of outcome flips across every qubit pair — the object
// Edmunds et al. measure directly and the paper's context-aware passes are
// designed to suppress.
//
// The estimator never unpacks shots to bytes. For a pair (i, j) the three
// sufficient statistics are popcount reductions over 64-shot words:
//
//	n1[i]      = popcount(P_i)            one flip count per plane
//	nxor(i,j)  = popcount(P_i XOR P_j)    shots where exactly one flipped
//	n11(i,j)   = (n1[i] + n1[j] - nxor)/2 joint flips, recovered without AND
//
// from which Cov(i,j) = n11/S - p_i p_j and Corr = Cov/sqrt(p_i q_i p_j q_j).
// Standard errors come from a delete-one-block jackknife over the 64-shot
// words (the shot-resampling granularity the bit-plane layout gives for
// free), so every reported covariance carries an honest uncertainty and
// tests can pin estimates with k-sigma bounds instead of eyeballed
// tolerances.
//
// A naive per-shot scalar reference (EstimateScalar) counts the same
// statistics by walking individual bits; the two paths share every
// floating-point step after counting, so they are bit-identical whenever
// the integer counts agree — the differential test that would catch any
// tail-word mask leaking invalid bits into a popcount.
package correl

import (
	"math"
	"math/bits"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"

	"casq/internal/sim"
)

// Matrix is the estimated two-point flip-correlation structure over n
// classical bits. Pair-indexed slices are packed upper-triangular (i < j)
// via PairIndex; for n = 127 that is 8001 pairs.
type Matrix struct {
	N     int // classical bits (qubits)
	Shots int

	// Ones is the per-bit flip count; P the per-bit flip rate Ones/Shots.
	Ones []int
	P    []float64
	// N11 is the per-pair joint flip count (both bits 1 in one shot).
	N11 []int
	// Cov and Corr are the per-pair covariance and Pearson correlation of
	// the two flip indicators. SECov and SECorr are their delete-one-block
	// jackknife standard errors (zero when the record holds a single
	// 64-shot word — one block cannot be resampled).
	Cov, Corr     []float64
	SECov, SECorr []float64
}

// PairIndex maps a pair i < j on n bits to its packed upper-triangular
// index. Callers must order the pair (swap first if i > j).
func PairIndex(n, i, j int) int {
	return i*n - i*(i+1)/2 + (j - i - 1)
}

// Pairs returns the number of unordered pairs on n bits.
func Pairs(n int) int { return n * (n - 1) / 2 }

// CovAt returns the flip covariance of the pair (order-free).
func (m Matrix) CovAt(i, j int) float64 { return m.pairVal(m.Cov, i, j) }

// CorrAt returns the flip correlation of the pair (order-free).
func (m Matrix) CorrAt(i, j int) float64 { return m.pairVal(m.Corr, i, j) }

// SECovAt returns the jackknife standard error of CovAt.
func (m Matrix) SECovAt(i, j int) float64 { return m.pairVal(m.SECov, i, j) }

// SECorrAt returns the jackknife standard error of CorrAt.
func (m Matrix) SECorrAt(i, j int) float64 { return m.pairVal(m.SECorr, i, j) }

func (m Matrix) pairVal(s []float64, i, j int) float64 {
	if i == j {
		return 0
	}
	if i > j {
		i, j = j, i
	}
	return s[PairIndex(m.N, i, j)]
}

// JointCounts returns the 2x2 contingency table of the pair as
// [n00, n01, n10, n11], where the first index is bit i's value — the
// input to a chi-square goodness-of-fit against model probabilities.
func (m Matrix) JointCounts(i, j int) [4]int {
	if i > j {
		i, j = j, i
		n11 := m.N11[PairIndex(m.N, i, j)]
		n01 := m.Ones[i] - n11 // i now holds the original second bit
		n10 := m.Ones[j] - n11
		return [4]int{m.Shots - n11 - n01 - n10, n01, n10, n11}
	}
	n11 := m.N11[PairIndex(m.N, i, j)]
	n10 := m.Ones[i] - n11
	n01 := m.Ones[j] - n11
	return [4]int{m.Shots - n11 - n10 - n01, n01, n10, n11}
}

// PairStat is one thresholded pair of the sparse representation.
type PairStat struct {
	I    int     `json:"i"`
	J    int     `json:"j"`
	Corr float64 `json:"corr"`
	Cov  float64 `json:"cov"`
	// SE is the jackknife standard error of Corr.
	SE float64 `json:"se"`
}

// Sparse returns the pairs with |Corr| >= minAbsCorr, sorted by
// descending |Corr| (ties by pair order) — the thresholded representation
// that keeps a 127-qubit matrix (8001 pairs) reportable: under weak noise
// almost every pair sits below the statistical floor.
func (m Matrix) Sparse(minAbsCorr float64) []PairStat {
	var out []PairStat
	for i := 0; i < m.N; i++ {
		for j := i + 1; j < m.N; j++ {
			k := PairIndex(m.N, i, j)
			if math.Abs(m.Corr[k]) >= minAbsCorr {
				out = append(out, PairStat{I: i, J: j, Corr: m.Corr[k], Cov: m.Cov[k], SE: m.SECorr[k]})
			}
		}
	}
	sort.SliceStable(out, func(a, b int) bool {
		return math.Abs(out[a].Corr) > math.Abs(out[b].Corr)
	})
	return out
}

// DecayBin is the mean absolute correlation over all pairs at one coupling-
// graph distance.
type DecayBin struct {
	Distance    int     `json:"distance"`
	MeanAbsCorr float64 `json:"mean_abs_corr"`
	Pairs       int     `json:"pairs"`
}

// DecayByDistance bins |Corr| by pair distance: dist[i][j] is the graph
// distance between bits i and j (negative = unreachable, skipped), and
// maxDist > 0 caps the reported bins. The result is ascending in distance
// with only populated bins present — the correlation-decay curve of the
// spectroscopy figures.
func DecayByDistance(m Matrix, dist [][]int, maxDist int) []DecayBin {
	sums := map[int]*DecayBin{}
	for i := 0; i < m.N; i++ {
		for j := i + 1; j < m.N; j++ {
			d := dist[i][j]
			if d < 1 || (maxDist > 0 && d > maxDist) {
				continue
			}
			b := sums[d]
			if b == nil {
				b = &DecayBin{Distance: d}
				sums[d] = b
			}
			b.MeanAbsCorr += math.Abs(m.Corr[PairIndex(m.N, i, j)])
			b.Pairs++
		}
	}
	out := make([]DecayBin, 0, len(sums))
	for _, b := range sums {
		b.MeanAbsCorr /= float64(b.Pairs)
		out = append(out, *b)
	}
	sort.Slice(out, func(a, b int) bool { return out[a].Distance < out[b].Distance })
	return out
}

// ChiSquare2x2 returns the chi-square goodness-of-fit statistic of an
// observed 2x2 contingency table (JointCounts order) against model joint
// probabilities p summing to 1 over `shots` trials. Cells with zero
// expected count contribute +Inf unless also observed zero — a model that
// forbids an observed outcome is rejected outright. Three degrees of
// freedom; the test-harness convention bounds the statistic at the
// 5-sigma-equivalent quantile.
func ChiSquare2x2(n [4]int, p [4]float64, shots int) float64 {
	chi := 0.0
	for k := 0; k < 4; k++ {
		exp := p[k] * float64(shots)
		if exp == 0 {
			if n[k] != 0 {
				return math.Inf(1)
			}
			continue
		}
		d := float64(n[k]) - exp
		chi += d * d / exp
	}
	return chi
}

// ChiSquare3DF5Sigma is the df=3 chi-square quantile at the two-sided
// 5-sigma tail probability (~5.7e-7): the harness-wide acceptance bound
// for ChiSquare2x2 statistics. A correct model exceeds it about once per
// 1.7 million tables.
const ChiSquare3DF5Sigma = 33.0

// Estimate computes the flip-correlation matrix from packed outcome
// planes by word-parallel popcount reductions: one XOR+popcount per pair
// per 64 shots, never unpacking to per-shot bytes. Invalid bits beyond
// pb.Shots in the final word are masked out of every count.
func Estimate(pb sim.PackedBits) Matrix { return estimate(pb, false) }

// EstimateScalar is the naive per-shot reference estimator: it counts the
// same sufficient statistics by reading individual bits, then shares every
// floating-point step with Estimate — so the two are bit-identical
// whenever the counting paths agree, and any masked-tail leak in the
// packed path shows up as an exact mismatch. It exists for differential
// tests and benchmarks; production callers use Estimate.
func EstimateScalar(pb sim.PackedBits) Matrix { return estimate(pb, true) }

// blockWords returns the word count of a shot record.
func blockWords(shots int) int {
	return (shots + sim.ShotBlockSize - 1) / sim.ShotBlockSize
}

// wordMask returns the valid-bit mask of word w for the given shot count.
func wordMask(shots, w int) uint64 {
	if rem := shots - w*sim.ShotBlockSize; rem < sim.ShotBlockSize {
		return 1<<uint(rem) - 1
	}
	return ^uint64(0)
}

// wordShots returns the number of valid shots in word w.
func wordShots(shots, w int) int {
	if rem := shots - w*sim.ShotBlockSize; rem < sim.ShotBlockSize {
		return rem
	}
	return sim.ShotBlockSize
}

// margin is one row's marginal of one estimate: flip count o over the
// estimate's shots, flip rate p = o/S and p(1-p). a is zero exactly when
// the marginal is degenerate (o = 0 or o = S), which zeroes the
// correlation.
type margin struct {
	o    int
	p, a float64
}

// estimate computes the matrix: per-row per-word flip counts, then the
// pair loop over rows handed out to min(GOMAXPROCS, n) workers. Every
// estimate's marginals — the full sample and each delete-one-word sample
// of the jackknife — are hoisted out of the pair loop, which then forms
//
//	cov  = n11/S - p_i p_j
//	corr = cov / sqrt(p_i(1-p_i) p_j (1-p_j))
//
// with the float operations in this exact order. Each worker owns its
// scratch and writes only its own rows' pairs, so the output is identical
// at any worker count.
func estimate(pb sim.PackedBits, scalar bool) Matrix {
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

	// Per-bit, per-word flip counts. The packed path is one masked
	// popcount per word; the scalar reference increments per shot.
	rowOnes := make([]int, n*words)
	for i := 0; i < n; i++ {
		row := rowOnes[i*words : (i+1)*words]
		if scalar {
			for s := 0; s < S; s++ {
				if pb.Bit(i, s) == 1 {
					row[s/sim.ShotBlockSize]++
				}
			}
		} else {
			for w := range row {
				row[w] = bits.OnesCount64(pb.Planes[i][w] & wordMask(S, w))
			}
		}
		for _, c := range row {
			m.Ones[i] += c
		}
		m.P[i] = float64(m.Ones[i]) / float64(S)
	}

	// Column w < words is the jackknife sample without word w; column
	// words is the full sample.
	cols := words + 1
	fS := make([]float64, cols)
	for w := 0; w < words; w++ {
		fS[w] = float64(S - wordShots(S, w))
	}
	fS[words] = float64(S)
	mg := make([]margin, n*cols)
	for i := 0; i < n; i++ {
		for c := 0; c < cols; c++ {
			o := m.Ones[i]
			if c < words {
				o -= rowOnes[i*words+c]
			}
			p := float64(o) / fS[c]
			mg[i*cols+c] = margin{o: o, p: p, a: p * (1 - p)}
		}
	}

	var next atomic.Int64
	rows := func() {
		// xw holds one pair's per-word XOR popcounts so the jackknife can
		// delete one block at a time; thetaCov/thetaCorr are the
		// leave-one-out estimates.
		xw := make([]int, words)
		thetaCov := make([]float64, words)
		thetaCorr := make([]float64, words)
		for {
			i := int(next.Add(1) - 1)
			if i >= n {
				return
			}
			mi := mg[i*cols : (i+1)*cols]
			for j := i + 1; j < n; j++ {
				mj := mg[j*cols : (j+1)*cols]
				nxor := 0
				if scalar {
					for w := range xw {
						xw[w] = 0
					}
					for s := 0; s < S; s++ {
						if pb.Bit(i, s) != pb.Bit(j, s) {
							xw[s/sim.ShotBlockSize]++
						}
					}
					for _, c := range xw {
						nxor += c
					}
				} else {
					pi, pj := pb.Planes[i], pb.Planes[j]
					for w := range xw {
						c := bits.OnesCount64((pi[w] ^ pj[w]) & wordMask(S, w))
						xw[w] = c
						nxor += c
					}
				}
				k := PairIndex(n, i, j)
				m.N11[k], m.Cov[k], m.Corr[k] = pairStat(&mi[words], &mj[words], fS[words], nxor)
				if words > 1 {
					for w := 0; w < words; w++ {
						_, thetaCov[w], thetaCorr[w] = pairStat(&mi[w], &mj[w], fS[w], nxor-xw[w])
					}
					m.SECov[k], m.SECorr[k] = jackknifeSE(thetaCov, thetaCorr)
				}
			}
		}
	}
	workers := min(runtime.GOMAXPROCS(0), n)
	if workers == 1 {
		rows()
		return m
	}
	var wg sync.WaitGroup
	for range workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rows()
		}()
	}
	wg.Wait()
	return m
}

// pairStat returns a pair's joint flip count, covariance and correlation
// in one estimate from the two rows' marginals, the estimate's shot count
// fS, and the count of its shots where exactly one of the two flipped.
func pairStat(mi, mj *margin, fS float64, nxor int) (n11 int, cov, corr float64) {
	n11 = (mi.o + mj.o - nxor) / 2
	pj := mj.p
	cov = float64(n11)/fS - mi.p*pj
	if mi.a != 0 && mj.a != 0 {
		corr = cov / math.Sqrt(mi.a*pj*(1-pj))
	}
	return n11, cov, corr
}

// jackknifeSE returns the delete-one-block standard errors of the
// leave-one-out covariance and correlation estimates.
func jackknifeSE(thetaCov, thetaCorr []float64) (seCov, seCorr float64) {
	var meanCov, meanCorr float64
	for w := range thetaCov {
		meanCov += thetaCov[w]
		meanCorr += thetaCorr[w]
	}
	W := float64(len(thetaCov))
	meanCov /= W
	meanCorr /= W
	var vc, vr float64
	for w := range thetaCov {
		dc := thetaCov[w] - meanCov
		dr := thetaCorr[w] - meanCorr
		vc += dc * dc
		vr += dr * dr
	}
	return math.Sqrt((W - 1) / W * vc), math.Sqrt((W - 1) / W * vr)
}

// PackedFromCounts expands a bitstring-counts map (sim.BitsKey layout:
// classical bit c at string position c) into packed planes over ncb bits,
// in sorted-key order. It is the bridge from engines that return only a
// counts map (the statevector kernel) into the packed estimator; the shot
// order is synthetic, so jackknife blocks resample sorted outcomes rather
// than true acquisition order — statistically equivalent for i.i.d. shots.
func PackedFromCounts(counts map[string]int, ncb int) sim.PackedBits {
	shots := 0
	keys := make([]string, 0, len(counts))
	for k, c := range counts {
		keys = append(keys, k)
		shots += c
	}
	sort.Strings(keys)
	pb := sim.NewPackedBits(ncb, shots)
	s := 0
	for _, k := range keys {
		for rep := 0; rep < counts[k]; rep++ {
			for c := 0; c < ncb && c < len(k); c++ {
				if k[c] == '1' {
					pb.Set(c, s, 1)
				}
			}
			s++
		}
	}
	return pb
}
