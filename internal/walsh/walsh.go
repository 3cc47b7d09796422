// Package walsh constructs Walsh–Hadamard dynamical-decoupling sequences
// (paper Sec. III C and Fig. 5b). Sequence k over a window [0, T] is defined
// by the k-th row of a sign matrix whose rows are mutually orthogonal and
// (for k >= 1) balanced. An X pulse is placed at every sign flip of the row;
// if the row ends in the -1 state a final pulse at T restores the frame.
//
// Properties the compiler relies on (proved in the tests):
//   - each sequence with k >= 1 has zero time-integral of its sign function,
//     so single-qubit Z errors average out;
//   - any two distinct sequences have orthogonal sign functions, so the
//     two-qubit ZZ error between any two differently-colored qubits averages
//     out as well (including color 0 = "no pulses").
package walsh

import (
	"fmt"
	"math/bits"
	"sort"
)

// Signs returns the sign pattern of Walsh sequence k sampled on 2^ceil bins,
// where 2^ceil is the smallest power of two exceeding k. The pattern is the
// k-th row of the naturally-ordered (Paley/Hadamard) Walsh matrix:
// sign(k, j) = (-1)^popcount(k AND j).
func Signs(k, nBins int) []int {
	checkRow(k, nBins)
	out := make([]int, nBins)
	for j := range out {
		out[j] = sign(k, j)
	}
	return out
}

// checkRow panics unless row k fits a power-of-two grid of nBins bins.
func checkRow(k, nBins int) {
	if nBins <= 0 || nBins&(nBins-1) != 0 {
		panic(fmt.Sprintf("walsh: nBins must be a power of two, got %d", nBins))
	}
	if k < 0 || k >= nBins {
		panic(fmt.Sprintf("walsh: sequence index %d out of range for %d bins", k, nBins))
	}
}

// sign returns the sign of Walsh row k in bin j.
func sign(k, j int) int {
	if bits.OnesCount(uint(k&j))%2 == 0 {
		return 1
	}
	return -1
}

// MinBins returns the smallest power-of-two bin count that can represent
// sequence k.
func MinBins(k int) int {
	n := 1
	for n <= k {
		n <<= 1
	}
	return n
}

// PulseTimes returns the X-pulse times of Walsh sequence k within a window
// of duration T, including a frame-restoring pulse at T when the sign
// pattern ends at -1. Sequence 0 has no pulses. All sequences are sampled on
// a common bin count so that pulse times of different colors interleave
// consistently; nBins must be >= MinBins(k).
func PulseTimes(k int, T float64, nBins int) []float64 {
	return AppendPulseTimes(nil, k, T, nBins)
}

// AppendPulseTimes appends the pulse times PulseTimes returns to dst.
func AppendPulseTimes(dst []float64, k int, T float64, nBins int) []float64 {
	if k == 0 {
		return dst
	}
	checkRow(k, nBins)
	dt := T / float64(nBins)
	prev := sign(k, 0)
	if prev == -1 {
		// Start in the flipped frame: pulse at t=0.
		dst = append(dst, 0)
	}
	for j := 1; j < nBins; j++ {
		if s := sign(k, j); s != prev {
			dst = append(dst, float64(j)*dt)
			prev = s
		}
	}
	if prev == -1 {
		dst = append(dst, T)
	}
	return dst
}

// NumPulses returns the pulse count of sequence k (on MinBins bins), the
// quantity the coloring heuristic minimizes.
func NumPulses(k int) int {
	return PulseCount(k, MinBins(k))
}

// SignIntegral returns the integral of the sign function of sequence k over
// a unit window; it is 0 for all k >= 1.
func SignIntegral(k, nBins int) float64 {
	s := Signs(k, nBins)
	sum := 0
	for _, v := range s {
		sum += v
	}
	return float64(sum) / float64(nBins)
}

// PairIntegral returns the integral of the product of sign functions of
// sequences k1, k2 over a unit window; it is 0 for k1 != k2 and 1 for
// k1 == k2. This is the ZZ-suppression condition (zero inner product
// between rows, paper Sec. III C).
func PairIntegral(k1, k2, nBins int) float64 {
	s1 := Signs(k1, nBins)
	s2 := Signs(k2, nBins)
	sum := 0
	for i := range s1 {
		sum += s1[i] * s2[i]
	}
	return float64(sum) / float64(nBins)
}

// PulseCount returns the number of pulses of row k sampled on nBins bins
// (sign flips plus the frame-restoring pulse at T if needed).
func PulseCount(k, nBins int) int {
	var buf [16]float64
	return len(AppendPulseTimes(buf[:0], k, 1, nBins))
}

// Palette returns row indices for nColors colors, all on a common bin grid,
// ordered by increasing pulse count (then row index). Palette[0] is always
// row 0 (no pulses) and Palette[1] is always the single mid-window flip —
// the pattern of an ECR control's internal echo — so that the CA-DD
// coloring can reserve color 1 for gate controls. The compiler's heuristic
// of preferring low colors then directly minimizes DD pulse count (paper
// Fig. 5b).
func Palette(nColors int) []int {
	nb := MinBins(nColors - 1)
	if nb < 4 {
		nb = 4
	}
	rows := make([]int, nb)
	for i := range rows {
		rows[i] = i
	}
	sort.SliceStable(rows, func(i, j int) bool {
		pi, pj := PulseCount(rows[i], nb), PulseCount(rows[j], nb)
		if pi != pj {
			return pi < pj
		}
		return rows[i] < rows[j]
	})
	return rows[:nColors]
}

// Dictionary is a pre-built table of pulse-time templates (on the unit
// window) for colors 0..MaxColor, as Algorithm 1 consumes ("dictionary of
// dynamical decoupling sequences L_DD").
type Dictionary struct {
	MaxColor int
	NBins    int
	times    [][]float64 // unit-window pulse offsets per color
}

// NewDictionary builds templates for colors 0..maxColor on a common bin
// grid.
func NewDictionary(maxColor int) *Dictionary {
	nb := MinBins(maxColor)
	if nb < 4 {
		nb = 4
	}
	d := &Dictionary{MaxColor: maxColor, NBins: nb}
	for k := 0; k <= maxColor; k++ {
		d.times = append(d.times, PulseTimes(k, 1, nb))
	}
	return d
}

// Times returns the pulse times for the given color scaled to a window of
// duration T starting at t0. Color indices beyond MaxColor panic.
func (d *Dictionary) Times(color int, t0, T float64) []float64 {
	if color < 0 || color > d.MaxColor {
		panic(fmt.Sprintf("walsh: color %d outside dictionary range [0,%d]", color, d.MaxColor))
	}
	tpl := d.times[color]
	out := make([]float64, len(tpl))
	for i, u := range tpl {
		out[i] = t0 + u*T
	}
	sort.Float64s(out)
	return out
}
