package stab

import (
	"math"
	"math/bits"
	"math/rand"
	"testing"
)

// This file keeps the straightforward Bernoulli-mask samplers that
// bern.draw replaced, as slow references: the dense path walked the
// binary expansion of p LSB-first with one word draw per bit, and the
// sparse path converted each geometric gap to int before range-checking
// it. The production draw must reproduce both exactly — same masks, same
// final RNG state — wherever the reference is well defined.

// refDenseDraw is the LSB-first OR/AND chain over the 53-bit fraction of
// p: one draw per bit from the lowest set bit up.
func refDenseDraw(b *bern, r *wordRNG) uint64 {
	p53 := b.p53
	t := bits.TrailingZeros64(p53)
	w := r.next()
	for j := t + 1; j < 53; j++ {
		if p53>>uint(j)&1 == 1 {
			w = r.next() | w
		} else {
			w = r.next() & w
		}
	}
	return w
}

// refSparseDraw is the geometric-gap loop with the int conversion ahead
// of the range check — correct while the scaled log fits an int (p above
// ~4e-18).
func refSparseDraw(b *bern, r *wordRNG) uint64 {
	var w uint64
	i := int(math.Log(r.float64()) * b.invLog)
	for i < 64 {
		w |= 1 << uint(i)
		i += 1 + int(math.Log(r.float64())*b.invLog)
	}
	return w
}

// checkDrawMatches draws `words` masks from the same seed through the
// production sampler and a reference, requiring equal masks and equal
// RNG state after every draw.
func checkDrawMatches(t *testing.T, b bern, seed int64, words int, ref func(*bern, *wordRNG) uint64) {
	t.Helper()
	var got, want wordRNG
	got.seed(seed)
	want.seed(seed)
	for k := 0; k < words; k++ {
		g, w := b.draw(&got), ref(&b, &want)
		if g != w {
			t.Fatalf("p=%v seed=%d draw %d: mask %#x, reference %#x", b.p, seed, k, g, w)
		}
		if got.s != want.s {
			t.Fatalf("p=%v seed=%d draw %d: RNG state %#x, reference %#x", b.p, seed, k, got.s, want.s)
		}
	}
}

// TestDenseDrawMatchesChain pins the MSB-first early-exit dense draw to
// the LSB-first chain: random p in [bernSparse, 1) at random states, plus
// dyadic p whose expansions are a single bit (0.5, and 1/128 forced onto
// the dense table — only the final draw decides), two bits (0.75), and
// all 53 bits (1-2^-53).
func TestDenseDrawMatchesChain(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	for k := 0; k < 100_000; k++ {
		p := bernSparse + rng.Float64()*(1-bernSparse)
		checkDrawMatches(t, makeBern(p), rng.Int63(), 1, refDenseDraw)
	}
	for _, p := range []float64{0.5, 0.75, 1.0 / 128, 1 - 1.0/(1<<53)} {
		b := bern{p: p, p53: uint64(math.Ldexp(p, 53))}
		checkDrawMatches(t, b, 7, 2000, refDenseDraw)
	}
}

// TestSparseDrawTinyP pins the overflow fix: at p far below 4e-18 the
// scaled log of a uniform draw exceeds the int64 range, and the sampler
// must still return empty masks instead of wrapping the bit index.
func TestSparseDrawTinyP(t *testing.T) {
	for _, p := range []float64{1e-19, 1e-25} {
		b := makeBern(p)
		if b.invLog == 0 {
			t.Fatalf("p=%v did not select the sparse path", p)
		}
		r := &wordRNG{}
		r.seed(99)
		if ones := drawBits(&b, r, 1000); ones != 0 {
			t.Errorf("p=%v: %d of 64000 bits set, want 0", p, ones)
		}
	}
}

// TestSparseDrawMatchesGapLoop checks that the range-check fix leaves
// every representable draw unchanged: masks and RNG state over
// p in [1e-15, bernSparse) equal the original gap loop's.
func TestSparseDrawMatchesGapLoop(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	for _, p := range []float64{1e-15, 1e-9, 1e-4, 0.004, 0.02, 0.049} {
		checkDrawMatches(t, makeBern(p), rng.Int63(), 2000, refSparseDraw)
	}
	for k := 0; k < 2000; k++ {
		// Log-uniform over the whole sparse range.
		p := math.Exp(math.Log(1e-15) + rng.Float64()*(math.Log(bernSparse)-math.Log(1e-15)))
		checkDrawMatches(t, makeBern(p), rng.Int63(), 8, refSparseDraw)
	}
}
