package sim

import "math/rand"

// math/rand's source is an additive lagged-Fibonacci generator (Mitchell &
// Reeds) over a 607-word register, seeded by the Park–Miller LCG
// x <- 48271·x mod (2³¹−1). These constants are its parameters.
const (
	rngLen    = 607
	rngTap    = 273
	rngFeed   = rngLen - rngTap // feed index right after Seed
	rngMask   = 1<<63 - 1
	lcgA      = 48271
	lcgM      = 1<<31 - 1 // a Mersenne prime
	seedZero  = 89482311  // what math/rand seeds in place of x₀ = 0
	fillChunk = 32        // feed words filled per refill
)

// Read-only seeding tables, built once at package initialization.
// seedPow[i] = 48271^(21+3i) mod (2³¹−1) jumps the seeding LCG straight to
// the first of the three states that make register word i, and
// seedCooked[i] is math/rand's per-word scrambling constant.
var seedPow, seedCooked = seedTables()

// ShotSource is a rand.Source64 whose Seed(s) yields exactly the stream of
// rand.NewSource(s), but seeds in nanoseconds instead of ~13 µs.
//
// math/rand's Seed runs 1841 serial LCG steps to fill all 607 register
// words, while a shot reads only a fraction of them. ShotSource instead
// records the LCG start state x₀ and fills the register on demand, a chunk
// at a time, just before the draws first read it. Word i packs the LCG
// states x₂₁₊₃ᵢ, x₂₂₊₃ᵢ, x₂₃₊₃ᵢ, and since xₙ = 48271ⁿ·x₀ mod (2³¹−1), each
// word costs one multiply by seedPow[i] and two LCG steps, independent of
// every other word. Once word 0 is filled the source is the plain
// lagged-Fibonacci generator.
//
// Seed must be called before the first draw. A ShotSource is not safe for
// concurrent use.
type ShotSource struct {
	tap, feed int
	// mark is the lowest feed word filled since Seed; a feed index below
	// it triggers the next fill. It is 0 once the register is complete,
	// when the same compare catches the feed index wrapping.
	mark int
	x0   uint64 // seeding LCG start state
	vec  [rngLen]uint64
}

// NewRand returns a rand.Rand over a fresh ShotSource seeded with seed: the
// same stream as rand.New(rand.NewSource(seed)).
func NewRand(seed int64) *rand.Rand {
	src := new(ShotSource)
	src.Seed(seed)
	return rand.New(src)
}

// Seed resets the source to the stream of rand.NewSource(seed). It does
// no register work; the words are filled as the draws reach them.
func (s *ShotSource) Seed(seed int64) {
	seed %= lcgM
	if seed < 0 {
		seed += lcgM
	}
	if seed == 0 {
		seed = seedZero
	}
	s.x0 = uint64(seed)
	s.tap, s.feed, s.mark = 0, rngFeed, rngFeed
}

// Int63 returns a non-negative pseudo-random 63-bit integer.
func (s *ShotSource) Int63() int64 { return int64(s.Uint64() & rngMask) }

// Uint64 returns a pseudo-random 64-bit value.
//
// The fill is written out here rather than called, so the hot path stays a
// frameless leaf function like math/rand's own.
func (s *ShotSource) Uint64() uint64 {
	s.tap--
	if s.tap < 0 {
		s.tap += rngLen
	}
	s.feed--
	if s.feed < s.mark {
		if s.feed < 0 {
			s.feed += rngLen
		} else {
			// During draws 1…334, draw k reads feed word 334−k and tap
			// word 607−k = feed+273. Tap words below 334 were written by
			// an earlier feed, so beside the next chunk of feed words
			// only their tap partners from 334 up need initial values.
			hi := s.mark
			s.mark = max(hi-fillChunk, 0)
			fill := [2][2]int{
				{s.mark, hi},
				{max(s.mark+rngTap, rngFeed), max(hi+rngTap, rngFeed)},
			}
			for _, r := range fill {
				for i := r[0]; i < r[1]; i++ {
					a := mulMod(seedPow[i], s.x0)
					b := mulMod(a, lcgA)
					c := mulMod(b, lcgA)
					s.vec[i] = a<<40 ^ b<<20 ^ c ^ seedCooked[i]
				}
			}
		}
	}
	x := s.vec[s.feed] + s.vec[s.tap]
	s.vec[s.feed] = x
	return x
}

// mulMod returns a·b mod (2³¹−1) for a, b < 2³¹−1 by a Mersenne fold. The
// fold leaves a value in [1, 2·(2³¹−1)), as the product of two nonzero
// residues is never a multiple of the prime, so one subtraction finishes.
func mulMod(a, b uint64) uint64 {
	y := a * b
	y = y&lcgM + y>>31
	return min(y, y-lcgM)
}

// seedTables builds seedPow and derives seedCooked from math/rand itself
// rather than copying its constants.
//
// For x₀ = 1 the LCG state xₙ is 48271ⁿ itself, so one serial walk of
// math/rand's seeding yields both the powers and the unscrambled words u₁
// of seed 1. The first 607 outputs o₁…o₆₀₇ of rand.NewSource(1) determine
// its initial register v₀, since each output is the sum of a feed and a
// tap word and every word is read once as an initial value in those draws.
// Then cooked[i] = v₀[i] ^ u₁[i].
func seedTables() (pow, cooked [rngLen]uint64) {
	x := uint64(1)
	for n := 0; n < 20; n++ {
		x = mulMod(x, lcgA)
	}
	for i := range pow {
		a := mulMod(x, lcgA)
		b := mulMod(a, lcgA)
		x = mulMod(b, lcgA)
		pow[i] = a
		cooked[i] = a<<40 ^ b<<20 ^ x
	}

	src := rand.NewSource(1).(rand.Source64)
	var o [rngLen + 1]uint64 // o[k] is draw k, 1-based
	for k := 1; k <= rngLen; k++ {
		o[k] = src.Uint64()
	}
	var v0 [rngLen]uint64
	// Draws 274…334 add feed word 334−k to tap word 607−k, which draw
	// k−273 already overwrote with its output.
	for k := rngTap + 1; k <= rngFeed; k++ {
		v0[rngFeed-k] = o[k] - o[k-rngTap]
	}
	// Draws 335…607 wrap the feed to the untouched word 941−k; the tap
	// word 607−k was overwritten by draw k−273.
	for k := rngFeed + 1; k <= rngLen; k++ {
		v0[rngLen+rngFeed-k] = o[k] - o[k-rngTap]
	}
	// Draws 1…273 add feed word 334−k to the untouched tap word 607−k,
	// recovered above.
	for k := 1; k <= rngTap; k++ {
		v0[rngFeed-k] = o[k] - v0[rngLen-k]
	}
	for i := range cooked {
		cooked[i] ^= v0[i]
	}
	return pow, cooked
}
