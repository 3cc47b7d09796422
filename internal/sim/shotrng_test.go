package sim

import (
	"math"
	"math/rand"
	"sync"
	"testing"
)

// drawCounts ends streams just before, on and after every 32-draw fill
// boundary, the lag (273), the end of the initial fill (334), one full
// register (607), and well past the lag feedback.
func drawCounts() []int {
	var ns []int
	add := func(n int) {
		for d := -1; d <= 1; d++ {
			if n+d > 0 {
				ns = append(ns, n+d)
			}
		}
	}
	for m := rngFeed; m > 0; m -= fillChunk {
		add(rngFeed - m + 1) // first draw that reads feed word m-1
	}
	for _, n := range []int{rngTap, rngFeed, rngLen, 2 * rngLen, 1500} {
		add(n)
	}
	return ns
}

func identitySeeds() []int64 {
	seeds := []int64{
		0, 1, -1, lcgM, -lcgM, 1 << 31, -(1 << 31), seedZero, -seedZero,
		math.MinInt64, math.MaxInt64, math.MinInt64 + 1,
	}
	for i := 0; i < 50; i++ {
		seeds = append(seeds, ShotSeed(12345, i), ShotSeed(-7, i), BlockSeed(42, i))
	}
	return seeds
}

// checkUint64 compares n raw draws of a freshly seeded ShotSource with
// rand.NewSource(seed).
func checkUint64(t *testing.T, s *ShotSource, seed int64, n int) {
	t.Helper()
	ref := rand.NewSource(seed).(rand.Source64)
	s.Seed(seed)
	for k := 1; k <= n; k++ {
		if got, want := s.Uint64(), ref.Uint64(); got != want {
			t.Fatalf("seed %d draw %d: got %#x, want %#x", seed, k, got, want)
		}
	}
}

func TestShotSourceMatchesStdlib(t *testing.T) {
	var s ShotSource
	for _, seed := range identitySeeds() {
		checkUint64(t, &s, seed, 1500)
	}
}

func TestShotSourceDrawCounts(t *testing.T) {
	var s ShotSource
	// Every count ends a stream mid-register; the next seed must start
	// clean from the partly filled state.
	for _, n := range drawCounts() {
		for _, seed := range []int64{0, 3, -11, math.MaxInt64} {
			checkUint64(t, &s, seed, n)
		}
	}
}

func TestShotSourceRandomSeeds(t *testing.T) {
	seeds := rand.New(rand.NewSource(99))
	var s ShotSource
	for i := 0; i < 10_000; i++ {
		seed := int64(seeds.Uint64())
		checkUint64(t, &s, seed, 1+seeds.Intn(700))
	}
}

// TestShotSourceReseedMatchesFresh reseeds one source after every draw
// count and compares it with a never-used one.
func TestShotSourceReseedMatchesFresh(t *testing.T) {
	var reused ShotSource
	for _, n := range drawCounts() {
		reused.Seed(int64(n))
		for k := 0; k < n; k++ {
			reused.Uint64()
		}
		fresh := new(ShotSource)
		fresh.Seed(777)
		reused.Seed(777)
		for k := 0; k < 1500; k++ {
			if got, want := reused.Uint64(), fresh.Uint64(); got != want {
				t.Fatalf("after %d draws, reseeded draw %d: got %#x, want %#x", n, k+1, got, want)
			}
		}
	}
}

// TestShotSourceRandMethods compares the rand.Rand methods the shot loops
// and passes use, interleaved, through rand.New on both sources.
func TestShotSourceRandMethods(t *testing.T) {
	for _, seed := range identitySeeds() {
		got, want := NewRand(seed), rand.New(rand.NewSource(seed))
		for k := 0; k < 400; k++ {
			var g, w float64
			switch k % 7 {
			case 0:
				g, w = float64(got.Int63()), float64(want.Int63())
			case 1:
				g, w = float64(got.Uint64()), float64(want.Uint64())
			case 2:
				g, w = got.Float64(), want.Float64()
			case 3:
				g, w = float64(got.Intn(2)), float64(want.Intn(2))
			case 4:
				g, w = float64(got.Intn(3)), float64(want.Intn(3))
			case 5:
				g, w = float64(got.Intn(15)), float64(want.Intn(15))
			case 6:
				g, w = got.NormFloat64(), want.NormFloat64()
			}
			if g != w {
				t.Fatalf("seed %d call %d (method %d): got %v, want %v", seed, k, k%7, g, w)
			}
		}
	}
}

func TestShotSourceZeroAlloc(t *testing.T) {
	var s ShotSource
	seed := int64(0)
	allocs := testing.AllocsPerRun(20, func() {
		seed++
		s.Seed(seed)
		for k := 0; k < 1000; k++ {
			s.Uint64()
		}
	})
	if allocs != 0 {
		t.Errorf("Seed plus 1000 draws allocates %.1f objects, want 0", allocs)
	}
}

// TestShotSourceConcurrent runs independent sources from several
// goroutines; the seeding tables they share are read-only.
func TestShotSourceConcurrent(t *testing.T) {
	const workers = 8
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			var s ShotSource
			for i := 0; i < 20; i++ {
				seed := ShotSeed(int64(w), i)
				ref := rand.NewSource(seed).(rand.Source64)
				s.Seed(seed)
				for k := 0; k < 700; k++ {
					if got, want := s.Uint64(), ref.Uint64(); got != want {
						t.Errorf("worker %d seed %d draw %d: got %#x, want %#x", w, seed, k+1, got, want)
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
}
