package main

import (
	"math"
	"sort"
	"time"
)

// sorted returns an ascending copy of xs.
func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// median returns the middle value of xs (mean of the two middle values for
// an even count); NaN for an empty sample.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := sorted(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// tailLadder lists the percentiles a tail is reported at, highest first.
var tailLadder = []float64{99.99, 99.9, 99, 95, 90, 75, 50}

// minBeyond is how many samples must lie beyond a reported tail percentile.
const minBeyond = 10

// tailStat is a latency tail: the value at Pct, over N samples.
type tailStat struct {
	Value float64
	Pct   float64
	N     int
}

// tail returns the highest percentile of tailLadder that has at least
// minBeyond samples above its nearest-rank position; ok is false when the
// sample is too small for any of them.
func tail(xs []float64) (t tailStat, ok bool) {
	s := sorted(xs)
	n := len(s)
	for _, p := range tailLadder {
		rank := int(math.Ceil(p / 100 * float64(n))) // 1-based nearest rank
		if rank < 1 {
			rank = 1
		}
		if n-rank >= minBeyond {
			return tailStat{Value: s[rank-1], Pct: p, N: n}, true
		}
	}
	return tailStat{N: n}, false
}

// ms converts a duration to float milliseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
