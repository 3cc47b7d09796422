package main

import (
	"math"
	"testing"
	"time"
)

func TestMedian(t *testing.T) {
	for _, tc := range []struct {
		xs   []float64
		want float64
	}{
		{[]float64{3, 1, 2}, 2},
		{[]float64{4, 1, 3, 2}, 2.5},
		{[]float64{7}, 7},
	} {
		if got := median(tc.xs); got != tc.want {
			t.Errorf("median(%v) = %v, want %v", tc.xs, got, tc.want)
		}
	}
	if !math.IsNaN(median(nil)) {
		t.Error("median of an empty sample should be NaN")
	}
	xs := []float64{3, 1, 2}
	median(xs)
	if xs[0] != 3 {
		t.Error("median reordered its input")
	}
}

// ramp returns 1..n.
func ramp(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	return xs
}

func TestTailSelection(t *testing.T) {
	for _, tc := range []struct {
		n       int
		ok      bool
		pct     float64
		value   float64
		comment string
	}{
		{n: 19, ok: false, comment: "p50 leaves only 9 beyond"},
		{n: 20, ok: true, pct: 50, value: 10, comment: "p50 at rank 10 leaves 10"},
		{n: 100, ok: true, pct: 90, value: 90, comment: "p95 leaves 5"},
		{n: 110, ok: true, pct: 90, value: 99, comment: "rank ceil(99)=99 leaves 11"},
		{n: 1000, ok: true, pct: 99, value: 990, comment: "p99.9 leaves 1"},
		{n: 1010, ok: true, pct: 99, value: 1000, comment: "rank ceil(999.9)=1000 leaves 10"},
		{n: 100000, ok: true, pct: 99.99, value: 99990, comment: "rank 99990 leaves 10"},
	} {
		got, ok := tail(ramp(tc.n))
		if ok != tc.ok || got.N != tc.n {
			t.Errorf("n=%d: ok=%v N=%d, want ok=%v (%s)", tc.n, ok, got.N, tc.ok, tc.comment)
			continue
		}
		if ok && (got.Pct != tc.pct || got.Value != tc.value) {
			t.Errorf("n=%d: p%g=%v, want p%g=%v (%s)", tc.n, got.Pct, got.Value, tc.pct, tc.value, tc.comment)
		}
	}
}

func TestTailIgnoresInputOrder(t *testing.T) {
	xs := ramp(200)
	for i, j := 0, len(xs)-1; i < j; i, j = i+1, j-1 {
		xs[i], xs[j] = xs[j], xs[i]
	}
	got, ok := tail(xs)
	if !ok || got.Pct != 95 || got.Value != 190 {
		t.Errorf("tail of reversed 1..200 = %+v, want p95 = 190", got)
	}
}

func TestMs(t *testing.T) {
	if got := ms(1500 * time.Microsecond); got != 1.5 {
		t.Errorf("ms(1.5ms) = %v", got)
	}
}
