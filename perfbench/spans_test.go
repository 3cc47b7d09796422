package main

import (
	"math"
	"testing"
	"time"

	"casq/internal/exec"
	"casq/internal/sim"
)

// at builds a span from millisecond offsets.
func at(name string, parent int, start, end int) span {
	return span{Name: name, Parent: parent, Start: time.Duration(start) * time.Millisecond, End: time.Duration(end) * time.Millisecond}
}

func TestSelfTimeSubtractsCoveredChildIntervals(t *testing.T) {
	spans := []span{
		at("root", -1, 0, 100),
		at("a", 0, 10, 30),     // covers 10..30
		at("b", 0, 20, 50),     // overlaps a on another lane: union 10..50
		at("c", 0, 70, 80),     // separate: +10
		at("a.1", 1, 12, 18),   // grandchild: counts against a, not root
		at("late", 0, 95, 120), // clipped to the root's end: covers 95..100
	}
	want := []time.Duration{100 - 40 - 10 - 5, 20 - 6, 30, 10, 6, 25}
	got := selfTimes(spans)
	for i := range want {
		if got[i] != want[i]*time.Millisecond {
			t.Errorf("self(%s) = %v, want %v", spans[i].Name, got[i], want[i]*time.Millisecond)
		}
	}
}

func TestSelfTimeOfLeafIsItsDuration(t *testing.T) {
	spans := []span{at("leaf", -1, 5, 17)}
	if got := selfTimes(spans)[0]; got != 12*time.Millisecond {
		t.Errorf("leaf self time %v, want 12ms", got)
	}
}

func TestUnionLength(t *testing.T) {
	iv := func(a, b int) [2]time.Duration {
		return [2]time.Duration{time.Duration(a) * time.Millisecond, time.Duration(b) * time.Millisecond}
	}
	for _, tc := range []struct {
		ivs  [][2]time.Duration
		want int
	}{
		{nil, 0},
		{[][2]time.Duration{iv(0, 10)}, 10},
		{[][2]time.Duration{iv(5, 10), iv(0, 6)}, 10},
		{[][2]time.Duration{iv(0, 10), iv(2, 3), iv(20, 25)}, 15},
		{[][2]time.Duration{iv(0, 10), iv(10, 20)}, 20},
	} {
		if got := unionLength(tc.ivs); got != time.Duration(tc.want)*time.Millisecond {
			t.Errorf("unionLength(%v) = %v, want %dms", tc.ivs, got, tc.want)
		}
	}
}

func TestLayerShare(t *testing.T) {
	spans := []span{
		at("figure", -1, 0, 100),
		at(spanJob, 0, 0, 50),
		at("pass.twirl", 1, 0, 20),  // lane 1
		at("pass.twirl", 1, 10, 30), // lane 2, overlapping: counts once
		at(spanDecompose, 0, 50, 90),
		at(spanStabComp, 4, 50, 60),
		at(spanStabRun, 4, 60, 80),
		at("device.build", 0, 90, 100), // not a layer
	}
	if got := layerShare(spans, 0); math.Abs(got-0.6) > 1e-12 {
		t.Errorf("layerShare = %v, want 0.6", got)
	}
	// Clipped to the root: a layer span outside it does not count.
	spans = append(spans, at(spanCorrel, -1, 100, 200))
	if got := layerShare(spans, 0); math.Abs(got-0.6) > 1e-12 {
		t.Errorf("layerShare with an outside span = %v, want 0.6", got)
	}
}

func TestRecorderNesting(t *testing.T) {
	rec := newRecorder()
	root := rec.start("root", -1)
	child := rec.timed("child", root, func() { time.Sleep(time.Millisecond) })
	rec.end(root)
	spans := rec.snapshot()
	if len(spans) != 2 || spans[1].Parent != root || spans[1].dur() != child {
		t.Fatalf("spans = %+v", spans)
	}
	if spans[0].Start > spans[1].Start || spans[0].End < spans[1].End {
		t.Errorf("child %+v not inside root %+v", spans[1], spans[0])
	}
	if s := spanSums(spans); s["child"] != child {
		t.Errorf("spanSums child = %v, want %v", s["child"], child)
	}
}

func TestPassSpan(t *testing.T) {
	for name, want := range map[string]string{
		"twirl": "pass.twirl", "twirl:all": "pass.twirl", "sched": "pass.sched",
		"dd:aligned": "pass.dd", "dd:context-aware": "pass.dd", "ca-ec": "pass.caec", "layout": "pass.other",
	} {
		if got := passSpan(name); got != want {
			t.Errorf("passSpan(%q) = %q, want %q", name, got, want)
		}
	}
}

func TestInstanceConfigSplitsShotsLikeTheExecutor(t *testing.T) {
	ro := exec.RunOptions{Instances: 4, Cfg: sim.Config{Shots: 2502, Seed: 9, Workers: 3}}
	total := 0
	for k := 0; k < 4; k++ {
		cfg := instanceConfig(ro, k)
		total += cfg.Shots
		want := 625
		if k < 2 {
			want = 626
		}
		if cfg.Shots != want || cfg.Seed != 9+int64(k)*101 || cfg.Workers != 1 {
			t.Errorf("instance %d: shots %d seed %d workers %d", k, cfg.Shots, cfg.Seed, cfg.Workers)
		}
	}
	if total != 2502 {
		t.Errorf("instances ran %d shots, want 2502", total)
	}
}
