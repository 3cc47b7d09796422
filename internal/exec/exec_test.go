package exec

import (
	"context"
	"math/rand"
	"reflect"
	"runtime"
	"testing"

	"casq/internal/circuit"
	"casq/internal/device"
	"casq/internal/models"
	"casq/internal/pass"
	"casq/internal/sim"
)

func testDevice() *device.Device {
	return device.NewLine("exec", 4, device.DefaultOptions())
}

func testConfig(shots int) sim.Config {
	cfg := sim.DefaultConfig()
	cfg.Shots = shots
	cfg.Workers = 1 // isolate executor-level parallelism
	return cfg
}

// TestExpectationsDeterministicAcrossWorkerCounts is the redesign's core
// guarantee: same seed => bit-identical results at any worker count.
func TestExpectationsDeterministicAcrossWorkerCounts(t *testing.T) {
	dev := testDevice()
	c := models.BuildFloquetIsing(4, 2)
	obs := []sim.ObsSpec{{0: 'X', 3: 'X'}, {1: 'Z'}}
	e := New(dev, pass.Combined())
	var ref []float64
	for _, workers := range []int{1, 4, runtime.GOMAXPROCS(0)} {
		ro := RunOptions{Instances: 7, Workers: workers, Seed: 19, Cfg: testConfig(90)}
		vals, err := e.Expectations(context.Background(), c, obs, ro)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if ref == nil {
			ref = vals
			continue
		}
		for i := range vals {
			if vals[i] != ref[i] {
				t.Errorf("workers=%d: vals[%d] = %v, want %v (bit-identical)", workers, i, vals[i], ref[i])
			}
		}
	}
}

func TestCountsDeterministicAcrossWorkerCounts(t *testing.T) {
	dev := testDevice()
	c := circuit.New(4, 2)
	c.AddLayer(circuit.OneQubitLayer).H(0)
	c.AddLayer(circuit.TwoQubitLayer).CX(0, 1)
	c.AddLayer(circuit.MeasureLayer).Measure(0, 0).Measure(1, 1)
	e := New(dev, pass.Twirled())
	var ref map[string]int
	for _, workers := range []int{1, 4, runtime.GOMAXPROCS(0)} {
		ro := RunOptions{Instances: 5, Workers: workers, Seed: 3, Cfg: testConfig(77)}
		res, err := e.Counts(context.Background(), c, ro)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if res.Shots != 77 {
			t.Errorf("workers=%d: merged shots %d, want 77", workers, res.Shots)
		}
		if ref == nil {
			ref = res.Counts
			continue
		}
		if len(res.Counts) != len(ref) {
			t.Fatalf("workers=%d: counts keys differ", workers)
		}
		for bits, n := range ref {
			if res.Counts[bits] != n {
				t.Errorf("workers=%d: counts[%q] = %d, want %d", workers, bits, res.Counts[bits], n)
			}
		}
	}
}

// TestShotBudgetFullyDistributed pins the remainder fix: the pre-redesign
// loops ran shots/instances per instance and silently dropped
// shots % instances.
func TestShotBudgetFullyDistributed(t *testing.T) {
	dev := testDevice()
	c := circuit.New(4, 1)
	c.AddLayer(circuit.OneQubitLayer).X(0)
	c.AddLayer(circuit.MeasureLayer).Measure(0, 0)
	e := New(dev, pass.Twirled())
	for _, tc := range []struct{ shots, instances int }{
		{10, 4},  // remainder 2
		{7, 3},   // remainder 1
		{5, 8},   // fewer shots than instances: budget grows to instances
		{96, 6},  // exact division
		{101, 8}, // remainder 5
	} {
		ro := RunOptions{Instances: tc.instances, Seed: 1, Cfg: testConfig(tc.shots)}
		res, err := e.Run(context.Background(), Job{Circuit: c, Opts: ro})
		if err != nil {
			t.Fatal(err)
		}
		want := tc.shots
		if want < tc.instances {
			want = tc.instances
		}
		if res.Shots != want {
			t.Errorf("shots=%d instances=%d: executed %d shots, want %d (none dropped)",
				tc.shots, tc.instances, res.Shots, want)
		}
		if len(res.Reports) != tc.instances {
			t.Errorf("shots=%d instances=%d: %d reports", tc.shots, tc.instances, len(res.Reports))
		}
	}
}

// TestInstanceShotsBalanced verifies the remainder spreads one-per-instance
// over the first instances rather than landing on one.
func TestInstanceShotsBalanced(t *testing.T) {
	dev := testDevice()
	c := circuit.New(4, 1)
	c.AddLayer(circuit.OneQubitLayer).X(0)
	c.AddLayer(circuit.MeasureLayer).Measure(0, 0)
	e := New(dev, pass.Bare())
	res, err := e.Run(context.Background(), Job{Circuit: c, Opts: RunOptions{
		Instances: 4, Seed: 1, Cfg: testConfig(10),
	}})
	if err != nil {
		t.Fatal(err)
	}
	if res.Shots != 10 {
		t.Fatalf("total %d", res.Shots)
	}
	// 10 over 4 instances: 3,3,2,2 — the remainder must not land on one
	// instance.
	want := []int{3, 3, 2, 2}
	if len(res.InstanceShots) != len(want) {
		t.Fatalf("instance shots %v", res.InstanceShots)
	}
	for k, n := range want {
		if res.InstanceShots[k] != n {
			t.Errorf("instance %d ran %d shots, want %d (full split %v)", k, res.InstanceShots[k], n, res.InstanceShots)
		}
	}
	sum := 0
	for _, n := range res.Counts {
		sum += n
	}
	if sum != 10 {
		t.Errorf("counts sum %d, want 10", sum)
	}
}

func TestRunReportsPerInstance(t *testing.T) {
	dev := testDevice()
	c := models.BuildFloquetIsing(4, 2)
	e := New(dev, pass.Combined())
	res, err := e.Run(context.Background(), Job{
		Circuit:     c,
		Observables: []sim.ObsSpec{{0: 'X'}},
		Opts:        RunOptions{Instances: 3, Seed: 7, Cfg: testConfig(30)},
	})
	if err != nil {
		t.Fatal(err)
	}
	for k, rep := range res.Reports {
		if rep.Pipeline != "ca-ec+dd" {
			t.Errorf("instance %d: pipeline %q", k, rep.Pipeline)
		}
		if rep.DD.Total == 0 {
			t.Errorf("instance %d: no DD pulses", k)
		}
	}
}

// TestWorkerBudget pins the unified parallelism split: instance workers
// times per-instance sim workers never exceeds the budget, many instances
// get serial simulators, and a single instance hands the whole budget to
// shot-level fan-out (the pre-overhaul default multiplied GOMAXPROCS
// instance workers by GOMAXPROCS sim workers).
func TestWorkerBudget(t *testing.T) {
	for _, tc := range []struct {
		requested, instances, gomax int
		wantInst, wantSim           int
	}{
		{0, 12, 8, 8, 1},  // many instances: saturate with instances, serial sim
		{0, 1, 8, 1, 8},   // single job: full shot-level fan-out
		{0, 2, 8, 2, 4},   // split budget between levels
		{0, 3, 8, 3, 2},   // uneven split rounds down (3*2 <= 8)
		{1, 64, 32, 1, 1}, // explicit serial stays fully serial
		{4, 2, 32, 2, 2},  // explicit budget overrides GOMAXPROCS
		{0, 8, 1, 1, 1},   // single-core box
		{5, 0, 8, 1, 5},   // instances clamped to >= 1
	} {
		inst, sim := workerBudget(tc.requested, tc.instances, tc.gomax)
		if inst != tc.wantInst || sim != tc.wantSim {
			t.Errorf("workerBudget(%d, %d, %d) = (%d, %d), want (%d, %d)",
				tc.requested, tc.instances, tc.gomax, inst, sim, tc.wantInst, tc.wantSim)
		}
		budget := tc.requested
		if budget <= 0 {
			budget = tc.gomax
		}
		if inst*sim > budget {
			t.Errorf("workerBudget(%d, %d, %d): %d*%d oversubscribes budget %d",
				tc.requested, tc.instances, tc.gomax, inst, sim, budget)
		}
	}
}

func TestInstanceSeedsDiffer(t *testing.T) {
	seen := map[int64]bool{}
	for k := 0; k < 64; k++ {
		s := InstanceSeed(42, k)
		if seen[s] {
			t.Fatalf("instance seed collision at k=%d", k)
		}
		seen[s] = true
	}
	if InstanceSeed(1, 0) == InstanceSeed(2, 0) {
		t.Error("different base seeds map to the same instance seed")
	}
}

func TestCancellation(t *testing.T) {
	dev := testDevice()
	c := models.BuildFloquetIsing(4, 4)
	e := New(dev, pass.Combined())
	ctx, cancel := context.WithCancel(context.Background())
	cancel() // already cancelled: Run must not do the work
	for _, workers := range []int{1, 4} {
		_, err := e.Run(ctx, Job{
			Circuit:     c,
			Observables: []sim.ObsSpec{{0: 'X'}},
			Opts:        RunOptions{Instances: 8, Workers: workers, Seed: 1, Cfg: testConfig(64)},
		})
		if err != context.Canceled {
			t.Errorf("workers=%d: err = %v, want context.Canceled", workers, err)
		}
	}
}

func TestRunValidation(t *testing.T) {
	e := New(testDevice(), pass.Bare())
	if _, err := e.Run(context.Background(), Job{}); err == nil {
		t.Error("nil circuit accepted")
	}
	if _, err := e.Expectations(context.Background(), circuit.New(4, 0), nil, RunOptions{}); err == nil {
		t.Error("empty observables accepted")
	}
}

// TestMatchesSerialReference cross-checks the parallel executor against a
// hand-rolled serial loop using the same per-instance seeds and shot
// split.
func TestMatchesSerialReference(t *testing.T) {
	dev := testDevice()
	c := models.BuildFloquetIsing(4, 2)
	obs := []sim.ObsSpec{{0: 'X', 3: 'X'}}
	pl := pass.CAEC()
	const instances, shots, seed = 5, 52, 13

	// Reference: sequential, no executor.
	perInst, rem := shots/instances, shots%instances
	var sum float64
	total := 0
	for k := 0; k < instances; k++ {
		rng := rand.New(rand.NewSource(InstanceSeed(seed, k)))
		compiled, _, err := pl.Apply(dev, rng, c)
		if err != nil {
			t.Fatal(err)
		}
		cfg := testConfig(perInst)
		if k < rem {
			cfg.Shots++
		}
		cfg.Seed = testConfig(0).Seed + int64(k)*101
		vals, err := sim.New(dev, cfg).Expectations(compiled, obs)
		if err != nil {
			t.Fatal(err)
		}
		sum += vals[0] * float64(cfg.Shots)
		total += cfg.Shots
	}
	want := sum / float64(total)

	e := New(dev, pl)
	got, err := e.Expectations(context.Background(), c, obs, RunOptions{
		Instances: instances, Workers: 4, Seed: seed, Cfg: testConfig(shots),
	})
	if err != nil {
		t.Fatal(err)
	}
	if got[0] != want {
		t.Errorf("executor %v, serial reference %v", got[0], want)
	}
}

// TestCountsPackedAggregation pins the packed-counts contract: a counts
// job whose instances all run on the bit-plane stabilizer engine returns
// only the merged outcome planes — instance shot slices concatenated in
// instance order, covering the full budget — and no bitstring map;
// Executor.Counts returns exactly the planes' expansion. A statevector
// job returns Counts and no planes.
func TestCountsPackedAggregation(t *testing.T) {
	dev := testDevice()
	c := circuit.New(4, 2)
	c.AddLayer(circuit.OneQubitLayer).H(0)
	c.AddLayer(circuit.TwoQubitLayer).CX(0, 1)
	c.AddLayer(circuit.MeasureLayer).Measure(0, 0).Measure(1, 1)
	e := New(dev, pass.Twirled())
	// 150 shots over 3 instances = 50 each, so the instance-order merge
	// exercises the non-word-aligned concatenation offsets.
	ro := RunOptions{Instances: 3, Seed: 5, Cfg: testConfig(150), Engine: EngineStab}
	res, err := e.Run(context.Background(), Job{Circuit: c, Opts: ro})
	if err != nil {
		t.Fatal(err)
	}
	if res.Packed == nil {
		t.Fatal("stab counts job returned no packed planes")
	}
	if res.Counts != nil {
		t.Fatalf("packed job also built a counts map: %v", res.Counts)
	}
	if res.Packed.Shots != res.Shots || res.Shots != 150 {
		t.Fatalf("packed shots %d, merged shots %d, want 150", res.Packed.Shots, res.Shots)
	}
	if len(res.Packed.Planes) != 2 {
		t.Fatalf("%d planes, want 2", len(res.Packed.Planes))
	}
	counts, err := e.Counts(context.Background(), c, ro)
	if err != nil {
		t.Fatal(err)
	}
	if want := res.Packed.Counts(); !reflect.DeepEqual(counts, want) {
		t.Fatalf("Executor.Counts %+v, plane expansion %+v", counts, want)
	}
	ro.Engine = EngineStatevector
	res, err = e.Run(context.Background(), Job{Circuit: c, Opts: ro})
	if err != nil {
		t.Fatal(err)
	}
	if res.Packed != nil {
		t.Error("statevector counts job returned packed planes")
	}
	if len(res.Counts) == 0 {
		t.Error("statevector counts job returned no counts")
	}
}
