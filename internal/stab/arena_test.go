package stab

import (
	"math"
	"math/rand"
	"reflect"
	"slices"
	"sync"
	"testing"

	"casq/internal/circuit"
	"casq/internal/device"
	"casq/internal/pass"
	"casq/internal/sched"
	"casq/internal/sim"
)

// tiledLayer mirrors layerfid.TiledLayer, which this package cannot import:
// a greedy maximal matching of the device's couplers, one ECR per matched
// edge in its calibrated direction.
func tiledLayer(dev *device.Device) *circuit.Layer {
	used := make([]bool, dev.NQubits)
	l := &circuit.Layer{Kind: circuit.TwoQubitLayer}
	for _, e := range dev.Edges {
		if used[e.A] || used[e.B] {
			continue
		}
		used[e.A], used[e.B] = true, true
		dir := dev.ECRDir[e]
		l.ECR(dir.Src, dir.Dst)
	}
	return l
}

// layerFidCircuit builds a layer-fidelity style circuit on the full device:
// X, Y or Z preparations on the gate controls, depth copies of the tiled
// layer, and (when measure is set) a final measurement of every qubit.
func layerFidCircuit(dev *device.Device, depth int, measure bool) *circuit.Circuit {
	layer := tiledLayer(dev)
	ncb := 0
	if measure {
		ncb = dev.NQubits
	}
	c := circuit.New(dev.NQubits, ncb)
	prep := c.AddLayer(circuit.OneQubitLayer)
	for i, in := range layer.TwoQubitGates() {
		switch i % 3 {
		case 0:
			prep.H(in.Qubits[0])
		case 1:
			prep.U(in.Qubits[0], math.Pi/2, math.Pi/2, math.Pi)
		}
	}
	for d := 0; d < depth; d++ {
		c.Layers = append(c.Layers, layer.Clone())
	}
	if measure {
		ml := c.AddLayer(circuit.MeasureLayer)
		for q := 0; q < dev.NQubits; q++ {
			ml.Measure(q, q)
		}
	}
	return c
}

// arenaCase is one engine and circuit the arena tests compile.
type arenaCase struct {
	name string
	eng  *Engine
	c    *circuit.Circuit
	obs  []sim.ObsSpec
}

// arenaResult is everything a compile and its sampling produce.
type arenaResult struct {
	ops    []op
	meas   []measInfo
	plan   []blockOp
	info   CompileInfo
	exps   []float64
	planes sim.PackedBits
}

func arenaEngine(dev *device.Device, shots int, seed int64) *Engine {
	cfg := sim.DefaultConfig()
	cfg.Shots = shots
	cfg.Seed = seed
	cfg.Workers = 2
	return New(dev, cfg)
}

// arenaCases returns a 127-qubit fig8 CA-EC instance, a 29-qubit heavy-hex
// CA-DD instance with final measurements, and a 5-qubit circuit with
// nondeterministic mid-circuit measurements. Shot counts leave a scalar
// remainder tail after the 64-shot blocks.
func arenaCases(t *testing.T) []arenaCase {
	t.Helper()
	instance := func(backend string, pl pass.Pipeline, measure bool, seed int64) (*device.Device, *circuit.Circuit) {
		dev, err := device.NewBackend(backend)
		if err != nil {
			t.Fatal(err)
		}
		out, _, err := pl.Apply(dev, rand.New(rand.NewSource(seed)), layerFidCircuit(dev, 2, measure))
		if err != nil {
			t.Fatal(err)
		}
		return dev, out
	}
	obsOn := func(dev *device.Device, n int) []sim.ObsSpec {
		var obs []sim.ObsSpec
		for _, in := range tiledLayer(dev).TwoQubitGates()[:n] {
			obs = append(obs, sim.ObsSpec{in.Qubits[0]: 'X'}, sim.ObsSpec{in.Qubits[0]: 'Z', in.Qubits[1]: 'Z'})
		}
		return obs
	}

	dev127, c127 := instance("eagle127", pass.CAEC(), false, 11)
	dev29, c29 := instance("heavyhex29", pass.CADD(), true, 12)

	dev5 := device.NewLine("arena5", 5, device.DefaultOptions())
	c5 := circuit.New(5, 7)
	c5.AddLayer(circuit.OneQubitLayer).H(0).H(2).H(4)
	c5.AddLayer(circuit.TwoQubitLayer).ECR(0, 1).ECR(2, 3)
	c5.AddLayer(circuit.MeasureLayer).Measure(1, 0).Measure(2, 1)
	c5.AddLayer(circuit.OneQubitLayer).H(1).H(3).S(0)
	c5.AddLayer(circuit.TwoQubitLayer).ECR(3, 4).ECR(0, 1)
	ml := c5.AddLayer(circuit.MeasureLayer)
	for q := 0; q < 5; q++ {
		ml.Measure(q, q+2)
	}
	sched.Schedule(c5, dev5)

	return []arenaCase{
		{"eagle127", arenaEngine(dev127, 200, 3), c127, obsOn(dev127, 4)},
		{"heavyhex29", arenaEngine(dev29, 150, 4), c29, obsOn(dev29, 3)},
		{"line5", arenaEngine(dev5, 300, 5), c5, []sim.ObsSpec{{0: 'X'}, {3: 'Z', 4: 'Z'}}},
	}
}

// run compiles k into ar and samples it.
func (k *arenaCase) run(t *testing.T, ar *arena) arenaResult {
	t.Helper()
	p, err := k.eng.compileIn(ar, k.c)
	if err != nil {
		t.Fatalf("%s: %v", k.name, err)
	}
	r := arenaResult{ops: p.ops, meas: p.meas, plan: p.blockPlan().ops, info: p.info()}
	if r.exps, err = k.eng.expectations(p, k.obs); err != nil {
		t.Fatalf("%s: %v", k.name, err)
	}
	r.planes = k.eng.countsPacked(p)
	return r
}

// freshResults runs every case in its own fresh arena.
func freshResults(t *testing.T, cases []arenaCase) []arenaResult {
	t.Helper()
	want := make([]arenaResult, len(cases))
	for i := range cases {
		want[i] = cases[i].run(t, new(arena))
	}
	return want
}

// sameSlice is reflect.DeepEqual on slices with nil and empty equal: a
// fresh arena's empty record is nil, a reused one's is not.
func sameSlice[T any](a, b []T) bool {
	return len(a) == len(b) && (len(a) == 0 || reflect.DeepEqual(a, b))
}

// diff names the first part of a compile that differs from want's, or "".
func (r arenaResult) diff(want arenaResult) string {
	switch {
	case !sameSlice(r.ops, want.ops):
		return "op stream"
	case !sameSlice(r.meas, want.meas):
		return "measurement records"
	case !sameSlice(r.plan, want.plan):
		return "bit-plane plan"
	case r.info != want.info:
		return "compile info"
	case !slices.Equal(r.exps, want.exps):
		return "expectations"
	case !reflect.DeepEqual(r.planes, want.planes):
		return "outcome planes"
	}
	return ""
}

// checkPooled drives k through every pooled Engine entry point and
// reports each result that differs from the fresh arena's.
func checkPooled(t *testing.T, k *arenaCase, want arenaResult) {
	p, err := k.eng.compile(k.c)
	if err != nil {
		t.Errorf("%s: %v", k.name, err)
		return
	}
	// The compile is compared before release; sampling is checked through
	// the entry points below.
	got := arenaResult{ops: p.ops, meas: p.meas, plan: p.blockPlan().ops, info: p.info(),
		exps: want.exps, planes: want.planes}
	if d := got.diff(want); d != "" {
		t.Errorf("%s: pooled compile's %s differs from a fresh arena's", k.name, d)
	}
	p.release()
	if info, err := k.eng.Info(k.c); err != nil || info != want.info {
		t.Errorf("%s: Info = %+v, %v; fresh arena %+v", k.name, info, err, want.info)
	}
	if exps, err := k.eng.Expectations(k.c, k.obs); err != nil || !slices.Equal(exps, want.exps) {
		t.Errorf("%s: Expectations = %v, %v; fresh arena %v", k.name, exps, err, want.exps)
	}
	if planes, err := k.eng.CountsPacked(k.c); err != nil || !reflect.DeepEqual(planes, want.planes) {
		t.Errorf("%s: CountsPacked differs from a fresh arena's (err %v)", k.name, err)
	}
}

// TestArenaReuseMatchesFreshArena interleaves compiles of three differently
// sized circuits through one arena and through the shared pool: every op
// stream, reference record, bit-plane plan, CompileInfo, expectation and
// outcome plane must equal what a fresh arena produces, so no buffer
// carries state from one compile into the next.
func TestArenaReuseMatchesFreshArena(t *testing.T) {
	cases := arenaCases(t)
	want := freshResults(t, cases)
	random := 0
	for _, m := range want[2].meas {
		if !m.det {
			random++
		}
	}
	if random == 0 {
		t.Fatal("line5 circuit has no nondeterministic measurement")
	}

	ar := new(arena)
	for _, i := range []int{0, 2, 1, 0, 1, 2, 2, 0} {
		k := &cases[i]
		if d := k.run(t, ar).diff(want[i]); d != "" {
			t.Fatalf("%s: %s in a reused arena differs from a fresh arena's", k.name, d)
		}
	}
	for _, i := range []int{1, 0, 2, 0, 1} {
		checkPooled(t, &cases[i], want[i])
	}
}

// TestArenaPoolConcurrent runs the pooled entry points from 8 goroutines
// at once, each cycling through the cases in its own order; run it under
// -race to check that no arena is shared between calls.
func TestArenaPoolConcurrent(t *testing.T) {
	cases := arenaCases(t)
	want := freshResults(t, cases)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for r := 0; r < 2; r++ {
				for j := range cases {
					i := (g + j*(1+g%2)) % len(cases)
					checkPooled(t, &cases[i], want[i])
				}
			}
		}(g)
	}
	wg.Wait()
}

// TestInfoAllocs pins the channel derivation on BenchmarkPauliChannelDerivation's
// 127-qubit circuit as nearly allocation-free once the pool holds a warm
// arena.
func TestInfoAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items at random under the race detector")
	}
	dev, err := device.NewBackend("eagle127")
	if err != nil {
		t.Fatal(err)
	}
	layer := tiledLayer(dev)
	c := circuit.New(dev.NQubits, 0)
	prep := c.AddLayer(circuit.OneQubitLayer)
	for _, in := range layer.TwoQubitGates() {
		prep.H(in.Qubits[0])
	}
	for d := 0; d < 4; d++ {
		c.Layers = append(c.Layers, layer.Clone())
	}
	sched.Schedule(c, dev)
	e := New(dev, sim.DefaultConfig())
	if _, err := e.Info(c); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(20, func() {
		if _, err := e.Info(c); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 64 {
		t.Fatalf("warm Info allocates %.0f objects per call, want <= 64", allocs)
	}
}
