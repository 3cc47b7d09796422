package casq_test

import (
	"context"
	"math"
	"math/rand"
	"testing"

	"casq"
)

func TestFacadeEndToEnd(t *testing.T) {
	dev := casq.NewLineDevice("api", 3, casq.DefaultDeviceOptions())
	c := casq.NewCircuit(3, 2)
	c.AddLayer(casq.OneQubitLayer).H(0)
	c.AddLayer(casq.TwoQubitLayer).CX(0, 1)
	c.AddLayer(casq.MeasureLayer).Measure(0, 0).Measure(1, 1)
	casq.Schedule(c, dev)

	counts, err := casq.Simulate(dev, casq.IdealSimConfig(), c)
	if err != nil {
		t.Fatal(err)
	}
	for bits := range counts {
		if bits[:2] != "00" && bits[:2] != "11" {
			t.Errorf("ideal Bell produced %q", bits)
		}
	}
}

func TestFacadeCompilerStrategies(t *testing.T) {
	dev := casq.NewLineDevice("api", 4, casq.DefaultDeviceOptions())
	c := casq.NewCircuit(4, 0)
	c.AddLayer(casq.OneQubitLayer).H(0).H(3)
	c.AddLayer(casq.TwoQubitLayer).ECR(1, 2)

	cfg := casq.DefaultSimConfig()
	cfg.Shots = 32
	for _, st := range []casq.Strategy{casq.Bare(), casq.Twirled(), casq.CADD(), casq.CAEC(), casq.Combined()} {
		comp := casq.NewCompiler(dev, st, 3)
		vals, err := comp.Expectations(c, []casq.Observable{{0: 'X'}}, casq.RunOptions{Instances: 2, Cfg: cfg})
		if err != nil {
			t.Fatalf("%s: %v", st.Name, err)
		}
		if math.IsNaN(vals[0]) || vals[0] < -1.001 || vals[0] > 1.001 {
			t.Errorf("%s: bad expectation %v", st.Name, vals[0])
		}
	}
}

func TestFacadeExperiments(t *testing.T) {
	ids := casq.ExperimentIDs()
	if len(ids) != 17 {
		t.Errorf("expected 17 experiments, got %d", len(ids))
	}
	opts := casq.FastExperimentOptions()
	opts.Shots = 8
	opts.Instances = 1
	opts.MaxDepth = 1
	fig, err := casq.RunExperiment("table1", opts)
	if err != nil {
		t.Fatal(err)
	}
	if fig.ID != "table1" {
		t.Error("wrong figure returned")
	}
}

// TestFacadeCustomPipeline runs compositions the pre-redesign Strategy API
// could not express — CA-EC before CA-DD, and twirl-free DD — through the
// public facade.
func TestFacadeCustomPipeline(t *testing.T) {
	dev := casq.NewLineDevice("api", 4, casq.DefaultDeviceOptions())
	c := casq.NewCircuit(4, 0)
	c.AddLayer(casq.OneQubitLayer).H(0).H(3)
	c.AddLayer(casq.TwoQubitLayer).ECR(1, 2)

	cfg := casq.DefaultSimConfig()
	cfg.Shots = 32
	pipelines := []casq.Pipeline{
		casq.NewPipeline("ec-then-dd",
			casq.TwirlPass(casq.TwirlGatesOnly),
			casq.SchedulePass(),
			casq.ECPass(casq.DefaultECOptions()),
			casq.SchedulePass(),
			casq.DDPass(casq.DefaultDDOptions()),
		),
		casq.NewPipeline("dd-only", casq.SchedulePass(), casq.DDPass(casq.DefaultDDOptions())),
	}
	for _, pl := range pipelines {
		ex := casq.NewExecutor(dev, pl)
		vals, err := ex.Expectations(context.Background(), c, []casq.Observable{{0: 'X'}},
			casq.ExecOptions{Instances: 2, Seed: 3, Cfg: cfg})
		if err != nil {
			t.Fatalf("%s: %v", pl.Name, err)
		}
		if math.IsNaN(vals[0]) || vals[0] < -1.001 || vals[0] > 1.001 {
			t.Errorf("%s: bad expectation %v", pl.Name, vals[0])
		}
		compiled, rep, err := casq.Compile(dev, pl, c, 3)
		if err != nil {
			t.Fatalf("%s: compile: %v", pl.Name, err)
		}
		if err := compiled.Validate(); err != nil {
			t.Fatalf("%s: invalid circuit: %v", pl.Name, err)
		}
		if rep.DD.Total == 0 {
			t.Errorf("%s: no DD pulses despite DD pass", pl.Name)
		}
	}
}

// TestFacadeCompatSemantics pins the compat Compiler wrappers: two
// Compilers with the same construction seed reproduce each other
// bit-for-bit, while successive calls on one Compiler draw fresh twirl
// samples (the pre-redesign shared-RNG semantics).
func TestFacadeCompatSemantics(t *testing.T) {
	dev := casq.NewLineDevice("api", 4, casq.DefaultDeviceOptions())
	c := casq.NewCircuit(4, 0)
	c.AddLayer(casq.OneQubitLayer).H(0).H(3)
	c.AddLayer(casq.TwoQubitLayer).ECR(1, 2)

	cfg := casq.DefaultSimConfig()
	cfg.Shots = 48
	// <Z2> on a gate qubit is genuinely twirl-sensitive: different Pauli
	// frames change the sampled trajectories, not just last-ulp rounding.
	// (<X0> on the idle spectator is exactly twirl-symmetric under the
	// fused diagonal kernel, so it no longer distinguishes instances.)
	obs := []casq.Observable{{2: 'Z'}}
	ro := casq.RunOptions{Instances: 3, Cfg: cfg}
	run := func(comp *casq.Compiler) float64 {
		t.Helper()
		vals, err := comp.Expectations(c, obs, ro)
		if err != nil {
			t.Fatal(err)
		}
		return vals[0]
	}
	a := casq.NewCompiler(dev, casq.Combined(), 11)
	b := casq.NewCompiler(dev, casq.Combined(), 11)
	first := run(a)
	if again := run(b); again != first {
		t.Errorf("same construction seed gave %v then %v (must be bit-identical)", first, again)
	}
	if second := run(a); second == first {
		t.Errorf("successive calls on one Compiler returned identical %v — twirl samples must be fresh", first)
	}
}

func TestFacadeTwirlInstance(t *testing.T) {
	c := casq.NewCircuit(2, 0)
	c.AddLayer(casq.TwoQubitLayer).ECR(0, 1)
	inst, err := casq.TwirlInstance(c, rand.New(rand.NewSource(5)))
	if err != nil {
		t.Fatal(err)
	}
	if inst.Depth() != 3 {
		t.Errorf("twirled depth %d, want 3 (pre, gate, post)", inst.Depth())
	}
}

// TestFacadeExperimentService exercises the service surface end to end
// through the facade: catalog enumeration, cached figure requests, and a
// checkpointed sweep.
func TestFacadeExperimentService(t *testing.T) {
	if testing.Short() {
		t.Skip("slow")
	}
	catalog := casq.ExperimentCatalog()
	if len(catalog) != len(casq.ExperimentIDs()) {
		t.Fatalf("catalog has %d specs, want %d", len(catalog), len(casq.ExperimentIDs()))
	}
	if sp, ok := casq.LookupExperiment("fig6"); !ok || sp.Paper != "Fig. 6" {
		t.Fatalf("LookupExperiment(fig6) = %+v, %v", sp, ok)
	}

	st, err := casq.OpenResultStore("", 8)
	if err != nil {
		t.Fatal(err)
	}
	cache := casq.NewFigureCache(st)
	opts := casq.FastExperimentOptions()
	opts.Shots, opts.Instances, opts.MaxDepth = 16, 2, 2
	cell := casq.SweepCell{ID: "fig5", Opts: opts}
	first, hit, err := cache.Figure(cell)
	if err != nil || hit {
		t.Fatalf("first request: hit=%v err=%v", hit, err)
	}
	second, hit, err := cache.Figure(cell)
	if err != nil || !hit || string(first) != string(second) {
		t.Fatalf("second request: hit=%v identical=%v err=%v", hit, string(first) == string(second), err)
	}

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	coord := casq.NewLocalCoordinator(ctx, cache, 2)
	defer coord.Close()
	run, err := coord.Submit(casq.SweepSpec{
		IDs:  []string{"fig5", "table1"},
		Grid: casq.SweepGrid{Seeds: []int64{1, 2}},
		Base: opts,
		Fast: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	p := run.Wait()
	if p.Done != 4 || p.Failed != 0 {
		t.Fatalf("sweep progress = %+v", p)
	}
	if st.Stats().Hits == 0 {
		t.Error("store recorded no hits")
	}
}

// TestFacadeFingerprint pins the content-address contract at the facade.
func TestFacadeFingerprint(t *testing.T) {
	k1, err := casq.Fingerprint(map[string]any{"id": "x", "seed": 7})
	if err != nil {
		t.Fatal(err)
	}
	k2, _ := casq.Fingerprint(map[string]any{"seed": 7, "id": "x"})
	if k1 != k2 {
		t.Error("field order changed the fingerprint")
	}
	if !k1.Valid() {
		t.Errorf("invalid key %q", k1)
	}
}

func TestFacadeBackendsAndLayout(t *testing.T) {
	infos := casq.Backends()
	if len(infos) < 9 {
		t.Fatalf("registry has %d backends", len(infos))
	}
	biggest := infos[len(infos)-1]
	if biggest.NQubits != 127 {
		t.Fatalf("largest backend is %dq, want the 127-qubit lattice", biggest.NQubits)
	}
	dev, err := casq.NewBackend("heavyhex29")
	if err != nil {
		t.Fatal(err)
	}

	// Snapshot round trip through the public surface.
	snap := casq.SnapshotDevice(dev)
	back, err := casq.DeviceFromSnapshot(snap)
	if err != nil {
		t.Fatal(err)
	}
	k1, _ := casq.Fingerprint(snap)
	k2, _ := casq.Fingerprint(casq.SnapshotDevice(back))
	if k1 != k2 {
		t.Error("snapshot fingerprint not stable across import")
	}
	if p := casq.PerturbDevice(dev, 3, 0.05); p.Validate() != nil {
		t.Error("perturbed device invalid")
	}

	// Place a 4-qubit chain workload and run it on the induced sub-device.
	c := casq.NewCircuit(4, 0)
	c.AddLayer(casq.OneQubitLayer).H(0)
	c.AddLayer(casq.TwoQubitLayer).ECR(0, 1).ECR(2, 3)
	c.AddLayer(casq.TwoQubitLayer).ECR(1, 2)
	pl, err := casq.ChooseLayout(dev, c, casq.DefaultLayoutOptions())
	if err != nil {
		t.Fatal(err)
	}
	placed, _, swaps, err := pl.MapCircuit(c)
	if err != nil {
		t.Fatal(err)
	}
	if swaps != 0 {
		t.Errorf("chain workload should embed without SWAPs, got %d", swaps)
	}
	ex := casq.NewExecutor(pl.Sub, casq.Build(casq.Twirled()))
	cfg := casq.DefaultSimConfig()
	cfg.Shots = 8
	vals, err := ex.Expectations(context.Background(), placed,
		[]casq.Observable{{pl.ToSub[0]: 'Z'}}, casq.ExecOptions{Instances: 2, Seed: 5, Cfg: cfg})
	if err != nil {
		t.Fatal(err)
	}
	if math.IsNaN(vals[0]) {
		t.Fatal("NaN expectation on the induced sub-device")
	}

	// Pass composition: layout + route inside an ordinary pipeline.
	pipe := casq.NewPipeline("placed", casq.LayoutPass(casq.DefaultLayoutOptions()),
		casq.RoutePass(), casq.SchedulePass())
	compiled, rep, err := pipe.Apply(dev, rand.New(rand.NewSource(2)), c)
	if err != nil {
		t.Fatal(err)
	}
	if compiled.NQubits != dev.NQubits || len(rep.Layout) != 4 {
		t.Errorf("pipeline placement: %d qubits, layout %v", compiled.NQubits, rep.Layout)
	}
}

// TestFacadeCorrelations smoke-tests the correlation-spectroscopy exports:
// the packed estimator on hand-built planes, the counts-map expansion, and
// the backend diagnostic behind the serve endpoint.
func TestFacadeCorrelations(t *testing.T) {
	// Two perfectly correlated bits and one independent bit over 128 shots.
	rng := rand.New(rand.NewSource(9))
	counts := map[string]int{}
	for s := 0; s < 128; s++ {
		a := rng.Intn(2)
		c := rng.Intn(2)
		bits := []byte{'0' + byte(a), '0' + byte(a), '0' + byte(c)}
		counts[string(bits)]++
	}
	m := casq.EstimateCorrelations(casq.PackedBitsFromCounts(counts, 3))
	if m.N != 3 || m.Shots != 128 {
		t.Fatalf("matrix shape = (%d qubits, %d shots)", m.N, m.Shots)
	}
	if c := m.CorrAt(0, 1); math.Abs(c-1) > 1e-9 {
		t.Errorf("duplicated bits correlate at %v, want 1", c)
	}
	if c := m.CorrAt(0, 2); math.Abs(c) > 0.5 {
		t.Errorf("independent bits correlate at %v", c)
	}

	opts := casq.FastExperimentOptions()
	opts.Shots = 128
	rep, err := casq.CorrelationDiagnostic("line6", "", opts)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Backend != "line6" || rep.Strategy != "twirled" || len(rep.FlipRates) != 6 {
		t.Errorf("diagnostic = %+v", rep)
	}
	var _ []casq.CorrelationPair = rep.Pairs
	var _ []casq.CorrelationDecayBin = rep.Decay
}
