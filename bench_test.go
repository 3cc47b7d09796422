// Package casq_test benchmarks the regeneration of every table and figure
// in the paper's evaluation (one benchmark per table/figure, plus ablation
// benches for the design choices called out in DESIGN.md). The benchmarks
// use the reduced Fast configuration so a -bench=. sweep stays tractable;
// cmd/experiments regenerates the full-quality numbers recorded in
// EXPERIMENTS.md.
package casq_test

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"

	"casq"
	"casq/internal/caec"
	"casq/internal/circuit"
	"casq/internal/correl"
	"casq/internal/dd"
	"casq/internal/device"
	"casq/internal/exec"
	"casq/internal/experiments"
	"casq/internal/gates"
	"casq/internal/layerfid"
	"casq/internal/layout"
	"casq/internal/models"
	"casq/internal/pass"
	"casq/internal/pauli"
	"casq/internal/sched"
	"casq/internal/sim"
	"casq/internal/stab"
	"casq/internal/twirl"
)

func benchExperiment(b *testing.B, id string) {
	b.Helper()
	opts := experiments.FastOptions()
	opts.Shots = 16
	opts.Instances = 2
	opts.MaxDepth = 3
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Run(id, opts); err != nil {
			b.Fatal(err)
		}
	}
}

// One benchmark per paper table/figure.

func BenchmarkFig3cCaseI(b *testing.B)        { benchExperiment(b, "fig3c") }
func BenchmarkFig3dCaseII(b *testing.B)       { benchExperiment(b, "fig3d") }
func BenchmarkFig3eCaseIII(b *testing.B)      { benchExperiment(b, "fig3e") }
func BenchmarkFig3fCaseIV(b *testing.B)       { benchExperiment(b, "fig3f") }
func BenchmarkFig4aStark(b *testing.B)        { benchExperiment(b, "fig4a") }
func BenchmarkFig4bParity(b *testing.B)       { benchExperiment(b, "fig4b") }
func BenchmarkFig4cNNN(b *testing.B)          { benchExperiment(b, "fig4c") }
func BenchmarkFig5Coloring(b *testing.B)      { benchExperiment(b, "fig5") }
func BenchmarkFig6Ising(b *testing.B)         { benchExperiment(b, "fig6") }
func BenchmarkFig7cHeisenberg(b *testing.B)   { benchExperiment(b, "fig7c") }
func BenchmarkFig7dOverhead(b *testing.B)     { benchExperiment(b, "fig7d") }
func BenchmarkFig8LayerFidelity(b *testing.B) { benchExperiment(b, "fig8") }
func BenchmarkFig9Dynamic(b *testing.B)       { benchExperiment(b, "fig9") }
func BenchmarkFig10Combined(b *testing.B)     { benchExperiment(b, "fig10") }
func BenchmarkTableI(b *testing.B)            { benchExperiment(b, "table1") }

// Component benchmarks: the compiler passes and the simulator on a
// representative workload.

func benchWorkload() (*device.Device, *circuit.Circuit) {
	opts := device.DefaultOptions()
	dev := device.NewLine("bench", 6, opts)
	c := models.BuildFloquetIsing(6, 4)
	return dev, c
}

func BenchmarkCompileCADD(b *testing.B) {
	dev, c := benchWorkload()
	pl := pass.CADD()
	rng := rand.New(rand.NewSource(1))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, _, err := pl.Apply(dev, rng, c); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkCompileCAEC(b *testing.B) {
	dev, c := benchWorkload()
	pl := pass.CAEC()
	rng := rand.New(rand.NewSource(1))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, _, err := pl.Apply(dev, rng, c); err != nil {
			b.Fatal(err)
		}
	}
}

// Executor benchmarks: the same twirl-averaged job run serially (Workers=1
// is a fully serial budget under the unified worker-budget model) and
// fanned out across GOMAXPROCS. The simulator's own shot-level parallelism
// is pinned to one thread in both so the comparison isolates
// instance-level fan-out.

func benchExecutorJob() (*exec.Executor, exec.Job) {
	dev, c := benchWorkload()
	cfg := sim.DefaultConfig()
	cfg.Shots = 96
	cfg.Workers = 1
	return exec.New(dev, pass.Combined()), exec.Job{
		Circuit:     c,
		Observables: []sim.ObsSpec{{0: 'X', 5: 'X'}},
		Opts:        exec.RunOptions{Instances: 12, Seed: 3, Cfg: cfg},
	}
}

func BenchmarkExecutorSerial(b *testing.B) {
	ex, job := benchExecutorJob()
	job.Opts.Workers = 1
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := ex.Run(context.Background(), job); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkExecutorParallel(b *testing.B) {
	ex, job := benchExecutorJob()
	job.Opts.Workers = 0 // GOMAXPROCS
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := ex.Run(context.Background(), job); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSimulator6Q(b *testing.B) {
	dev, c := benchWorkload()
	sched.Schedule(c, dev)
	cfg := sim.DefaultConfig()
	cfg.Shots = 16
	cfg.Workers = 1
	r := sim.New(dev, cfg)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := r.Expectations(c, []sim.ObsSpec{{0: 'X', 5: 'X'}}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSimulator12Q(b *testing.B) {
	opts := device.DefaultOptions()
	dev := device.NewRing("bench12", 12, opts)
	c := models.BuildHeisenbergRing(12, 2, models.DefaultHeisenberg())
	sched.Schedule(c, dev)
	cfg := sim.DefaultConfig()
	cfg.Shots = 4
	cfg.Workers = 1
	r := sim.New(dev, cfg)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := r.Expectations(c, []sim.ObsSpec{{2: 'Z'}}); err != nil {
			b.Fatal(err)
		}
	}
}

var reseedSink uint64

// BenchmarkShotReseed measures one per-shot reseed plus that shot's draws,
// at the draw counts of a fast fig9 shot (63), a fast heavyhex127 fig6
// shot (125) and a 127q stab scalar-tail shot (1250), for math/rand's own
// source (std) and sim.ShotSource (shot). Both yield the same stream.
func BenchmarkShotReseed(b *testing.B) {
	sources := []struct {
		name string
		src  rand.Source64
	}{
		{"std", rand.NewSource(0).(rand.Source64)},
		{"shot", new(sim.ShotSource)},
	}
	for _, s := range sources {
		for _, draws := range []int{63, 125, 1250} {
			b.Run(fmt.Sprintf("%s/draws=%d", s.name, draws), func(b *testing.B) {
				src := s.src
				var acc uint64
				for i := 0; i < b.N; i++ {
					src.Seed(sim.ShotSeed(1, i))
					for k := 0; k < draws; k++ {
						acc += src.Uint64()
					}
				}
				reseedSink = acc
			})
		}
	}
}

func BenchmarkTwirlInstance(b *testing.B) {
	_, c := benchWorkload()
	rng := rand.New(rand.NewSource(3))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := twirl.Instance(c, twirl.AllQubits, rng); err != nil {
			b.Fatal(err)
		}
	}
}

// Ablation benches for the design choices listed in DESIGN.md.

// BenchmarkAblationWalshLevels compares the pulse count of increasing Walsh
// palette sizes on the Fig. 5 fragment.
func BenchmarkAblationWalshLevels(b *testing.B) {
	devOpts := device.DefaultOptions()
	dev := device.NewHeavyHexFragment(devOpts)
	build := func() *circuit.Circuit {
		c := circuit.New(6, 0)
		prep := c.AddLayer(circuit.OneQubitLayer)
		for q := 0; q < 6; q++ {
			prep.H(q)
		}
		idle := c.AddLayer(circuit.TwoQubitLayer)
		for q := 0; q < 6; q++ {
			idle.Add(circuit.Instruction{Gate: gates.Delay, Qubits: []int{q}, Params: []float64{2000}})
		}
		return c
	}
	for i := 0; i < b.N; i++ {
		for _, colors := range []int{4, 8, 16} {
			c := build()
			sched.Schedule(c, dev)
			o := dd.DefaultOptions()
			o.MaxColors = colors
			rep, err := dd.Insert(c, dev, o)
			if err != nil {
				b.Fatal(err)
			}
			if i == 0 {
				b.Logf("palette %d colors -> %d pulses", colors, rep.Total)
			}
		}
	}
}

// BenchmarkAblationECMiscalibration measures CA-EC's sensitivity to
// mis-characterized ZZ rates: the compiler compensates using rates scaled
// away from the simulator's truth.
func BenchmarkAblationECMiscalibration(b *testing.B) {
	opts := device.DefaultOptions()
	opts.DeltaMax = 0
	opts.QuasistaticSigma = 0
	opts.Err1Q, opts.Err2Q, opts.ReadoutErr = 0, 0, 0
	// T1 = 0 now simply disables relaxation (the old T1Min=1e12 workaround
	// papered over a divide-by-zero in the pure-dephasing rate).
	opts.T1Min, opts.T1Max = 0, 0
	opts.RotaryResidual = 0
	truth := device.NewLine("truth", 4, opts)
	for i := 0; i < b.N; i++ {
		for _, scale := range []float64{1.0, 1.1, 1.3} {
			believed := device.NewLine("believed", 4, opts)
			for e := range believed.ZZ {
				believed.ZZ[e] = truth.ZZ[e] * scale
			}
			// Even depth: the ideal boundary correlator is exactly -1, so
			// the compensated value directly reads out residual error.
			c := models.BuildFloquetIsing(4, 2)
			sched.Schedule(c, believed)
			ecOpts := caec.DefaultOptions()
			ecOpts.MaterializeMin = 0
			compiled, _, err := caec.Apply(c, believed, ecOpts)
			if err != nil {
				b.Fatal(err)
			}
			cfg := sim.CoherentOnly(1)
			cfg.Workers = 1
			vals, err := sim.New(truth, cfg).Expectations(compiled, []sim.ObsSpec{{0: 'X', 3: 'X'}})
			if err != nil {
				b.Fatal(err)
			}
			if i == 0 {
				b.Logf("ZZ miscalibration x%.1f -> <X0X3> = %.4f (ideal -1)", scale, vals[0])
			}
		}
	}
}

// BenchmarkAblationStretchedRZZ compares the error cost of a
// pulse-stretched native RZZ correction against composing it from two CX
// gates (modeled as two full-error 2q gates).
func BenchmarkAblationStretchedRZZ(b *testing.B) {
	opts := device.DefaultOptions()
	dev := device.NewLine("stretch", 2, opts)
	theta := 0.3
	for i := 0; i < b.N; i++ {
		// Stretched: single RZZ layer.
		cs := circuit.New(2, 0)
		cs.AddLayer(circuit.OneQubitLayer).H(0).H(1)
		cs.AddLayer(circuit.TwoQubitLayer).RZZ(0, 1, theta)
		sched.Schedule(cs, dev)
		// Two-CX construction: CX . Rz . CX.
		cc := circuit.New(2, 0)
		cc.AddLayer(circuit.OneQubitLayer).H(0).H(1)
		cc.AddLayer(circuit.TwoQubitLayer).CX(0, 1)
		cc.AddLayer(circuit.OneQubitLayer).RZ(1, theta)
		cc.AddLayer(circuit.TwoQubitLayer).CX(0, 1)
		sched.Schedule(cc, dev)
		cfg := sim.DefaultConfig()
		cfg.Shots = 64
		obs := []sim.ObsSpec{{0: 'X'}}
		vs, err := sim.New(dev, cfg).Expectations(cs, obs)
		if err != nil {
			b.Fatal(err)
		}
		vc, err := sim.New(dev, cfg).Expectations(cc, obs)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.Logf("stretched rzz dur=%.0fns vs 2xCX dur=%.0fns; <X0>: %.4f vs %.4f",
				cs.TotalDuration(), cc.TotalDuration(), vs[0], vc[0])
		}
	}
}

// BenchmarkAblationStaggeredVsCA quantifies the value of echo-aware
// coloring: staggered-by-index DD on a control spectator vs CA-DD.
func BenchmarkAblationStaggeredVsCA(b *testing.B) {
	devOpts := device.DefaultOptions()
	devOpts.Seed = 41
	dev := models.RamseyDevice(models.CaseControlSpectator, devOpts)
	for i := 0; i < b.N; i++ {
		for _, st := range []dd.Strategy{dd.Staggered, dd.ContextAware} {
			spec := models.BuildRamsey(models.CaseControlSpectator, 6, 500)
			sched.Schedule(spec.Circuit, dev)
			o := dd.DefaultOptions()
			o.Strategy = st
			if _, err := dd.Insert(spec.Circuit, dev, o); err != nil {
				b.Fatal(err)
			}
			cfg := sim.CoherentOnly(1)
			cfg.Workers = 1
			vals, err := sim.New(dev, cfg).Expectations(spec.Circuit, []sim.ObsSpec{{spec.Probes[0]: 'X'}})
			if err != nil {
				b.Fatal(err)
			}
			if i == 0 {
				b.Logf("%v: spectator <X> = %.5f", st, vals[0])
			}
		}
	}
}

// BenchmarkFacadeQuickstart exercises the public API end to end:
// pipeline build, executor, and the compat compiler wrapper.
func BenchmarkFacadeQuickstart(b *testing.B) {
	dev := casq.NewLineDevice("facade", 4, casq.DefaultDeviceOptions())
	for i := 0; i < b.N; i++ {
		c := casq.NewCircuit(4, 0)
		c.AddLayer(casq.OneQubitLayer).H(0).H(3)
		c.AddLayer(casq.TwoQubitLayer).ECR(1, 2)
		ex := casq.NewExecutor(dev, casq.Build(casq.Combined()))
		cfg := casq.DefaultSimConfig()
		cfg.Shots = 16
		vals, err := ex.Expectations(context.Background(), c, []casq.Observable{{0: 'X'}},
			casq.ExecOptions{Instances: 2, Seed: 7, Cfg: cfg})
		if err != nil {
			b.Fatal(err)
		}
		if math.IsNaN(vals[0]) {
			b.Fatal("NaN expectation")
		}
	}
}

// stab127Workload builds the full-127-qubit layer-fidelity workload: the
// Eagle lattice, a maximal ECR tiling, and a depth-4 twirl-representable
// probe circuit.
func stab127Workload(b *testing.B) (*device.Device, *circuit.Circuit) {
	b.Helper()
	dev, err := device.NewBackend("eagle127")
	if err != nil {
		b.Fatal(err)
	}
	layer := layerfid.TiledLayer(dev)
	c := circuit.New(dev.NQubits, 0)
	prep := c.AddLayer(circuit.OneQubitLayer)
	for _, in := range layer.TwoQubitGates() {
		prep.H(in.Qubits[0])
	}
	for d := 0; d < 4; d++ {
		c.Layers = append(c.Layers, layer.Clone())
	}
	return dev, c
}

// BenchmarkStabilizer127Q measures the full-scale engine end to end: a
// twirled depth-4 Eagle-lattice layer circuit, compiled through the
// twirled pipeline and sampled by the stabilizer engine — the workload
// the 2^127 statevector cannot touch. CI archives it as BENCH_stab.json.
func BenchmarkStabilizer127Q(b *testing.B) {
	dev, c := stab127Workload(b)
	obs := make([]sim.ObsSpec, 0, 8)
	for _, in := range c.Layers[1].TwoQubitGates()[:8] {
		obs = append(obs, sim.ObsSpec{in.Qubits[0]: 'X'})
	}
	cfg := sim.DefaultConfig()
	cfg.Shots = 256
	cfg.Workers = 1
	ex := exec.New(dev, pass.Twirled())
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		vals, err := ex.Expectations(context.Background(), c, obs,
			exec.RunOptions{Instances: 2, Workers: 1, Seed: 3, Cfg: cfg, Engine: exec.EngineStab})
		if err != nil {
			b.Fatal(err)
		}
		if math.IsNaN(vals[0]) {
			b.Fatal("NaN expectation")
		}
	}
}

// BenchmarkStabilizer127QReference isolates the reference tableau run of
// one full-127-qubit layer-fidelity instance: the stab127Workload circuit
// compiled through CA-DD (one twirl draw), its ideal Clifford skeleton
// replayed on a fresh 127-qubit tableau — 1q Cliffords, Pauli twirl and DD
// pulses, ECRs — and one expectation value read off the final state. The
// engine reruns this for every twirl instance it compiles.
func BenchmarkStabilizer127QReference(b *testing.B) {
	dev, c := stab127Workload(b)
	compiled, _, err := pass.CADD().Apply(dev, rand.New(rand.NewSource(3)), c)
	if err != nil {
		b.Fatal(err)
	}
	type refOp struct {
		q0, q1 int
		c1     *pauli.Clifford1Q
		c2     *pauli.CliffordTable
		p      pauli.Pauli
	}
	tabs1 := map[string]*pauli.Clifford1Q{}
	tabs2 := map[gates.Kind]*pauli.CliffordTable{}
	var ops []refOp
	for _, l := range compiled.Layers {
		for _, in := range l.Instrs {
			switch {
			case in.Gate == gates.Delay || in.Gate == gates.Barrier || in.Gate == gates.ID:
			case in.Gate == gates.XGate || in.Gate == gates.XDD:
				ops = append(ops, refOp{q0: in.Qubits[0], p: pauli.X})
			case in.Gate == gates.YGate:
				ops = append(ops, refOp{q0: in.Qubits[0], p: pauli.Y})
			case in.Gate == gates.ZGate:
				ops = append(ops, refOp{q0: in.Qubits[0], p: pauli.Z})
			case gates.NumQubits(in.Gate) == 2:
				t, ok := tabs2[in.Gate]
				if !ok {
					if t, err = pauli.NewCliffordTable(gates.Matrix2Q(in.Gate, in.Params...)); err != nil {
						b.Fatal(err)
					}
					tabs2[in.Gate] = t
				}
				ops = append(ops, refOp{q0: in.Qubits[0], q1: in.Qubits[1], c2: t})
			default:
				key := fmt.Sprint(in.Gate, in.Params)
				t, ok := tabs1[key]
				if !ok {
					if t, err = pauli.NewClifford1Q(gates.Matrix1Q(in.Gate, in.Params...)); err != nil {
						b.Fatal(err)
					}
					tabs1[key] = t
				}
				ops = append(ops, refOp{q0: in.Qubits[0], c1: t})
			}
		}
	}
	z0, _ := pauli.ParseString("Z" + strings.Repeat("I", dev.NQubits-1))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tab := stab.NewTableau(dev.NQubits)
		for _, o := range ops {
			switch {
			case o.c1 != nil:
				tab.ApplyClifford1(o.q0, o.c1)
			case o.c2 != nil:
				tab.ApplyClifford2(o.q0, o.q1, o.c2)
			default:
				tab.ApplyPauli(o.q0, o.p)
			}
		}
		if _, err := tab.Expect(z0); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(len(ops)), "ops")
}

// BenchmarkStabBatch127Q measures the bit-plane batched shot path on the
// full 127-qubit workload at growing shot budgets (10^3, 10^4, 10^5),
// reporting throughput as a shots/s metric — the series CI archives into
// BENCH_stab.json so the batching speedup is tracked from one PR to the
// next. The scalar sub-benchmark runs the retained per-shot reference
// path on the same compiled circuit, so shots/s(batch)/shots/s(scalar) is
// the batching speedup on this machine.
func BenchmarkStabBatch127Q(b *testing.B) {
	dev, c := stab127Workload(b)
	rng := rand.New(rand.NewSource(3))
	compiled, _, err := pass.Twirled().Apply(dev, rng, c)
	if err != nil {
		b.Fatal(err)
	}
	obs := make([]sim.ObsSpec, 0, 8)
	for _, in := range c.Layers[1].TwoQubitGates()[:8] {
		obs = append(obs, sim.ObsSpec{in.Qubits[0]: 'X'})
	}
	run := func(shots int, scalar bool) func(b *testing.B) {
		return func(b *testing.B) {
			cfg := sim.DefaultConfig()
			cfg.Shots = shots
			cfg.Workers = 1
			eng := stab.New(dev, cfg)
			eng.Scalar = scalar
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				vals, err := eng.Expectations(compiled, obs)
				if err != nil {
					b.Fatal(err)
				}
				if math.IsNaN(vals[0]) {
					b.Fatal("NaN expectation")
				}
			}
			b.ReportMetric(float64(shots)*float64(b.N)/b.Elapsed().Seconds(), "shots/s")
		}
	}
	b.Run("shots=1e3", run(1_000, false))
	b.Run("shots=1e4", run(10_000, false))
	b.Run("shots=1e5", run(100_000, false))
	b.Run("scalar/shots=1e4", run(10_000, true))
}

// BenchmarkStabBatch127QRamsey measures the bit-plane shot path on
// figC1's workload: the bare Ramsey probe (H, two 600 ns idle windows, H,
// measure all) on the full Eagle lattice, one twirl instance's 12 500-shot
// share of the 5x10^4 budget, sampled into packed outcome planes on one
// worker. The long idle windows put about a quarter of its channel
// tables on the dense Bernoulli path (p >= 0.05), which dominates its
// sampling time, so this series tracks the dense mask sampler.
func BenchmarkStabBatch127QRamsey(b *testing.B) {
	dev, err := device.NewBackend("eagle127")
	if err != nil {
		b.Fatal(err)
	}
	c := experiments.SpectroscopyCircuit(dev.NQubits, 2, 600)
	compiled, _, err := pass.Bare().Apply(dev, rand.New(rand.NewSource(3)), c)
	if err != nil {
		b.Fatal(err)
	}
	const shots = 12_500
	cfg := sim.DefaultConfig()
	cfg.Shots = shots
	cfg.Workers = 1
	cfg.EnableReadoutErr = false
	eng := stab.New(dev, cfg)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pb, err := eng.CountsPacked(compiled)
		if err != nil {
			b.Fatal(err)
		}
		if pb.Shots != shots {
			b.Fatalf("%d shots, want %d", pb.Shots, shots)
		}
	}
	b.ReportMetric(float64(shots)*float64(b.N)/b.Elapsed().Seconds(), "shots/s")
}

// BenchmarkPauliChannelDerivation isolates the PTA compile stage: walking
// the 127-qubit schedule, integrating every toggling-frame error angle,
// and deriving the per-location Pauli channels plus the reference tableau
// run (no shot sampling).
func BenchmarkPauliChannelDerivation(b *testing.B) {
	dev, c := stab127Workload(b)
	sched.Schedule(c, dev)
	eng := stab.New(dev, sim.DefaultConfig())
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		inf, err := eng.Info(c)
		if err != nil {
			b.Fatal(err)
		}
		if inf.Channels == 0 {
			b.Fatal("no channels derived")
		}
	}
}

// BenchmarkLayoutRouting measures the compile path of the backend stage:
// choosing the minimal-predicted-error 6-qubit subregion of the 127-qubit
// Eagle lattice (candidate enumeration + static filter + toggling-frame
// scoring of the finalists) and routing the placed circuit. CI archives it
// as BENCH_compile.json, next to the simulator artifact.
func BenchmarkLayoutRouting(b *testing.B) {
	dev, err := device.NewBackend("heavyhex127")
	if err != nil {
		b.Fatal(err)
	}
	c := models.BuildFloquetIsing(6, 4)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		pl, err := layout.Choose(dev, c, layout.DefaultOptions())
		if err != nil {
			b.Fatal(err)
		}
		if _, _, _, err := pl.MapCircuit(c); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkChoose127Q measures the surrogate-pruned layout search against
// exhaustive exact scoring on the 127-qubit Eagle lattice: the pruned
// sub-benchmark runs the default three-tier search (static filter ->
// surrogate fit on a small exact batch -> exact scoring of the predicted
// top-K), the exhaustive one exact-scores every enumerated candidate. Both
// report candidates/s and choose_ms series that CI archives into
// BENCH_compile.json, so choose_ms(exhaustive)/choose_ms(pruned) is the
// pruning speedup tracked from one PR to the next. The pruned search must
// select a placement whose exact score is no worse than the exhaustive
// optimum (on this workload it finds the identical placement).
func BenchmarkChoose127Q(b *testing.B) {
	dev, err := device.NewBackend("heavyhex127")
	if err != nil {
		b.Fatal(err)
	}
	c := models.BuildFloquetIsing(6, 4)
	exhaustive := layout.DefaultOptions()
	exhaustive.NoSurrogate = true
	exhaustive.TopK = layout.DefaultMaxCandidates
	_, want, err := layout.ChooseWith(dev, c, exhaustive)
	if err != nil {
		b.Fatal(err)
	}
	bench := func(opts layout.Options, checkScore bool) func(b *testing.B) {
		return func(b *testing.B) {
			var rep *layout.SearchReport
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				pl, r, err := layout.ChooseWith(dev, c, opts)
				if err != nil {
					b.Fatal(err)
				}
				rep = r
				if checkScore && pl.Score > want.BestExact {
					b.Fatalf("pruned score %.9f worse than exhaustive optimum %.9f",
						pl.Score, want.BestExact)
				}
			}
			b.ReportMetric(rep.CandidatesPerSec, "candidates/s")
			b.ReportMetric(b.Elapsed().Seconds()*1e3/float64(b.N), "choose_ms")
		}
	}
	b.Run("pruned", bench(layout.DefaultOptions(), true))
	b.Run("exhaustive", bench(exhaustive, false))
}

// BenchmarkCompileLayerBuild127Q measures building the IR of one
// twirled, dynamically decoupled 127-qubit layer through Layer.Add — the
// disjointness check every pass pays per inserted instruction: a pre- and
// a post-twirl layer with one Pauli per qubit around the Eagle ECR tiling,
// whose idle qubits carry two dd-tagged X pulses each.
func BenchmarkCompileLayerBuild127Q(b *testing.B) {
	dev, err := device.NewBackend("eagle127")
	if err != nil {
		b.Fatal(err)
	}
	tiled := layerfid.TiledLayer(dev)
	rng := rand.New(rand.NewSource(3))
	paulis := []gates.Kind{gates.XGate, gates.YGate, gates.ZGate}
	var pre, post, gate []circuit.Instruction
	for q := 0; q < dev.NQubits; q++ {
		pre = append(pre, circuit.Instruction{Gate: paulis[rng.Intn(3)], Qubits: []int{q}, Tag: "twirl"})
		post = append(post, circuit.Instruction{Gate: paulis[rng.Intn(3)], Qubits: []int{q}, Tag: "twirl"})
	}
	gate = append(gate, tiled.Instrs...)
	for _, q := range tiled.IdleQubits(dev.NQubits) {
		for _, at := range []float64{100, 300} {
			gate = append(gate, circuit.Instruction{Gate: gates.XDD, Qubits: []int{q}, Tag: "dd", Time: at})
		}
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c := circuit.New(dev.NQubits, 0)
		for _, l := range []struct {
			kind circuit.LayerKind
			ins  []circuit.Instruction
		}{{circuit.TwirlLayer, pre}, {circuit.TwoQubitLayer, gate}, {circuit.TwirlLayer, post}} {
			layer := c.AddLayer(l.kind)
			for _, in := range l.ins {
				layer.Add(in)
			}
		}
		if len(c.Layers[1].Instrs) != len(gate) {
			b.Fatal("layer lost instructions")
		}
	}
	b.ReportMetric(float64(len(pre)+len(gate)+len(post)), "instrs")
}

// BenchmarkCompileFig8Layer127Q compiles one twirl instance of fig8's
// full-device circuit — a preparation layer and four copies of the Eagle
// ECR tiling — under each strategy fig8 benchmarks, with the layer-fidelity
// protocol's all-qubit twirl. This is the pass pipeline the fig8_eagle127
// workload runs 144 times per figure.
func BenchmarkCompileFig8Layer127Q(b *testing.B) {
	dev, err := device.NewBackend("eagle127")
	if err != nil {
		b.Fatal(err)
	}
	tiled := layerfid.TiledLayer(dev)
	c := circuit.New(dev.NQubits, 0)
	prep := c.AddLayer(circuit.OneQubitLayer)
	for _, in := range tiled.TwoQubitGates() {
		prep.H(in.Qubits[0])
	}
	for d := 0; d < 4; d++ {
		c.Layers = append(c.Layers, tiled.Clone())
	}
	withDD := func(s dd.Strategy) pass.Pass {
		o := dd.DefaultOptions()
		o.Strategy = s
		return pass.DD(o)
	}
	all := pass.Twirl(twirl.AllQubits)
	for _, pl := range []pass.Pipeline{
		pass.New("twirled", all, pass.Schedule()),
		pass.New("dd-aligned", all, pass.Schedule(), withDD(dd.Aligned)),
		pass.New("ca-dd", all, pass.Schedule(), withDD(dd.ContextAware)),
		pass.New("ca-ec", all, pass.Schedule(), pass.EC(caec.DefaultOptions())),
	} {
		b.Run(pl.Name, func(b *testing.B) {
			rng := rand.New(rand.NewSource(3))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, _, err := pl.Apply(dev, rng, c); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkLayoutPipeline127Q compiles the full placed pipeline
// (layout -> route -> twirl -> sched -> CA-DD) against the Eagle lattice —
// the end-to-end cost of targeting a full-scale device.
func BenchmarkLayoutPipeline127Q(b *testing.B) {
	dev, err := device.NewBackend("heavyhex127")
	if err != nil {
		b.Fatal(err)
	}
	base := pass.CADD()
	pl := pass.New("placed-cadd",
		append([]pass.Pass{layout.Select(layout.DefaultOptions()), layout.Route()}, base.Passes...)...)
	c := models.BuildFloquetIsing(6, 2)
	rng := rand.New(rand.NewSource(3))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, _, err := pl.Apply(dev, rng, c); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCorrelations127Q measures the correlation-spectroscopy
// estimator at full scale: the two-point covariance/correlation matrix of
// 127 outcome planes (8001 pairs) over 10^4 shots, word-parallel XOR
// popcount reductions plus the delete-one-block jackknife, reported as a
// pairs/s metric — the series CI archives into BENCH_correl.json. Both
// sub-benchmarks split rows across GOMAXPROCS workers, so pairs/s is a
// whole-machine rate. The scalar sub-benchmark runs the retained per-shot
// reference estimator on the same planes, so pairs/s(packed)/
// pairs/s(scalar) is the word-level speedup on this machine.
func BenchmarkCorrelations127Q(b *testing.B) {
	const (
		n     = 127
		shots = 10_000
	)
	rng := rand.New(rand.NewSource(9))
	pb := sim.NewPackedBits(n, shots)
	for c := 0; c < n; c++ {
		for w := range pb.Planes[c] {
			// Sparse-ish flips (~6% rate), matching a weak-noise device.
			pb.Planes[c][w] = rng.Uint64() & rng.Uint64() & rng.Uint64() & rng.Uint64()
		}
	}
	pairs := float64(correl.Pairs(n))
	b.Run("packed", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			m := correl.Estimate(pb)
			if m.Shots != shots {
				b.Fatal("wrong shot count")
			}
		}
		b.ReportMetric(pairs*float64(b.N)/b.Elapsed().Seconds(), "pairs/s")
	})
	b.Run("scalar", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			m := correl.EstimateScalar(pb)
			if m.Shots != shots {
				b.Fatal("wrong shot count")
			}
		}
		b.ReportMetric(pairs*float64(b.N)/b.Elapsed().Seconds(), "pairs/s")
	})
}

// BenchmarkFigC1Decay regenerates the correlation-decay figure under the
// reduced configuration, like every other figure benchmark.
func BenchmarkFigC1Decay(b *testing.B) { benchExperiment(b, "figC1") }
