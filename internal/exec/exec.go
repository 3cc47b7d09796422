// Package exec is the concurrent twirl-averaged executor. It fans the
// twirl instances of a Job out across a worker pool — each instance is an
// independent compilation (its own derived RNG) and simulation (its own
// shot slice and sim seed) — and aggregates results in instance order, so
// the output is bit-identical for any worker count.
//
// The shot budget is distributed exactly: shots/instances per instance,
// with the remainder spread one-per-instance over the first instances, so
// no shots are silently dropped (the pre-redesign averaging loops lost
// shots % instances of the budget).
package exec

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"time"

	"casq/internal/circuit"
	"casq/internal/device"
	"casq/internal/obs"
	"casq/internal/pass"
	"casq/internal/sim"
	"casq/internal/stab"
)

// Engine names accepted by RunOptions.Engine (and by the experiment,
// sweep, serve, and CLI layers that forward to it).
const (
	// EngineStatevector is the exact noisy statevector kernel
	// (internal/sim) — the default, limited to sim.MaxQubits.
	EngineStatevector = "statevector"
	// EngineStab is the stabilizer/Pauli-frame engine (internal/stab):
	// O(shots*gates*n) scaling for twirl-representable circuits under the
	// Pauli-twirling approximation.
	EngineStab = "stab"
	// EngineAuto dispatches per compiled instance: the stabilizer engine
	// when the circuit is twirl-representable and twirled, the
	// statevector kernel otherwise.
	EngineAuto = "auto"
)

// EngineNames lists the selectable engines ("" is accepted as
// EngineStatevector).
func EngineNames() []string { return []string{EngineStatevector, EngineStab, EngineAuto} }

// ValidEngine reports whether name is an accepted engine selector.
func ValidEngine(name string) bool {
	switch name {
	case "", EngineStatevector, EngineStab, EngineAuto:
		return true
	}
	return false
}

// resolveEngine picks the simulation backend for one compiled instance.
// It returns the engine and the resolved name recorded in the report.
func resolveEngine(dev *device.Device, cfg sim.Config, name string, c *circuit.Circuit) (sim.Engine, string, error) {
	statevector := func() (sim.Engine, string, error) {
		if c.NQubits > sim.MaxQubits {
			return nil, "", fmt.Errorf("exec: %d qubits exceed the statevector limit of %d — run with Engine %q (twirl-representable circuits only)",
				c.NQubits, sim.MaxQubits, EngineStab)
		}
		return sim.New(dev, cfg), EngineStatevector, nil
	}
	switch name {
	case "", EngineStatevector:
		return statevector()
	case EngineStab:
		if err := stab.Supports(c); err != nil {
			return nil, "", fmt.Errorf("exec: engine %q cannot represent the compiled circuit: %w", EngineStab, err)
		}
		return stab.New(dev, blockClamp(cfg)), EngineStab, nil
	case EngineAuto:
		supErr := stab.Supports(c)
		if supErr == nil && stab.HasTwirl(c) {
			return stab.New(dev, blockClamp(cfg)), EngineStab, nil
		}
		eng, resolved, err := statevector()
		if err != nil {
			// Don't advise "use stab" when auto just determined it can't:
			// say why the dispatch fell through instead.
			if supErr != nil {
				err = fmt.Errorf("exec: %d qubits exceed the statevector limit of %d and auto could not select %q: %w",
					c.NQubits, sim.MaxQubits, EngineStab, supErr)
			} else {
				err = fmt.Errorf("exec: %d qubits exceed the statevector limit of %d and auto could not select %q: circuit carries no twirl",
					c.NQubits, sim.MaxQubits, EngineStab)
			}
		}
		return eng, resolved, err
	}
	return nil, "", fmt.Errorf("exec: unknown engine %q (known: %v)", name, EngineNames())
}

// blockClamp hands a bit-plane engine its worker share in shot blocks:
// the stabilizer engine's shot loop claims 64-shot words, so workers
// beyond sim.ShotBlocks(shots) could never pick up a unit. Capping the
// request here returns the excess to the scheduler instead of parking
// idle goroutines on it. Results are worker-count independent, so the
// clamp cannot change the output.
func blockClamp(cfg sim.Config) sim.Config {
	if blocks := sim.ShotBlocks(cfg.Shots); cfg.Workers > blocks {
		cfg.Workers = blocks
	}
	return cfg
}

// RunOptions configure one twirl-averaged execution.
type RunOptions struct {
	// Instances is the number of twirl instances to average over (min 1).
	Instances int
	// Workers is the total parallelism budget of the job; 0 means
	// GOMAXPROCS. The budget is split between instance-level fan-out and
	// shot-level fan-out inside each simulator (see workerBudget): a
	// many-instance job parallelizes over instances with serial simulators,
	// while a single-instance job hands the whole budget to the
	// simulator's shot loop. An explicit Cfg.Workers overrides the
	// simulator share. Results are identical for any value.
	Workers int
	// Seed derives each instance's compilation RNG. Two runs with the
	// same seed produce identical results.
	Seed int64
	// Cfg is the simulator configuration. Cfg.Shots is the TOTAL shot
	// budget across all instances; Cfg.Seed seeds instance 0's simulation
	// (instance k uses Cfg.Seed + 101k).
	Cfg sim.Config
	// Engine selects the simulation backend: EngineStatevector (the
	// default, also ""), EngineStab, or EngineAuto. Auto dispatches per
	// instance to the stabilizer engine when the compiled circuit is
	// twirl-representable and twirled — the regime where the two engines
	// agree within sampling error — and to the statevector kernel
	// otherwise. The resolved engine is recorded in each instance Report.
	Engine string
	// Tracer records job/instance/pass/engine spans for this execution;
	// nil (the default) disables tracing at zero cost. Instance k's spans
	// render on lane k+1, and TraceID (when non-zero) stamps every span
	// so cross-process aggregation can group them.
	Tracer  *obs.Tracer
	TraceID uint64
}

// Job is one unit of executor work.
type Job struct {
	Circuit *circuit.Circuit
	// Observables, when non-empty, makes the executor estimate
	// expectation values; otherwise it collects measured bitstring
	// counts.
	Observables []sim.ObsSpec
	Opts        RunOptions
}

// Result aggregates a Job's instances.
type Result struct {
	// ExpVals are the shot-weighted means of the observables (expectation
	// jobs only).
	ExpVals []float64
	// Counts merges the measured bitstrings of a counts job that did not
	// stay packed (statevector or mixed-engine jobs); nil when Packed is
	// set — Executor.Counts expands the planes for callers that want the
	// map.
	Counts map[string]int
	// Packed holds the job's outcomes as bit-planes — instance shot slices
	// concatenated in instance order — when every instance ran on a
	// bit-plane engine (counts jobs only; nil otherwise). Downstream
	// estimators accumulate from these words (correl.Estimate, expval's
	// *Packed functions) without a bitstring map ever being built.
	Packed *sim.PackedBits
	// Shots is the total number of shots executed — always the full
	// budget.
	Shots int
	// InstanceShots is each instance's share of the budget, in instance
	// order: shots/instances each, with the remainder spread one per
	// instance from the front.
	InstanceShots []int
	// Reports holds each instance's compilation report in instance order.
	Reports []pass.Report
}

// Executor runs jobs compiled through a pipeline on a device.
type Executor struct {
	Dev      *device.Device
	Pipeline pass.Pipeline
}

// New returns an executor for the device and pipeline.
func New(dev *device.Device, pl pass.Pipeline) *Executor {
	return &Executor{Dev: dev, Pipeline: pl}
}

// instanceOut is one instance's contribution, aggregated in index order.
type instanceOut struct {
	vals      []float64
	counts    map[string]int
	packed    sim.PackedBits
	hasPacked bool
	shots     int
	report    pass.Report
}

// splitmix64 is the SplitMix64 output function — used to derive
// well-separated per-instance compilation seeds from (Seed, k).
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// InstanceSeed derives the compilation seed of instance k from the base
// seed. Exposed so tests can reproduce a single instance.
func InstanceSeed(seed int64, k int) int64 {
	return int64(splitmix64(uint64(seed) + uint64(k)*0x9e3779b97f4a7c15))
}

// workerBudget splits one parallelism budget between the two fan-out
// levels: `inst` instance workers run concurrently, and each runs its
// simulator with `sim` shot workers. The split covers the whole spectrum
// without oversubscription — instances >= budget gives serial simulators,
// a single instance gives full shot-level fan-out, and anything between
// divides the budget (inst * sim <= budget always). Before this model,
// Workers=0 multiplied GOMAXPROCS instance workers by GOMAXPROCS simulator
// workers, oversubscribing quadratically.
func workerBudget(requested, instances, gomax int) (inst, sim int) {
	budget := requested
	if budget <= 0 {
		budget = gomax
	}
	if budget < 1 {
		budget = 1
	}
	if instances < 1 {
		instances = 1
	}
	inst = budget
	if inst > instances {
		inst = instances
	}
	sim = budget / inst
	if sim < 1 {
		sim = 1
	}
	return inst, sim
}

// Run executes the job: Opts.Instances independent twirl instances, fanned
// out over the worker pool, aggregated in instance order. It honors ctx
// cancellation between instances.
func (e *Executor) Run(ctx context.Context, job Job) (Result, error) {
	if job.Circuit == nil {
		return Result{}, fmt.Errorf("exec: job has no circuit")
	}
	ro := job.Opts
	if !ValidEngine(ro.Engine) {
		return Result{}, fmt.Errorf("exec: unknown engine %q (known: %v)", ro.Engine, EngineNames())
	}
	if ro.Instances < 1 {
		ro.Instances = 1
	}
	shots := ro.Cfg.Shots
	if shots < ro.Instances {
		shots = ro.Instances
	}
	perInst, rem := shots/ro.Instances, shots%ro.Instances

	workers, simWorkers := workerBudget(ro.Workers, ro.Instances, runtime.GOMAXPROCS(0))

	mJobs.Inc()
	jobSpan := ro.Tracer.Start("exec.job").WithTrace(ro.TraceID)
	defer jobSpan.End()

	runInstance := func(k int) (instanceOut, error) {
		instStart := time.Now()
		instSpan := ro.Tracer.Start("exec.instance").WithLane(k + 1).WithTrace(ro.TraceID)
		defer func() {
			instSpan.End()
			mInstances.Inc()
			mInstanceSeconds.Observe(time.Since(instStart).Seconds())
		}()
		rng := sim.NewRand(InstanceSeed(ro.Seed, k))
		compiled, rep, err := e.Pipeline.ApplyContext(&pass.Context{
			Dev: e.Dev, Rng: rng, Engine: ro.Engine,
			Tracer: ro.Tracer, Lane: k + 1,
		}, job.Circuit)
		if err != nil {
			return instanceOut{}, fmt.Errorf("exec: instance %d: %w", k, err)
		}
		cfg := ro.Cfg
		if cfg.Workers <= 0 {
			// Hand each simulator its share of the unified budget. An
			// explicit Cfg.Workers is respected. Simulator results do not
			// depend on its worker count, so this cannot change the output.
			cfg.Workers = simWorkers
		}
		cfg.Shots = perInst
		if k < rem {
			cfg.Shots++
		}
		cfg.Seed = ro.Cfg.Seed + int64(k)*101
		cfg.Tracer, cfg.Lane = ro.Tracer, k+1
		r, engine, err := resolveEngine(e.Dev, cfg, ro.Engine, compiled)
		if err != nil {
			return instanceOut{}, fmt.Errorf("exec: instance %d: %w", k, err)
		}
		rep.Engine = engine
		out := instanceOut{shots: cfg.Shots, report: rep}
		if len(job.Observables) > 0 {
			out.vals, err = r.Expectations(compiled, job.Observables)
		} else if ps, ok := r.(sim.PackedSampler); ok {
			// Bit-plane engines hand back packed outcome words; they stay
			// packed until job-level aggregation.
			out.packed, err = ps.CountsPacked(compiled)
			if err == nil {
				out.hasPacked = true
				out.shots = out.packed.Shots
			}
		} else {
			var res sim.Result
			res, err = r.Counts(compiled)
			out.counts = res.Counts
			out.shots = res.Shots
		}
		if err != nil {
			return instanceOut{}, fmt.Errorf("exec: instance %d: %w", k, err)
		}
		return out, nil
	}

	outs := make([]instanceOut, ro.Instances)
	if workers == 1 {
		// Serial fast path: no goroutines, but still cancellable.
		for k := 0; k < ro.Instances; k++ {
			if err := ctx.Err(); err != nil {
				return Result{}, err
			}
			var err error
			if outs[k], err = runInstance(k); err != nil {
				return Result{}, err
			}
		}
	} else {
		cctx, cancel := context.WithCancel(ctx)
		defer cancel()
		indices := make(chan int)
		var (
			wg       sync.WaitGroup
			errOnce  sync.Once
			firstErr error
		)
		fail := func(err error) {
			errOnce.Do(func() { firstErr = err })
			cancel()
		}
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for k := range indices {
					// The feed select can hand out an index even after
					// cancellation; re-check here so no instance burns
					// CPU once the caller has given up.
					if cctx.Err() != nil {
						return
					}
					out, err := runInstance(k)
					if err != nil {
						fail(err)
						return
					}
					outs[k] = out
				}
			}()
		}
	feed:
		for k := 0; k < ro.Instances; k++ {
			select {
			case indices <- k:
			case <-cctx.Done():
				break feed
			}
		}
		close(indices)
		wg.Wait()
		if firstErr != nil {
			return Result{}, firstErr
		}
		if err := ctx.Err(); err != nil {
			return Result{}, err
		}
	}

	// Aggregate strictly in instance order so floating-point reduction is
	// independent of worker scheduling.
	res := Result{
		InstanceShots: make([]int, 0, ro.Instances),
		Reports:       make([]pass.Report, 0, ro.Instances),
	}
	// Counts jobs where every instance ran on a bit-plane engine stay
	// packed: instance planes are concatenated in instance order and
	// returned as is, with no bitstring map. A mixed job (auto dispatch
	// picking the statevector kernel for some instances) falls back to
	// per-instance expansion into Counts.
	allPacked := len(job.Observables) == 0
	for k := 0; allPacked && k < ro.Instances; k++ {
		if !outs[k].hasPacked || len(outs[k].packed.Planes) != len(outs[0].packed.Planes) {
			allPacked = false
		}
	}
	if len(job.Observables) > 0 {
		res.ExpVals = make([]float64, len(job.Observables))
	} else if !allPacked {
		res.Counts = map[string]int{}
	}
	for k := 0; k < ro.Instances; k++ {
		o := outs[k]
		res.Shots += o.shots
		res.InstanceShots = append(res.InstanceShots, o.shots)
		res.Reports = append(res.Reports, o.report)
		for i, v := range o.vals {
			res.ExpVals[i] += v * float64(o.shots)
		}
		if o.hasPacked && !allPacked {
			o.packed.CountsInto(res.Counts)
		}
		for bits, n := range o.counts {
			res.Counts[bits] += n
		}
	}
	if allPacked {
		merged := outs[0].packed
		for k := 1; k < ro.Instances; k++ {
			merged = merged.Append(outs[k].packed)
		}
		res.Packed = &merged
	}
	if len(job.Observables) > 0 && res.Shots > 0 {
		for i := range res.ExpVals {
			res.ExpVals[i] /= float64(res.Shots)
		}
	}
	mShots.Add(uint64(res.Shots))
	return res, nil
}

// Expectations is the expectation-value entry point: it runs the circuit's
// twirl instances and returns the shot-weighted mean of each observable.
func (e *Executor) Expectations(ctx context.Context, c *circuit.Circuit, obs []sim.ObsSpec, ro RunOptions) ([]float64, error) {
	if len(obs) == 0 {
		return nil, fmt.Errorf("exec: Expectations needs at least one observable")
	}
	res, err := e.Run(ctx, Job{Circuit: c, Observables: obs, Opts: ro})
	if err != nil {
		return nil, err
	}
	return res.ExpVals, nil
}

// Counts is the sampling entry point: it merges measured bitstring counts
// across the twirl instances, preserving the full shot budget. Packed
// results are expanded to the bitstring map here.
func (e *Executor) Counts(ctx context.Context, c *circuit.Circuit, ro RunOptions) (sim.Result, error) {
	res, err := e.Run(ctx, Job{Circuit: c, Opts: ro})
	if err != nil {
		return sim.Result{}, err
	}
	if res.Packed != nil {
		return res.Packed.Counts(), nil
	}
	return sim.Result{Counts: res.Counts, Shots: res.Shots}, nil
}
