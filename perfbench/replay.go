package main

import (
	"context"
	"fmt"
	"slices"
	"strings"
	"sync"
	"time"

	"casq/internal/circuit"
	"casq/internal/device"
	"casq/internal/exec"
	"casq/internal/pass"
	"casq/internal/sim"
	"casq/internal/stab"
)

// Span names of the traced replay. Per-layer metrics are sums of these.
const (
	spanBuild     = "circuit.build"
	spanJob       = "exec.job"
	spanDecompose = "replay.decompose"
	spanStabComp  = "stab.compile"
	spanStabRun   = "stab.run"
	spanSim       = "sim.expectations"
	spanFit       = "layerfid.fit"
	spanCorrel    = "correl.estimate"
	spanLayout    = "layout.choose"
	spanCacheMiss = "sweep.cache_miss"
	spanCacheHit  = "sweep.cache_hit"
	spanStorePut  = "store.put"
	spanStoreGet  = "store.get"
	spanRemoteGet = "fabric.remote_get"
)

// passSpan maps a pass name to the span recorded around its Apply.
func passSpan(name string) string {
	switch {
	case strings.HasPrefix(name, "twirl"):
		return "pass.twirl"
	case name == "sched":
		return "pass.sched"
	case strings.HasPrefix(name, "dd:"):
		return "pass.dd"
	case name == "ca-ec":
		return "pass.caec"
	}
	return "pass.other"
}

// replay holds one traced replay's spans and the counts taken at the same
// boundaries.
type replay struct {
	rec  *recorder
	root int

	// Counts of the work the replay did.
	instructions  int
	passApplies   int
	pipelines     int // pipeline applications (one per twirl instance)
	stabCompiles  int
	stabChannels  int
	stabShots     int
	instances     int // instances replayed on an engine
	shots         int
	serialNanos   time.Duration // per-instance pass + engine time, summed
	correlPairs   int
	layoutScored  int
	layoutPruning float64
}

func newReplay(rec *recorder, root int) *replay { return &replay{rec: rec, root: root} }

// countInstructions adds c's instruction count to the circuit-build tally.
func (rp *replay) countInstructions(c *circuit.Circuit) {
	for _, l := range c.Layers {
		rp.instructions += len(l.Instrs)
	}
}

// jobCapture collects what the wrapped passes saw inside one executor job:
// each instance's compiled circuit (passes rewrite in place, so the pointer
// the last pass saw is the circuit the executor simulates) and its pass
// time.
type jobCapture struct {
	rp     *replay
	parent int

	mu       sync.Mutex
	compiled map[int]*circuit.Circuit
	passTime map[int]time.Duration
}

// timedPass brackets one pass's Apply with a span.
type timedPass struct {
	inner pass.Pass
	span  string
	job   *jobCapture
}

func (p timedPass) Name() string { return p.inner.Name() }

func (p timedPass) Apply(ctx *pass.Context, c *circuit.Circuit) error {
	rec := p.job.rp.rec
	id := rec.start(p.span, p.job.parent)
	err := p.inner.Apply(ctx, c)
	d := rec.end(id)
	j := p.job
	j.mu.Lock()
	k := ctx.Lane - 1
	if _, seen := j.compiled[k]; !seen {
		j.rp.pipelines++
	}
	j.compiled[k] = c
	j.passTime[k] += d
	j.rp.passApplies++
	j.mu.Unlock()
	return err
}

// instanceConfig is the simulator configuration exec.Executor hands
// instance k of a job: its share of the shot budget and its derived seed.
// The worker count is 1 because the replay runs instances serially;
// results do not depend on it.
func instanceConfig(ro exec.RunOptions, k int) sim.Config {
	inst := max(ro.Instances, 1)
	shots := max(ro.Cfg.Shots, inst)
	cfg := ro.Cfg
	cfg.Workers = 1
	cfg.Shots = shots / inst
	if k < shots%inst {
		cfg.Shots++
	}
	cfg.Seed = ro.Cfg.Seed + int64(k)*101
	return cfg
}

// runJob runs one executor job with every pass wrapped in a span, then
// replays each instance's engine work serially on the circuit that
// instance compiled to, and checks that the replay reproduces the
// executor's result exactly. engine is the engine the job resolves to
// ("stab" or "statevector").
func (rp *replay) runJob(dev *device.Device, pl pass.Pipeline, job exec.Job, engine string) (exec.Result, error) {
	rec := rp.rec
	jobID := rec.start(spanJob, rp.root)
	jc := &jobCapture{rp: rp, parent: jobID, compiled: map[int]*circuit.Circuit{}, passTime: map[int]time.Duration{}}
	wrapped := pass.Pipeline{Name: pl.Name}
	for _, p := range pl.Passes {
		wrapped.Passes = append(wrapped.Passes, timedPass{inner: p, span: passSpan(p.Name()), job: jc})
	}
	res, err := exec.New(dev, wrapped).Run(context.Background(), job)
	rec.end(jobID)
	if err != nil {
		return res, err
	}

	ro := job.Opts
	inst := max(ro.Instances, 1)
	decID := rec.start(spanDecompose, rp.root)
	defer rec.end(decID)
	vals := make([]float64, len(job.Observables))
	var planes *sim.PackedBits
	total := 0
	var serial time.Duration
	for k := 0; k < inst; k++ {
		c := jc.compiled[k]
		if c == nil {
			return res, fmt.Errorf("replay: instance %d compiled no circuit", k)
		}
		cfg := instanceConfig(ro, k)
		var (
			iv  []float64
			pb  sim.PackedBits
			run time.Duration
		)
		switch engine {
		case exec.EngineStab:
			eng := stab.New(dev, cfg)
			var info stab.CompileInfo
			rec.timed(spanStabComp, decID, func() { info, err = eng.Info(c) })
			if err != nil {
				return res, err
			}
			rp.stabCompiles++
			rp.stabChannels += info.Channels
			rp.stabShots += cfg.Shots
			run = rec.timed(spanStabRun, decID, func() {
				if len(job.Observables) > 0 {
					iv, err = eng.Expectations(c, job.Observables)
				} else {
					pb, err = eng.CountsPacked(c)
				}
			})
		case exec.EngineStatevector:
			if len(job.Observables) == 0 {
				return res, fmt.Errorf("replay: statevector counts jobs are not replayed")
			}
			r := sim.New(dev, cfg)
			run = rec.timed(spanSim, decID, func() { iv, err = r.Expectations(c, job.Observables) })
		default:
			return res, fmt.Errorf("replay: unknown engine %q", engine)
		}
		if err != nil {
			return res, err
		}
		serial += jc.passTime[k] + run
		rp.instances++
		rp.shots += cfg.Shots
		total += cfg.Shots
		for i, v := range iv {
			vals[i] += v * float64(cfg.Shots)
		}
		if len(job.Observables) == 0 {
			if planes == nil {
				planes = &pb
			} else {
				merged := planes.Append(pb)
				planes = &merged
			}
		}
	}
	rp.serialNanos += serial

	// The replay must be the same work as the executor's: identical
	// expectation values, or identical outcome planes.
	if len(job.Observables) > 0 {
		for i := range vals {
			vals[i] /= float64(total)
			if vals[i] != res.ExpVals[i] {
				return res, fmt.Errorf("replay: observable %d: serial replay %v != executor %v", i, vals[i], res.ExpVals[i])
			}
		}
	} else if res.Packed == nil || !samePlanes(*planes, *res.Packed) {
		return res, fmt.Errorf("replay: serial outcome planes differ from the executor's")
	}
	return res, nil
}

func samePlanes(a, b sim.PackedBits) bool {
	return a.Shots == b.Shots && slices.EqualFunc(a.Planes, b.Planes, slices.Equal[[]uint64])
}

// crossCheck compares the replay's counts with the registry deltas of the
// untraced run of the same input: one pipeline application and one engine
// run per executor instance, and the same shots. allStab additionally
// requires one stabilizer compile per instance.
func (rp *replay) crossCheck(d counters, allStab bool) error {
	n := uint64(rp.pipelines)
	switch {
	case n != d.instances || uint64(rp.instances) != d.instances:
		return fmt.Errorf("cross-check: replay compiled %d and ran %d instances, untraced run counted %d",
			rp.pipelines, rp.instances, d.instances)
	case allStab && uint64(rp.stabCompiles) != d.instances:
		return fmt.Errorf("cross-check: replay made %d stab compiles, untraced run counted %d instances",
			rp.stabCompiles, d.instances)
	case uint64(rp.shots) != d.shots:
		return fmt.Errorf("cross-check: replay ran %d shots, untraced run counted %d", rp.shots, d.shots)
	}
	return nil
}

// layerValues turns one replay's spans and counts into per-layer metric
// values. untraced and traced are the iteration's end-to-end time without
// and with the benchmark's spans; their difference is the tracing overhead.
// trace.layer_share reads 0 when rp is not a span replay (no recorder).
func (rp *replay) layerValues(spans []span, untraced, traced time.Duration) map[string]float64 {
	sums := spanSums(spans)
	m := map[string]float64{}
	for _, d := range layerMetrics {
		m[d.Name] = 0
	}
	m["circuit.build_ms"] = ms(sums[spanBuild])
	m["circuit.instructions"] = float64(rp.instructions)
	for _, p := range []string{"twirl", "sched", "dd", "caec"} {
		m["pass."+p+"_ms"] = ms(sums["pass."+p])
	}
	m["pass.applies"] = float64(rp.passApplies)
	m["stab.compile_ms"] = ms(sums[spanStabComp])
	m["stab.compiles"] = float64(rp.stabCompiles)
	m["stab.channels"] = float64(rp.stabChannels)
	if sample := sums[spanStabRun] - sums[spanStabComp]; rp.stabCompiles > 0 && sample > 0 {
		m["stab.sample_ms"] = ms(sample)
		m["stab.shots"] = float64(rp.stabShots)
		m["stab.shots_per_s"] = float64(rp.stabShots) / sample.Seconds()
	}
	if job := sums[spanJob]; job > 0 {
		m["exec.job_ms"] = ms(job)
		m["exec.speedup"] = float64(rp.serialNanos) / float64(job)
	}
	m["layerfid.fit_ms"] = ms(sums[spanFit])
	if est := sums[spanCorrel]; est > 0 {
		m["correl.estimate_ms"] = ms(est)
		m["correl.pairs_per_s"] = float64(rp.correlPairs) / est.Seconds()
	}
	m["layout.choose_ms"] = ms(sums[spanLayout])
	m["layout.exact_scored"] = float64(rp.layoutScored)
	m["layout.prune_ratio"] = rp.layoutPruning
	m["sim.expectations_ms"] = ms(sums[spanSim])
	m["trace.untraced_ms"] = ms(untraced)
	m["trace.traced_ms"] = ms(traced)
	if untraced > 0 {
		m["trace.overhead_pct"] = 100 * float64(traced-untraced) / float64(untraced)
	}
	if rp.rec != nil {
		m["trace.layer_share"] = layerShare(spans, rp.root)
	}
	return m
}

// reportLayers sets every per-layer metric to its median over the traced
// iterations and adds one line per metric.
func (r *result) reportLayers(iters []map[string]float64) {
	for _, d := range layerMetrics {
		xs := make([]float64, 0, len(iters))
		for _, it := range iters {
			xs = append(xs, it[d.Name])
		}
		v := 0.0
		if len(xs) > 0 {
			v = median(xs)
		}
		r.metrics[d.Name] = v
		r.line(d.Name, v, d.Unit, "")
	}
	r.line("traced_iterations", float64(len(iters)), "count", "per-layer values are medians over these")
	r.errorRateLine()
}
