// Command perfbench is the repository benchmark: it runs the four
// north-star scenarios of the context-aware compiler as named workloads,
// checks their outputs, and prints end-to-end metrics (untraced run) or
// per-layer metrics (traced replay, -trace 1). The last line of standard
// output is one JSON object: {"correct", "attempted", "failed", "metrics"}.
//
// Run it from the repository root through the wrapper, which builds it
// from source:
//
//	bash perfbench/run.sh --workload fig8_eagle127 --seed 1 --seconds 20 --trace 0
//
// WORKLOADS.md lists the workloads, why each was chosen, and which metric
// each layer should move.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"runtime/debug"
	"strings"
	"time"
)

// defaultSeed is the seed the recorded figure digests belong to.
const defaultSeed = 1

// metricDef names one reported metric and its unit.
type metricDef struct{ Name, Unit string }

// e2eMetrics are reported by every workload's untraced run. Each workload
// documents which of its operations they measure (WORKLOADS.md).
var e2eMetrics = []metricDef{
	{"setup_s", "s"},
	{"latency_ms_p50", "ms"},
	{"throughput_per_s", "1/s"},
	{"alloc_mb_per_op", "MB"},
}

// layerMetrics are reported by every workload's traced run. A layer the
// workload's replay does not exercise reads 0.
var layerMetrics = []metricDef{
	{"circuit.build_ms", "ms"},
	{"circuit.instructions", "count"},
	{"pass.twirl_ms", "ms"},
	{"pass.sched_ms", "ms"},
	{"pass.dd_ms", "ms"},
	{"pass.caec_ms", "ms"},
	{"pass.applies", "count"},
	{"stab.compile_ms", "ms"},
	{"stab.compiles", "count"},
	{"stab.channels", "count"},
	{"stab.sample_ms", "ms"},
	{"stab.shots", "count"},
	{"stab.shots_per_s", "1/s"},
	{"exec.job_ms", "ms"},
	{"exec.speedup", "ratio"},
	{"layerfid.fit_ms", "ms"},
	{"correl.estimate_ms", "ms"},
	{"correl.pairs_per_s", "1/s"},
	{"layout.choose_ms", "ms"},
	{"layout.exact_scored", "count"},
	{"layout.prune_ratio", "ratio"},
	{"sim.expectations_ms", "ms"},
	{"sweep.cache_miss_ms", "ms"},
	{"sweep.cache_hit_us", "us"},
	{"store.get_us", "us"},
	{"store.put_ms", "ms"},
	{"store.hit_ratio", "ratio"},
	{"serve.http_overhead_ms", "ms"},
	{"fabric.overhead_share", "ratio"},
	{"fabric.claims", "count"},
	{"fabric.requeues", "count"},
	{"fabric.remote_get_ms", "ms"},
	{"trace.untraced_ms", "ms"},
	{"trace.traced_ms", "ms"},
	{"trace.overhead_pct", "%"},
	{"trace.layer_share", "ratio"},
}

// runConfig is what every workload receives.
type runConfig struct {
	seed    int64
	seconds time.Duration
	tmp     string // scratch directory for stores
	setups  int    // how many times set-up is repeated (median reported)
	minOps  int    // operations run even when seconds is already spent
}

// workload is one named scenario. setups is how many times the untraced
// run repeats its set-up: fewer for the figures, whose set-up includes a
// whole warm-up figure, more where set-up is short and noisier.
type workload struct {
	name   string
	setups int
	run    func(runConfig) (*result, error)
	trace  func(runConfig) (*result, error)
}

var workloads = []workload{
	{"fig8_eagle127", 3, fig8Workload.run, fig8Workload.trace},
	{"figC1_eagle127", 3, figC1Workload.run, figC1Workload.trace},
	{"serve_figures", 5, runServe, traceServe},
	{"fabric_sweep", 5, runFabric, traceFabric},
}

func lookupWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// reportLine is one human-readable metric line printed before the JSON.
type reportLine struct {
	name, unit, note string
	value            float64
}

// result is one run's outcome.
type result struct {
	attempted, failed int
	failures          []string
	metrics           map[string]float64
	lines             []reportLine
}

func newResult() *result { return &result{metrics: map[string]float64{}} }

// fail records a failed operation or output check.
func (r *result) fail(format string, args ...any) {
	r.failed++
	if len(r.failures) < 8 {
		r.failures = append(r.failures, fmt.Sprintf(format, args...))
	}
}

// check counts one attempted output check, failing it when msg is non-empty.
func (r *result) check(msg string) {
	r.attempted++
	if msg != "" {
		r.fail("%s", msg)
	}
}

// line adds a human-readable metric line.
func (r *result) line(name string, value float64, unit, note string) {
	r.lines = append(r.lines, reportLine{name: name, unit: unit, note: note, value: value})
}

// tailLine adds a *_tail line, or a note when the sample is too small.
func (r *result) tailLine(name string, xs []float64) {
	if t, ok := tail(xs); ok {
		r.line(name, t.Value, "ms", fmt.Sprintf("p%g, n=%d", t.Pct, t.N))
	} else {
		r.line(name, 0, "ms", fmt.Sprintf("n=%d: too few samples for a tail", t.N))
	}
}

// errorRateLine adds the error_rate line (failed over attempted).
func (r *result) errorRateLine() {
	rate := 0.0
	if r.attempted > 0 {
		rate = float64(r.failed) / float64(r.attempted)
	}
	r.line("error_rate", rate, "ratio", fmt.Sprintf("%d/%d", r.failed, r.attempted))
}

type jsonMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type jsonResult struct {
	Correct   bool                  `json:"correct"`
	Attempted int                   `json:"attempted"`
	Failed    int                   `json:"failed"`
	Metrics   map[string]jsonMetric `json:"metrics"`
}

// machine describes where a result was measured.
func machine() string {
	return fmt.Sprintf("commit=%s gomaxprocs=%d nproc=%d cpu=%q go=%s",
		commit(), runtime.GOMAXPROCS(0), runtime.NumCPU(), cpuModel(), runtime.Version())
}

// commit is the VCS revision stamped into the binary, or "unknown" when
// it was built outside a repository.
func commit() string {
	bi, ok := debug.ReadBuildInfo()
	if !ok {
		return "unknown"
	}
	rev, dirty := "unknown", ""
	for _, s := range bi.Settings {
		switch s.Key {
		case "vcs.revision":
			rev = s.Value
		case "vcs.modified":
			if s.Value == "true" {
				dirty = "+dirty"
			}
		}
	}
	return rev + dirty
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return runtime.GOARCH
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return runtime.GOARCH
}

// summary assembles the final JSON object: every end-to-end metric for an
// untraced run, every per-layer metric for a traced one.
func summary(name string, traced bool, res *result) (jsonResult, error) {
	defs := e2eMetrics
	if traced {
		defs = layerMetrics
	}
	out := jsonResult{
		Correct:   res.failed == 0 && res.attempted > 0,
		Attempted: res.attempted,
		Failed:    res.failed,
		Metrics:   map[string]jsonMetric{},
	}
	for _, d := range defs {
		v, ok := res.metrics[d.Name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			if res.failed == 0 {
				return out, fmt.Errorf("workload %s measured no value for %s", name, d.Name)
			}
			v = 0 // nothing to measure: the failed operations make the run incorrect
		}
		out.Metrics[d.Name] = jsonMetric{Value: v, Unit: d.Unit}
	}
	return out, nil
}

// emit prints the human-readable report and, as the last line, the JSON.
func emit(name string, traced bool, res *result) error {
	out, err := summary(name, traced, res)
	if err != nil {
		return err
	}
	fmt.Printf("workload %s (trace=%v) %s\n", name, traced, machine())
	for _, l := range res.lines {
		if l.note != "" {
			fmt.Printf("  %-24s %14.6g %-6s (%s)\n", l.name, l.value, l.unit, l.note)
		} else {
			fmt.Printf("  %-24s %14.6g %s\n", l.name, l.value, l.unit)
		}
	}
	for _, f := range res.failures {
		fmt.Printf("  FAILED: %s\n", f)
	}
	line, err := json.Marshal(out)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

func main() {
	name := flag.String("workload", "", "workload name: fig8_eagle127, figC1_eagle127, serve_figures, fabric_sweep")
	seed := flag.Int64("seed", defaultSeed, "seed every workload input is generated from")
	seconds := flag.Int("seconds", 20, "measured duration of the run, in seconds")
	trace := flag.Int("trace", 0, "1 runs the traced replay and reports per-layer metrics")
	tmp := flag.String("tmp", "", "directory for the stores' scratch files (default: the system temp directory)")
	digestsOnly := flag.Bool("print-digests", false, "print digests.json for the current figures and exit")
	flag.Parse()

	if *digestsOnly {
		if err := printDigests(); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(1)
		}
		return
	}

	w, ok := lookupWorkload(*name)
	if !ok || (*trace != 0 && *trace != 1) || *seconds < 0 {
		flag.Usage()
		os.Exit(2)
	}
	runtime.GOMAXPROCS(runtime.NumCPU())
	cfg := runConfig{seed: *seed, seconds: time.Duration(*seconds) * time.Second, tmp: *tmp, setups: w.setups, minOps: 3}
	run := w.run
	if *trace == 1 {
		run = w.trace
	}
	res, err := run(cfg)
	if err == nil {
		err = emit(w.name, *trace == 1, res)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}
