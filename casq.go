package casq

// The package documentation lives in doc.go.

import (
	"context"
	"math/rand"
	"net/http"

	"casq/internal/caec"
	"casq/internal/circuit"
	"casq/internal/core"
	"casq/internal/correl"
	"casq/internal/dd"
	"casq/internal/device"
	"casq/internal/exec"
	"casq/internal/experiments"
	"casq/internal/fabric"
	"casq/internal/layout"
	"casq/internal/obs"
	"casq/internal/pass"
	"casq/internal/sched"
	"casq/internal/serve"
	"casq/internal/sim"
	"casq/internal/stab"
	"casq/internal/store"
	"casq/internal/sweep"
	"casq/internal/twirl"
)

// Core circuit and device types.
type (
	// Circuit is the layered circuit IR.
	Circuit = circuit.Circuit
	// Layer is one layer of simultaneous instructions.
	Layer = circuit.Layer
	// Instruction is a single gate or pseudo-op.
	Instruction = circuit.Instruction
	// Device is the hardware model with calibration data.
	Device = device.Device
	// Topology is the connectivity half of a device; generator families
	// (line, ring, grid, heavy-hex) build them, Synthesize calibrates them.
	Topology = device.Topology
	// Calibration is the measured half of a device: rates, coherence,
	// errors, durations.
	Calibration = device.Calibration
	// DeviceSnapshot is the JSON-serializable export of a device; it
	// round-trips bit-identically through Fingerprint.
	DeviceSnapshot = device.Snapshot
	// BackendInfo describes one named registry backend.
	BackendInfo = device.BackendInfo
	// DeviceOptions configure synthetic backend generation.
	DeviceOptions = device.Options
	// SimConfig toggles the simulator's noise channels.
	SimConfig = sim.Config
	// SimEngine is the simulation-backend contract shared by the exact
	// statevector Runner and the stabilizer/Pauli-frame engine.
	SimEngine = sim.Engine
	// StabEngine is the stabilizer/Pauli-frame engine: full-device twirled
	// simulation via the Pauli-twirling approximation, batching 64 shots
	// per word op through bit-plane frames (set Scalar for the retained
	// per-shot reference path).
	StabEngine = stab.Engine
	// PackedBits is a bit-plane record of measured bits: 64 shots per
	// word, the stabilizer engine's native outcome format.
	PackedBits = sim.PackedBits
	// Observable is a Pauli observable specification.
	Observable = sim.ObsSpec
	// ExperimentOptions control the paper-figure harnesses.
	ExperimentOptions = experiments.Options
	// Figure is a regenerated paper figure.
	Figure = experiments.Figure
	// LayoutOptions bound the layout stage's candidate search.
	LayoutOptions = layout.Options
	// Placement is a chosen embedding of a circuit into a backend, with
	// the induced sub-device for simulation.
	Placement = layout.Placement
	// LayoutSearchReport carries the layout search's telemetry: candidate
	// counts, surrogate pruning ratio, scores, and throughput.
	LayoutSearchReport = layout.SearchReport
	// LayoutMonitor tracks a deployed placement against calibration drift
	// and recompiles only when the score degrades past a threshold.
	LayoutMonitor = layout.Monitor
	// LayoutMonitorOptions configure the drift thresholds.
	LayoutMonitorOptions = layout.MonitorOptions
	// LayoutDecision records how one drift event resolved: absorbed by the
	// surrogate, exact-checked, or recompiled.
	LayoutDecision = layout.Decision
)

// Pass-pipeline types.
type (
	// Pass is one composable circuit transformation.
	Pass = pass.Pass
	// PassContext carries the device, RNG, and report sink into a pass.
	PassContext = pass.Context
	// Pipeline is an ordered pass composition under a name.
	Pipeline = pass.Pipeline
	// Report records what a pipeline's passes did during one compilation.
	Report = pass.Report
	// TwirlScope selects which qubits receive twirl Paulis.
	TwirlScope = twirl.Scope
	// DDStrategy selects a dynamical-decoupling policy.
	DDStrategy = dd.Strategy
	// DDOptions configure a DD pass.
	DDOptions = dd.Options
	// ECOptions configure a CA-EC pass.
	ECOptions = caec.Options
)

// Executor types.
type (
	// Executor runs jobs compiled through a pipeline on a device.
	Executor = exec.Executor
	// Job is one unit of executor work.
	Job = exec.Job
	// ExecOptions configure a twirl-averaged execution.
	ExecOptions = exec.RunOptions
	// ExecResult aggregates a job's instances.
	ExecResult = exec.Result
)

// Experiment-service types: the content-addressed result store, the sweep
// scheduler over it, and the HTTP serving layer.
type (
	// ResultStore is the two-tier (memory LRU + disk) content-addressed
	// result cache.
	ResultStore = store.Store
	// StoreKey is the SHA-256 content address of one cached result.
	StoreKey = store.Key
	// StoreStats snapshots the store's cache counters.
	StoreStats = store.Stats
	// FigureCache computes figures through the store: repeated requests
	// for one configuration are answered bit-identically without
	// recomputation.
	FigureCache = sweep.Cache
	// SweepCell is one concrete (experiment, options) unit of sweep work.
	SweepCell = sweep.Cell
	// SweepGrid declares the option axes of a sweep.
	SweepGrid = sweep.Grid
	// SweepSpec is a sweep request: experiment ids × an option grid.
	SweepSpec = sweep.Spec
	// SweepRun is one submitted sweep: its cells, per-cell states,
	// progress snapshots and change signal.
	SweepRun = fabric.Sweep
	// SweepProgress snapshots a sweep's completion state.
	SweepProgress = sweep.Progress
	// ExperimentSpec is one experiment's declarative catalog entry.
	ExperimentSpec = experiments.Spec
	// ExperimentAxis is one named parameter dimension of an experiment.
	ExperimentAxis = experiments.Axis
	// Server answers catalog, figure, and sweep requests over HTTP.
	Server = serve.Server
	// ServerConfig assembles a hardened Server: rate limiting, bounded
	// sweep admission, history TTL, drain timeout, and an optional fabric
	// coordinator.
	ServerConfig = serve.Config
)

// Sweep fabric: the coordinator/worker job queue that runs every sweep,
// on in-process slots or sharded across processes and machines through
// the shared store.
type (
	// StoreBackend is the persistence tier behind the store's LRU: disk,
	// in-memory, or a remote store over HTTP.
	StoreBackend = store.Backend
	// FabricCoordinator owns the sweep job queue: cells are leased to
	// workers, expired leases requeue, results aggregate into
	// SweepProgress.
	FabricCoordinator = fabric.Coordinator
	// FabricOptions configure a coordinator (lease TTL).
	FabricOptions = fabric.Options
	// FabricWorker claims cells from a coordinator, computes them through
	// the shared store, and reports completion under a heartbeat.
	FabricWorker = fabric.Worker
	// FabricStats snapshots the coordinator's queue and fleet counters.
	FabricStats = fabric.Stats
)

// Observability: the dependency-free metrics registry and span tracer
// behind GET /metrics and `casq -trace`.
type (
	// ObsRegistry is a concurrent metrics registry — sharded counters,
	// gauges, fixed-bucket latency histograms — rendered in Prometheus
	// text exposition format.
	ObsRegistry = obs.Registry
	// Tracer records timing spans across compile passes, executor
	// instances, engine shot blocks, and sweep cells. A nil *Tracer is
	// the canonical disabled tracer: every operation on it is a
	// zero-allocation no-op, so hot paths thread it unconditionally.
	Tracer = obs.Tracer
	// TraceSpan is an open span handle (a value type; End records it).
	TraceSpan = obs.Span
	// TraceEvent is one completed span on a tracer's monotonic clock.
	TraceEvent = obs.TraceEvent
	// PromSample is one parsed Prometheus exposition line (name, labels,
	// value), as returned by ParseProm over a /metrics scrape.
	PromSample = obs.Sample
)

// NewTracer returns an enabled span tracer; write its spans with
// Tracer.WriteChromeTrace (the `casq -trace out.json` format, loadable
// in chrome://tracing or Perfetto).
func NewTracer() *Tracer { return obs.NewTracer() }

// MetricsRegistry returns the process-wide default metrics registry the
// engine layers (store, exec, layout, sweep, fabric) record into; `casq
// serve` appends it to GET /metrics after its per-server registry.
func MetricsRegistry() *ObsRegistry { return obs.Default() }

// Error-correlation spectroscopy: two-point statistics of outcome flips,
// estimated word-parallel from packed bit planes.
type (
	// CorrelationMatrix holds per-qubit flip rates and per-pair
	// covariance/correlation estimates with jackknife standard errors,
	// reduced directly from PackedBits planes by word-parallel popcounts.
	CorrelationMatrix = correl.Matrix
	// CorrelationPair is one thresholded pair of a sparse correlation
	// matrix: indices, correlation, and its standard error.
	CorrelationPair = correl.PairStat
	// CorrelationDecayBin is the mean |corr| of all pairs at one
	// coupling-graph distance.
	CorrelationDecayBin = correl.DecayBin
	// CorrelationReport is the serve-layer spectroscopy diagnostic: flip
	// rates, thresholded pairs, and the distance-binned decay profile for
	// one backend and strategy.
	CorrelationReport = experiments.CorrelationReport
)

// EstimateCorrelations reduces packed outcome planes to the full
// correlation matrix of bit flips — marginals, pair covariances and
// correlations, and delete-one-block jackknife standard errors — without
// ever unpacking shots to bytes: all pair counts come from word-parallel
// popcount identities over the bit planes.
func EstimateCorrelations(pb PackedBits) CorrelationMatrix { return correl.Estimate(pb) }

// PackedBitsFromCounts expands a bitstring-counts map (the statevector
// kernel's output format) into packed bit planes, so counts-only results
// feed EstimateCorrelations too.
func PackedBitsFromCounts(counts map[string]int, nBits int) PackedBits {
	return correl.PackedFromCounts(counts, nBits)
}

// CorrelationDiagnostic computes the spectroscopy report for a registry
// backend under one strategy name ("" = twirled) — the computation behind
// the server's GET /backends/{id}/correlations endpoint.
func CorrelationDiagnostic(backend, strategy string, opts ExperimentOptions) (CorrelationReport, error) {
	return experiments.CorrelationDiagnostic(backend, strategy, opts)
}

// Compatibility types for the pre-redesign compiler API.
type (
	// Strategy is a named error-suppression configuration; lower it to a
	// Pipeline with Build or Strategy.Pipeline.
	Strategy = core.Strategy
	// Compiler applies a strategy's pass pipeline (compat wrapper).
	Compiler = core.Compiler
	// RunOptions configure twirl-averaged execution through a Compiler.
	RunOptions = core.RunOptions
)

// Layer kinds.
const (
	OneQubitLayer = circuit.OneQubitLayer
	TwoQubitLayer = circuit.TwoQubitLayer
	MeasureLayer  = circuit.MeasureLayer
	TwirlLayer    = circuit.TwirlLayer
)

// DD strategies.
const (
	DDNone         = dd.None
	DDAligned      = dd.Aligned
	DDStaggered    = dd.Staggered
	DDContextAware = dd.ContextAware
)

// Twirl scopes.
const (
	TwirlGatesOnly = twirl.GatesOnly
	TwirlAllQubits = twirl.AllQubits
)

// Simulation engines (ExecOptions.Engine, ExperimentOptions.Engine, the
// sweep Grid's Engines axis, and the serve layer's engine= parameter).
const (
	EngineStatevector = exec.EngineStatevector
	EngineStab        = exec.EngineStab
	EngineAuto        = exec.EngineAuto
)

// EngineNames lists the selectable simulation engines.
func EngineNames() []string { return exec.EngineNames() }

// NewStabEngine returns the stabilizer/Pauli-frame engine for the device
// and config: the backend that simulates full-scale twirled circuits —
// 127 qubits and beyond — which the 2^n statevector cannot hold. It
// implements SimEngine; the executor dispatches to it via
// ExecOptions.Engine ("stab" forced, "auto" when representable).
func NewStabEngine(dev *Device, cfg SimConfig) *StabEngine { return stab.New(dev, cfg) }

// StabSupports reports (by nil error) whether the circuit is
// twirl-representable — every gate Clifford up to "ec"-tagged virtual-Z
// residuals — and therefore runnable on the stabilizer engine.
func StabSupports(c *Circuit) error { return stab.Supports(c) }

// NewCircuit returns an empty layered circuit.
func NewCircuit(nQubits, nCBits int) *Circuit { return circuit.New(nQubits, nCBits) }

// DefaultDeviceOptions returns calibration ranges representative of the
// paper's fixed-frequency cross-resonance backends.
func DefaultDeviceOptions() DeviceOptions { return device.DefaultOptions() }

// NewLineDevice builds a synthetic linear-topology device.
func NewLineDevice(name string, n int, opts DeviceOptions) *Device {
	return device.NewLine(name, n, opts)
}

// NewRingDevice builds a synthetic ring device (the Heisenberg-ring layout).
func NewRingDevice(name string, n int, opts DeviceOptions) *Device {
	return device.NewRing(name, n, opts)
}

// Backend registry, topology families, and calibration snapshots.

// Backends lists the named backend registry, ordered by size.
func Backends() []BackendInfo { return device.Backends() }

// NewBackend builds a named registry backend (see Backends).
func NewBackend(name string) (*Device, error) { return device.NewBackend(name) }

// RegisterBackend adds a custom named backend to the registry; the builder
// must be deterministic.
func RegisterBackend(info BackendInfo, build func() *Device) {
	device.RegisterBackend(info, build)
}

// HeavyHexTopology builds the parametric heavy-hex lattice: (3, 9) is a
// 29-qubit Falcon-class patch, (7, 15) the 127-qubit Eagle lattice.
func HeavyHexTopology(name string, rows, cols int) Topology {
	return device.HeavyHexTopology(name, rows, cols)
}

// GridTopology builds a rows x cols square-lattice topology.
func GridTopology(name string, rows, cols int) Topology {
	return device.GridTopology(name, rows, cols)
}

// SynthesizeDevice materializes a topology with a seeded synthetic
// calibration.
func SynthesizeDevice(t Topology, opts DeviceOptions) *Device {
	return device.Synthesize(t, opts)
}

// SnapshotDevice exports a device (topology + calibration) in canonical
// JSON-serializable form; DeviceFromSnapshot(d.Snapshot()) rebuilds it
// bit-identically (same Fingerprint).
func SnapshotDevice(d *Device) DeviceSnapshot { return d.Snapshot() }

// DeviceFromSnapshot rebuilds a validated device from a snapshot.
func DeviceFromSnapshot(s DeviceSnapshot) (*Device, error) { return device.FromSnapshot(s) }

// PerturbDevice returns a copy of the device with every calibration value
// drifted by up to ±drift (deterministic in seed) — the scenario-sweep
// knob for asking whether a pipeline survives a stale calibration.
func PerturbDevice(d *Device, seed int64, drift float64) *Device {
	return d.Perturb(seed, drift)
}

// Layout and routing: the context-aware placement stage.

// DefaultLayoutOptions returns the standard candidate-search bounds.
func DefaultLayoutOptions() LayoutOptions { return layout.DefaultOptions() }

// ChooseLayout selects the minimal-predicted-coherent-error embedding of
// the circuit into the backend, scored by the same toggling-frame
// integrals CA-EC compensates. The Placement carries the induced
// sub-device, so simulation cost scales with the circuit, not the backend.
func ChooseLayout(dev *Device, c *Circuit, opts LayoutOptions) (*Placement, error) {
	return layout.Choose(dev, c, opts)
}

// ChooseLayoutWith is ChooseLayout plus the search telemetry: candidate
// counts, the surrogate pruning ratio, exact vs predicted scores, and
// throughput. The result is bit-deterministic at any Workers setting.
func ChooseLayoutWith(dev *Device, c *Circuit, opts LayoutOptions) (*Placement, *LayoutSearchReport, error) {
	return layout.ChooseWith(dev, c, opts)
}

// NewLayoutMonitor compiles the circuit onto the backend and watches the
// deployed placement: DriftLayout events re-score it against perturbed
// calibration (surrogate first, exact past the gate) and recompile only
// when the exact score exceeds the threshold ratio of the baseline.
func NewLayoutMonitor(dev *Device, c *Circuit, opts LayoutMonitorOptions) (*LayoutMonitor, error) {
	return layout.NewMonitor(dev, c, opts)
}

// PathProbe builds the standard brickwork line probe circuit used by the
// drift service: n qubits, depth alternating even/odd ECR layers.
func PathProbe(n, depth int) *Circuit { return layout.PathProbe(n, depth) }

// LayoutPass returns the layout-selection pass for pipeline composition:
// it rewrites the circuit onto the chosen physical qubits of the
// pipeline's device.
func LayoutPass(opts LayoutOptions) Pass { return layout.Select(opts) }

// RoutePass returns the SWAP-routing pass: non-adjacent two-qubit gates
// get shortest-path SWAP chains, and later instructions (including
// measurements) are rewritten through the wire permutation.
func RoutePass() Pass { return layout.Route() }

// Strategies benchmarked in the paper.
var (
	// Bare applies scheduling only.
	Bare = core.Bare
	// Twirled applies Pauli twirling only.
	Twirled = core.Twirled
	// WithDD applies twirling plus a DD strategy.
	WithDD = core.WithDD
	// CADD is context-aware dynamical decoupling (Algorithm 1).
	CADD = core.CADD
	// CAEC is context-aware error compensation (Algorithm 2).
	CAEC = core.CAEC
	// Combined applies CA-DD first and CA-EC on the remainder.
	Combined = core.Combined
)

// NewPipeline composes passes into a named pipeline. Orderings the fixed
// strategies cannot express — EC before DD, double twirling, DD without
// twirling — are all valid.
func NewPipeline(name string, passes ...Pass) Pipeline {
	return pass.New(name, passes...)
}

// Build lowers a named strategy to its canned pass pipeline.
func Build(st Strategy) Pipeline { return st.Pipeline() }

// TwirlPass returns a pass sampling one Pauli-twirl instance.
func TwirlPass(scope TwirlScope) Pass { return pass.Twirl(scope) }

// SchedulePass returns the scheduling pass; DD and EC passes consume layer
// timing, so a SchedulePass must precede them.
func SchedulePass() Pass { return pass.Schedule() }

// DDPass returns a dynamical-decoupling insertion pass.
func DDPass(opts DDOptions) Pass { return pass.DD(opts) }

// ECPass returns a context-aware error-compensation pass.
func ECPass(opts ECOptions) Pass { return pass.EC(opts) }

// DefaultDDOptions returns the context-aware DD configuration.
func DefaultDDOptions() DDOptions { return dd.DefaultOptions() }

// DefaultECOptions returns the default CA-EC configuration.
func DefaultECOptions() ECOptions { return caec.DefaultOptions() }

// Compile applies a pipeline to one twirl instance of the circuit with a
// deterministic seed, returning the compiled circuit and the pass report.
func Compile(dev *Device, pl Pipeline, c *Circuit, seed int64) (*Circuit, Report, error) {
	return pl.Apply(dev, rand.New(rand.NewSource(seed)), c)
}

// NewExecutor returns a concurrent executor running the pipeline on the
// device. Results are bit-identical for any worker count.
func NewExecutor(dev *Device, pl Pipeline) *Executor { return exec.New(dev, pl) }

// NewCompiler returns a compiler for the device and strategy with a
// deterministic twirl sampler (compat wrapper over Build + NewExecutor).
func NewCompiler(dev *Device, st Strategy, seed int64) *Compiler {
	return core.New(dev, st, seed)
}

// Schedule assigns start times and durations to a circuit's layers for the
// device, returning the total duration in ns.
func Schedule(c *Circuit, dev *Device) float64 { return sched.Schedule(c, dev) }

// TwirlInstance samples one Pauli-twirl instance of the circuit.
func TwirlInstance(c *Circuit, rng *rand.Rand) (*Circuit, error) {
	return twirl.Instance(c, twirl.GatesOnly, rng)
}

// DefaultSimConfig enables every noise channel.
func DefaultSimConfig() SimConfig { return sim.DefaultConfig() }

// IdealSimConfig disables all noise.
func IdealSimConfig() SimConfig { return sim.Ideal() }

// Simulate runs the scheduled circuit on the device and returns measured
// bitstring counts.
func Simulate(dev *Device, cfg SimConfig, c *Circuit) (map[string]int, error) {
	r := sim.New(dev, cfg)
	res, err := r.Counts(c)
	if err != nil {
		return nil, err
	}
	return res.Counts, nil
}

// Expectations runs the scheduled circuit and returns trajectory-averaged
// expectation values of the observables.
func Expectations(dev *Device, cfg SimConfig, c *Circuit, obs []Observable) ([]float64, error) {
	return sim.New(dev, cfg).Expectations(c, obs)
}

// RunExperiment regenerates one of the paper's figures/tables by id (see
// ExperimentIDs).
func RunExperiment(id string, opts ExperimentOptions) (Figure, error) {
	return experiments.Run(id, opts)
}

// ExperimentIDs lists the available paper experiments.
func ExperimentIDs() []string { return experiments.IDs() }

// ExperimentCatalog returns every experiment's declarative Spec — id,
// title, paper anchor, strategies, and parameter axes — in paper order.
func ExperimentCatalog() []ExperimentSpec { return experiments.Catalog() }

// LookupExperiment returns one experiment's declaration.
func LookupExperiment(id string) (ExperimentSpec, bool) { return experiments.Lookup(id) }

// OpenResultStore opens the content-addressed result cache rooted at dir
// (empty dir = memory-only; memCapacity <= 0 = default LRU capacity).
func OpenResultStore(dir string, memCapacity int) (*ResultStore, error) {
	return store.Open(dir, memCapacity)
}

// OpenResultStoreWith opens the result cache over an explicit backend
// (nil = memory-only): NewDiskBackend, NewMemBackend, or
// NewHTTPStoreBackend.
func OpenResultStoreWith(b StoreBackend, memCapacity int) *ResultStore {
	return store.OpenWith(b, memCapacity)
}

// NewDiskBackend returns the JSON-file store backend rooted at dir
// (atomic temp+rename writes).
func NewDiskBackend(dir string) (StoreBackend, error) { return store.NewDisk(dir) }

// NewMemBackend returns an unbounded in-memory store backend.
func NewMemBackend() StoreBackend { return store.NewMem() }

// NewHTTPStoreBackend returns a backend reading and writing a remote
// store served by StoreHandler at base (nil client = DefaultClient) —
// how fabric workers share their coordinator's store.
func NewHTTPStoreBackend(base string, client *http.Client) StoreBackend {
	return store.NewHTTP(base, client)
}

// StoreHandler serves a store over HTTP (GET/PUT /store/{key}) for
// NewHTTPStoreBackend peers.
func StoreHandler(st *ResultStore) http.Handler { return store.Handler(st) }

// NewFabricCoordinator returns a coordinator scheduling sweep cells
// against the shared store; mount its Handler (or attach it to a Server
// via ServerConfig.Coordinator) and point FabricWorkers at it.
func NewFabricCoordinator(st *ResultStore, opts FabricOptions) *FabricCoordinator {
	return fabric.NewCoordinator(st, opts)
}

// NewFabricWorker returns a worker computing against the coordinator at
// base, sharing its store through the remote HTTP backend with a local
// LRU tier of memCapacity entries.
func NewFabricWorker(base string, memCapacity int) *FabricWorker {
	return fabric.NewWorker(base, memCapacity)
}

// Fingerprint computes the canonical content address of a request
// descriptor; it is invariant under struct field reordering.
func Fingerprint(v any) (StoreKey, error) { return store.Fingerprint(v) }

// NewFigureCache returns the compute-or-cached figure layer over a store.
func NewFigureCache(st *ResultStore) *FigureCache { return sweep.NewCache(st) }

// NewLocalCoordinator returns a coordinator whose sweeps run in-process
// through the cache on workers local slots (<= 0 means GOMAXPROCS) until
// ctx is cancelled; cells still pending then are marked skipped. Submit a
// SweepSpec and Wait on the returned SweepRun; Close the coordinator when
// done.
func NewLocalCoordinator(ctx context.Context, cache *FigureCache, workers int) *FabricCoordinator {
	c := fabric.NewCoordinator(cache.Store, fabric.Options{})
	go c.LocalWorker(cache, workers).Run(ctx)
	return c
}

// NewServer returns the HTTP experiment service over a figure cache; wire
// Server.Handler into net/http (the `casq serve` subcommand does exactly
// this).
func NewServer(cache *FigureCache, sweepWorkers int) *Server {
	return serve.New(cache, sweepWorkers)
}

// NewServerWith returns the experiment service assembled from an explicit
// ServerConfig — rate limiting, bounded admission, graceful drain, and
// (optionally) a fabric coordinator so sweeps shard across workers.
func NewServerWith(cfg ServerConfig) *Server { return serve.NewWith(cfg) }

// DefaultExperimentOptions is the full-quality configuration.
func DefaultExperimentOptions() ExperimentOptions { return experiments.DefaultOptions() }

// FastExperimentOptions is a reduced configuration for quick runs.
func FastExperimentOptions() ExperimentOptions { return experiments.FastOptions() }
