// Package serve exposes the experiment catalog over HTTP, turning the
// repository from a batch tool into a result service. Figure requests go
// through the sweep.Cache, so the first request for a configuration
// computes and checkpoints it and every later request streams the
// checkpointed JSON bytes back unchanged. Sweep submissions go to the
// server's fabric.Coordinator and run asynchronously — on in-process
// worker slots, or sharded across a worker fleet when a coordinator is
// attached — and report live progress, including a Server-Sent-Events
// stream per sweep.
//
// The server is hardened for heavy traffic: figure endpoints sit behind a
// token-bucket rate limiter (429 + Retry-After under overload), sweep
// admission is bounded so a submission flood cannot pile up unbounded
// background work, and Close drains in-flight sweeps — returning 503 for
// new submissions — instead of dropping work.
//
// Routes:
//
//	GET  /experiments        catalog of declarative experiment Specs
//	GET  /backends           the named device registry (sizes, families)
//	GET  /backends/{id}/correlations
//	                         error-correlation spectroscopy diagnostic:
//	                         the thresholded flip-correlation matrix of a
//	                         full-device Ramsey probe (seed, shots,
//	                         instances, fast, strategy, engine); cached,
//	                         X-Casq-Cache hit or miss
//	GET  /backends/{id}/layout
//	                         deployed placement of the standard path probe
//	                         (qubits, depth): region, exact score, search
//	                         telemetry, drift-monitor stats; compiled on
//	                         first request
//	POST /backends/{id}/drift
//	                         perturb the monitor's calibration (seed,
//	                         drift, qubits, depth as JSON) and report the
//	                         decision: absorbed, exact-checked, recompiled
//	GET  /figures/{id}       one figure; options via query parameters
//	                         (seed, shots, instances, maxdepth, fast,
//	                         backend, engine); X-Casq-Cache hit or miss
//	POST /sweeps             submit a sweep.Spec as JSON; returns 202 + id
//	GET  /sweeps             all retained sweeps with their progress
//	GET  /sweeps/{id}        progress of a submitted sweep
//	GET  /sweeps/{id}/events SSE stream of progress snapshots
//	GET  /healthz            liveness, store counters, request counters,
//	                         and fabric fleet stats when attached
//	GET  /metrics            Prometheus text exposition: per-endpoint
//	                         request counters + latency histograms, plus
//	                         the process-wide engine metrics (store, exec,
//	                         layout, sweep, fabric)
//	GET  /debug/pprof/*      net/http/pprof profiling (opt-in: Config.PProf
//	                         / `casq serve -pprof`)
//	POST /fabric/claim       (coordinator mode) worker cell claim
//	POST /fabric/heartbeat   (coordinator mode) lease keep-alive
//	POST /fabric/complete    (coordinator mode) cell completion
//	GET/PUT /store/{key}     (coordinator mode) the shared result store
//
// The `casq serve` and `casq fabric coordinator` subcommands wire this
// handler to a listening socket.
package serve

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/pprof"
	"slices"
	"strconv"
	"strings"
	"sync"
	"time"

	"casq/internal/device"
	"casq/internal/exec"
	"casq/internal/experiments"
	"casq/internal/fabric"
	"casq/internal/obs"
	"casq/internal/store"
	"casq/internal/sweep"
)

// Defaults for Config fields left zero.
const (
	// DefaultMaxActiveSweeps bounds concurrently unfinished sweeps.
	DefaultMaxActiveSweeps = 32
	// DefaultHistoryTTL keeps finished sweeps queryable after the history
	// cap is reached.
	DefaultHistoryTTL = 2 * time.Minute
	// DefaultDrainTimeout bounds how long Close waits for in-flight
	// sweeps before giving up and cancelling them.
	DefaultDrainTimeout = 30 * time.Second
)

// maxSweepHistory bounds retained sweep runs: beyond it, the oldest
// finished runs older than the history TTL are forgotten (their results
// stay checkpointed in the store — only the progress handle goes away).
// Running sweeps are never pruned; hardSweepHistory is the flood
// backstop past which the TTL no longer protects finished runs.
const (
	maxSweepHistory  = 128
	hardSweepHistory = 8 * maxSweepHistory
)

// Config assembles a Server. Zero fields take the documented defaults.
type Config struct {
	// Cache answers figure requests and computes sweep cells (required).
	Cache *sweep.Cache
	// SweepWorkers is the local slot budget: in-process sweep cells run
	// concurrently on this many slots (0 = GOMAXPROCS). Ignored when a
	// Coordinator is attached.
	SweepWorkers int
	// Coordinator, when non-nil, runs sweeps on its remote worker fleet
	// instead of in-process, and mounts the worker + shared-store
	// endpoints on this server. Nil gives the server its own coordinator
	// with SweepWorkers local slots.
	Coordinator *fabric.Coordinator
	// FigureRPS rate-limits /figures/{id} with a token bucket refilled at
	// this rate (0 = unlimited).
	FigureRPS float64
	// FigureBurst is the bucket depth (0 = 2×FigureRPS, min 1).
	FigureBurst int
	// MaxActiveSweeps bounds concurrently unfinished sweeps; submissions
	// beyond it get 429 (0 = DefaultMaxActiveSweeps, <0 = unlimited).
	MaxActiveSweeps int
	// HistoryTTL keeps finished sweeps queryable for this long once the
	// history cap is hit (0 = DefaultHistoryTTL, <0 = prune immediately).
	HistoryTTL time.Duration
	// DrainTimeout bounds Close's wait for in-flight sweeps
	// (0 = DefaultDrainTimeout, <0 = do not wait).
	DrainTimeout time.Duration
	// RecompileThreshold tunes the drift monitors behind
	// /backends/{id}/drift: a drifted placement is recompiled when its
	// exact score exceeds this ratio of the deployed baseline
	// (0 = layout.DefaultRecompileThreshold).
	RecompileThreshold float64
	// Tracer, when non-nil, records spans for in-process sweep cells (and
	// everything compiled/simulated under them), one fabric.cell span per
	// cell with lane = slot. Nil disables tracing at zero cost.
	Tracer *obs.Tracer
	// PProf mounts the net/http/pprof profiling endpoints under
	// /debug/pprof/ when true. Off by default: profiling handlers expose
	// heap and goroutine internals and cost CPU while sampling, so they
	// are opt-in (`casq serve -pprof`).
	PProf bool
}

// sweepRecord tracks one retained sweep.
type sweepRecord struct {
	run        *fabric.Sweep
	submitted  time.Time
	finishedAt time.Time // zero while running; set by the watcher
}

// Server serves the experiment catalog, cached figures, and sweeps. Use
// New or NewWith; the zero value is not usable.
type Server struct {
	cache    *sweep.Cache
	coord    *fabric.Coordinator
	remote   bool // coord was attached for a worker fleet, not owned
	limiter  *tokenBucket
	maxRuns  int
	ttl      time.Duration
	drainFor time.Duration

	ctx    context.Context // governs the local slots and SSE streams
	cancel context.CancelFunc

	// reg is the server's own metrics registry: per-endpoint request
	// counters and latency histograms live here (not on the process-wide
	// default registry) so each Server instance — including every test
	// server — observes exactly its own traffic. GET /metrics writes this
	// registry followed by obs.Default(), which carries the engine-layer
	// families (store, exec, layout, sweep, fabric).
	reg        *obs.Registry
	reqCount   *obs.CounterVec
	reqSeconds *obs.HistogramVec
	pprof      bool

	mu       sync.Mutex
	sweeps   map[string]*sweepRecord
	order    []string // sweep ids in submission order, for history pruning
	seq      int
	draining bool

	// Drift-monitor registry behind /backends/{id}/layout and /drift,
	// under its own lock: monitor compiles and drift decisions run layout
	// searches and must not stall the sweep/figure surfaces.
	layoutMu           sync.Mutex
	layouts            map[string]*layoutRecord
	recompileThreshold float64

	closeOnce sync.Once
}

// New returns a server answering from the cache; sweepWorkers bounds the
// concurrency of submitted sweeps (0 = GOMAXPROCS).
func New(cache *sweep.Cache, sweepWorkers int) *Server {
	return NewWith(Config{Cache: cache, SweepWorkers: sweepWorkers})
}

// NewWith returns a server assembled from an explicit Config.
func NewWith(cfg Config) *Server {
	ctx, cancel := context.WithCancel(context.Background())
	maxRuns := cfg.MaxActiveSweeps
	switch {
	case maxRuns == 0:
		maxRuns = DefaultMaxActiveSweeps
	case maxRuns < 0:
		maxRuns = math.MaxInt
	}
	ttl := cfg.HistoryTTL
	switch {
	case ttl == 0:
		ttl = DefaultHistoryTTL
	case ttl < 0:
		ttl = 0
	}
	drain := cfg.DrainTimeout
	switch {
	case drain == 0:
		drain = DefaultDrainTimeout
	case drain < 0:
		drain = 0
	}
	var limiter *tokenBucket
	if cfg.FigureRPS > 0 {
		burst := cfg.FigureBurst
		if burst <= 0 {
			burst = int(2 * cfg.FigureRPS)
			if burst < 1 {
				burst = 1
			}
		}
		limiter = newTokenBucket(cfg.FigureRPS, burst)
	}
	coord := cfg.Coordinator
	if coord == nil {
		coord = fabric.NewCoordinator(cfg.Cache.Store, fabric.Options{})
		w := coord.LocalWorker(cfg.Cache, cfg.SweepWorkers)
		w.Tracer = cfg.Tracer
		go w.Run(ctx)
	}
	reg := obs.NewRegistry()
	return &Server{
		cache:    cfg.Cache,
		coord:    coord,
		remote:   cfg.Coordinator != nil,
		limiter:  limiter,
		maxRuns:  maxRuns,
		ttl:      ttl,
		drainFor: drain,
		ctx:      ctx,
		cancel:   cancel,
		sweeps:   map[string]*sweepRecord{},

		reg: reg,
		reqCount: reg.CounterVec("casq_serve_requests_total",
			"HTTP requests handled, by endpoint.", "endpoint"),
		reqSeconds: reg.HistogramVec("casq_serve_request_seconds",
			"HTTP request latency, by endpoint.", "endpoint", nil),
		pprof: cfg.PProf,

		layouts:            map[string]*layoutRecord{},
		recompileThreshold: cfg.RecompileThreshold,
	}
}

// Close drains the server: new sweep submissions are refused with 503
// while in-flight sweeps run to completion (bounded by the configured
// drain timeout), then the local slots are cancelled: once their
// in-flight cells report, every cell still pending is marked skipped.
// Cells already checkpointed stay in the store either way, so a later
// server over the same store resumes whatever the drain window missed.
func (s *Server) Close() {
	s.closeOnce.Do(func() {
		s.mu.Lock()
		s.draining = true
		s.refreshLocked(time.Now())
		active := make([]*fabric.Sweep, 0, len(s.sweeps))
		for _, rec := range s.sweeps {
			if rec.finishedAt.IsZero() {
				active = append(active, rec.run)
			}
		}
		s.mu.Unlock()

		deadline := time.After(s.drainFor)
	drain:
		for _, run := range active {
			select {
			case <-run.Done():
			case <-deadline:
				break drain
			}
		}
		s.cancel()
		if !s.remote {
			s.coord.Close()
		}
	})
}

// Handler returns the routed HTTP handler.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /experiments", s.counted("experiments", s.handleExperiments))
	mux.HandleFunc("GET /backends", s.counted("backends", s.handleBackends))
	mux.HandleFunc("GET /backends/{id}/correlations", s.counted("backends.correlations", s.handleCorrelations))
	mux.HandleFunc("GET /backends/{id}/layout", s.counted("backends.layout", s.handleLayout))
	mux.HandleFunc("POST /backends/{id}/drift", s.counted("backends.drift", s.handleDrift))
	mux.HandleFunc("GET /figures/{id}", s.counted("figures", s.handleFigure))
	mux.HandleFunc("POST /sweeps", s.counted("sweeps.submit", s.handleSweepSubmit))
	mux.HandleFunc("GET /sweeps", s.counted("sweeps.list", s.handleSweepList))
	mux.HandleFunc("GET /sweeps/{id}", s.counted("sweeps.status", s.handleSweepStatus))
	mux.HandleFunc("GET /sweeps/{id}/events", s.counted("sweeps.events", s.handleSweepEvents))
	mux.HandleFunc("GET /healthz", s.counted("healthz", s.handleHealth))
	mux.HandleFunc("GET /metrics", s.counted("metrics", s.handleMetrics))
	if s.remote {
		ch := s.coord.Handler()
		mux.Handle("/fabric/", ch)
		mux.Handle("/store/", ch)
	}
	if s.pprof {
		// Mount the handlers explicitly instead of blank-importing the
		// package, which would register them on DefaultServeMux for every
		// binary linking serve — profiling stays opt-in per server.
		mux.HandleFunc("GET /debug/pprof/", pprof.Index)
		mux.HandleFunc("GET /debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("GET /debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("GET /debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("GET /debug/pprof/trace", pprof.Trace)
	}
	return mux
}

// counted wraps a handler with its per-endpoint request counter and
// latency histogram on the server registry (scraped from /metrics; the
// counters also surface on /healthz). The counter and histogram children
// are resolved once here, so the per-request cost is two atomic bumps —
// no lock, no map lookup. The counter increments before the handler runs
// (a request is "handled" the moment it is routed, so /healthz reports
// its own in-flight request); the histogram observes after, when the
// duration is known.
func (s *Server) counted(name string, h http.HandlerFunc) http.HandlerFunc {
	hits := s.reqCount.With(name)
	seconds := s.reqSeconds.With(name)
	return func(w http.ResponseWriter, r *http.Request) {
		hits.Inc()
		start := time.Now()
		h(w, r)
		seconds.Observe(time.Since(start).Seconds())
	}
}

// handleMetrics serves the Prometheus text exposition: the server's own
// registry (request counters and latency histograms) followed by the
// process-wide default registry (store, exec, layout, sweep and fabric
// families recorded by the engine layers).
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	s.reg.WritePrometheus(w)
	obs.Default().WritePrometheus(w)
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.Encode(v)
}

func writeError(w http.ResponseWriter, status int, format string, args ...any) {
	writeJSON(w, status, map[string]string{"error": fmt.Sprintf(format, args...)})
}

func (s *Server) handleExperiments(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, experiments.Catalog())
}

func (s *Server) handleBackends(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, device.Backends())
}

// figureParams is the accepted /figures/{id} query vocabulary, sorted.
// Unknown parameters are rejected rather than ignored: a typo (shot= for
// shots=) must not silently serve — and cache — a different configuration.
var figureParams = []string{"backend", "engine", "fast", "instances", "maxdepth", "seed", "shots"}

// correlationParams is the accepted /backends/{id}/correlations query
// vocabulary, sorted.
var correlationParams = []string{"engine", "fast", "instances", "seed", "shots", "strategy"}

// queryOptions binds the request's query parameters, which must all be in
// the sorted vocabulary known, to run Options: fast=1 starts from
// FastOptions (reduced axes), everything else from DefaultOptions, with
// seed/shots/instances/maxdepth/backend/engine overriding per field.
func queryOptions(r *http.Request, known []string) (experiments.Options, error) {
	q := r.URL.Query()
	opts := experiments.DefaultOptions()
	for name := range q {
		if !slices.Contains(known, name) {
			return opts, fmt.Errorf("unknown parameter %q (known: %s)", name, strings.Join(known, ", "))
		}
	}
	if fast, err := boolParam(q.Get("fast")); err != nil {
		return opts, fmt.Errorf("fast: %w", err)
	} else if fast {
		opts = experiments.FastOptions()
	}
	for _, p := range []struct {
		name string
		dst  *int
	}{
		{"shots", &opts.Shots},
		{"instances", &opts.Instances},
		{"maxdepth", &opts.MaxDepth},
	} {
		if v := q.Get(p.name); v != "" {
			n, err := strconv.Atoi(v)
			if err != nil || n < 0 {
				return opts, fmt.Errorf("%s: not a non-negative integer: %q", p.name, v)
			}
			*p.dst = n
		}
	}
	if v := q.Get("seed"); v != "" {
		n, err := strconv.ParseInt(v, 10, 64)
		if err != nil {
			return opts, fmt.Errorf("seed: not an integer: %q", v)
		}
		opts.Seed = n
	}
	if v := q.Get("backend"); v != "" {
		if _, ok := device.LookupBackend(v); !ok {
			return opts, fmt.Errorf("backend: unknown %q (see /backends)", v)
		}
		opts.Backend = v
	}
	if v := q.Get("engine"); v != "" {
		if !exec.ValidEngine(v) {
			return opts, fmt.Errorf("engine: unknown %q (known: %v)", v, exec.EngineNames())
		}
		opts.Engine = v
	}
	return opts, nil
}

func boolParam(v string) (bool, error) {
	switch v {
	case "", "0", "false":
		return false, nil
	case "1", "true":
		return true, nil
	}
	return false, fmt.Errorf("not a boolean: %q", v)
}

func (s *Server) handleFigure(w http.ResponseWriter, r *http.Request) {
	if s.limiter != nil {
		if retryAfter, limited := s.limiter.take(time.Now()); limited {
			w.Header().Set("Retry-After", strconv.Itoa(retrySeconds(retryAfter)))
			writeError(w, http.StatusTooManyRequests, "figure rate limit exceeded; retry after %s", retryAfter.Round(time.Millisecond))
			return
		}
	}
	id := r.PathValue("id")
	sp, ok := experiments.Lookup(id)
	if !ok {
		writeError(w, http.StatusNotFound, "unknown experiment %q (see /experiments)", id)
		return
	}
	opts, err := queryOptions(r, figureParams)
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	// A known backend or engine the figure does not declare is the
	// client's mistake, not a server fault — reject before the compute
	// path turns it into a 500 (or, worse for the engine, a silently
	// statevector-computed figure cached under an engine-qualified key).
	if !sp.SupportsBackend(opts.Backend) {
		writeError(w, http.StatusBadRequest,
			"experiment %s does not support backend %q (declared: %v)", id, opts.Backend, sp.Backends)
		return
	}
	if !sp.SupportsEngine(opts.Engine) {
		writeError(w, http.StatusBadRequest,
			"experiment %s does not honor engine %q (declared: %v)", id, opts.Engine, sp.Engines)
		return
	}
	data, hit, err := s.cache.Figure(sweep.Cell{ID: id, Opts: opts})
	if err != nil {
		writeError(w, http.StatusInternalServerError, "%v", err)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	if hit {
		w.Header().Set("X-Casq-Cache", "hit")
	} else {
		w.Header().Set("X-Casq-Cache", "miss")
	}
	w.Write(data)
}

// correlationDescriptor is the content-addressed cache key of one
// correlation diagnostic. Rev versions the payload layout; engine is
// normalized ("statevector" and "" spell the same computation).
type correlationDescriptor struct {
	Rev       int    `json:"rev"`
	Backend   string `json:"backend"`
	Strategy  string `json:"strategy"`
	Engine    string `json:"engine"`
	Seed      int64  `json:"seed"`
	Shots     int    `json:"shots"`
	Instances int    `json:"instances"`
}

// handleCorrelations serves the error-correlation spectroscopy diagnostic
// of one registry backend: the thresholded sparse flip-correlation matrix
// of a full-device Ramsey probe (experiments.CorrelationDiagnostic),
// cached through the content-addressed store — a repeated request streams
// the checkpointed bytes back unchanged with X-Casq-Cache: hit.
func (s *Server) handleCorrelations(w http.ResponseWriter, r *http.Request) {
	if s.limiter != nil {
		if retryAfter, limited := s.limiter.take(time.Now()); limited {
			w.Header().Set("Retry-After", strconv.Itoa(retrySeconds(retryAfter)))
			writeError(w, http.StatusTooManyRequests, "figure rate limit exceeded; retry after %s", retryAfter.Round(time.Millisecond))
			return
		}
	}
	id := r.PathValue("id")
	info, ok := device.LookupBackend(id)
	if !ok {
		writeError(w, http.StatusNotFound, "unknown backend %q (see /backends)", id)
		return
	}
	opts, err := queryOptions(r, correlationParams)
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	// Pre-validate the engine against the backend's capabilities: an
	// explicit statevector request on a device beyond the amplitude limit
	// is the client's mistake, not a server fault. "" defaults to the
	// stabilizer engine at full scale, and "auto" dispatches per instance.
	if opts.Engine == exec.EngineStatevector && !backendHasEngine(info, opts.Engine) {
		writeError(w, http.StatusBadRequest,
			"backend %s (%d qubits) cannot run the full device on engine %q (able: %v)",
			id, info.NQubits, opts.Engine, info.Engines)
		return
	}
	strategy := r.URL.Query().Get("strategy")

	desc := correlationDescriptor{
		Rev:     1,
		Backend: id, Strategy: strategy, Engine: opts.Engine,
		Seed: opts.Seed, Shots: opts.Shots, Instances: opts.Instances,
	}
	if desc.Strategy == "" {
		desc.Strategy = "twirled"
	}
	if desc.Engine == exec.EngineStatevector {
		desc.Engine = ""
	}
	key, err := store.Fingerprint(desc)
	if err != nil {
		writeError(w, http.StatusInternalServerError, "%v", err)
		return
	}
	if data, ok, err := s.cache.Store.Get(key); err != nil {
		writeError(w, http.StatusInternalServerError, "%v", err)
		return
	} else if ok {
		w.Header().Set("Content-Type", "application/json")
		w.Header().Set("X-Casq-Cache", "hit")
		w.Write(data)
		return
	}
	rep, err := experiments.CorrelationDiagnostic(id, strategy, opts)
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	data, err := json.Marshal(rep)
	if err != nil {
		writeError(w, http.StatusInternalServerError, "%v", err)
		return
	}
	if err := s.cache.Store.Put(key, data); err != nil {
		writeError(w, http.StatusInternalServerError, "%v", err)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("X-Casq-Cache", "miss")
	w.Write(data)
}

func backendHasEngine(info device.BackendInfo, engine string) bool {
	for _, e := range info.Engines {
		if e == engine {
			return true
		}
	}
	return false
}

// sweepAccepted is the POST /sweeps response body.
type sweepAccepted struct {
	ID     string `json:"id"`
	Total  int    `json:"total"`
	Status string `json:"status"`
	Events string `json:"events"`
}

func (s *Server) handleSweepSubmit(w http.ResponseWriter, r *http.Request) {
	var spec sweep.Spec
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&spec); err != nil {
		writeError(w, http.StatusBadRequest, "decode sweep spec: %v", err)
		return
	}
	// Fill unset base fields per-field (mirroring GET /figures): a
	// partially-specified base must not run — and permanently checkpoint —
	// statistically meaningless 1-shot/1-instance figures.
	def := experiments.DefaultOptions()
	if spec.Fast || spec.Base.Fast {
		def = experiments.FastOptions()
	}
	if spec.Base.Seed == 0 {
		spec.Base.Seed = def.Seed
	}
	if spec.Base.Shots == 0 {
		spec.Base.Shots = def.Shots
	}
	if spec.Base.Instances == 0 {
		spec.Base.Instances = def.Instances
	}
	if spec.Base.MaxDepth == 0 {
		spec.Base.MaxDepth = def.MaxDepth
	}

	// Admission control: refuse rather than queue unbounded work, and
	// refuse everything once draining so Close never strands a fresh run.
	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		w.Header().Set("Retry-After", "1")
		writeError(w, http.StatusServiceUnavailable, "server draining; resubmit to its successor")
		return
	}
	s.refreshLocked(time.Now())
	active := 0
	for _, rec := range s.sweeps {
		if rec.finishedAt.IsZero() {
			active++
		}
	}
	if active >= s.maxRuns {
		s.mu.Unlock()
		w.Header().Set("Retry-After", "1")
		writeError(w, http.StatusTooManyRequests, "%d sweeps already active (max %d); retry later", active, s.maxRuns)
		return
	}
	s.mu.Unlock()

	run, err := s.coord.Submit(spec)
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	rec := &sweepRecord{run: run, submitted: time.Now()}
	s.mu.Lock()
	s.seq++
	id := fmt.Sprintf("sweep-%d", s.seq)
	s.sweeps[id] = rec
	s.order = append(s.order, id)
	s.pruneLocked(time.Now())
	s.mu.Unlock()
	writeJSON(w, http.StatusAccepted, sweepAccepted{
		ID: id, Total: len(run.Cells()),
		Status: "/sweeps/" + id, Events: "/sweeps/" + id + "/events",
	})
}

// sweepStatus is the GET /sweeps/{id} response body.
type sweepStatus struct {
	ID       string           `json:"id"`
	Progress sweep.Progress   `json:"progress"`
	Cells    []sweepCellState `json:"cells"`
}

// sweepCellState identifies one cell by every gridded option dimension,
// so cells of a sweep over instances or max-depths stay distinguishable.
type sweepCellState struct {
	Experiment string          `json:"experiment"`
	Seed       int64           `json:"seed"`
	Shots      int             `json:"shots"`
	Instances  int             `json:"instances"`
	MaxDepth   int             `json:"max_depth"`
	Backend    string          `json:"backend,omitempty"`
	Engine     string          `json:"engine,omitempty"`
	State      sweep.CellState `json:"state"`
}

func (s *Server) lookupSweep(id string) (*sweepRecord, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	rec, ok := s.sweeps[id]
	return rec, ok
}

func (s *Server) handleSweepStatus(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	rec, ok := s.lookupSweep(id)
	if !ok {
		writeError(w, http.StatusNotFound, "unknown sweep %q", id)
		return
	}
	run := rec.run
	states := run.States()
	cells := run.Cells()
	body := sweepStatus{ID: id, Progress: run.Progress(), Cells: make([]sweepCellState, len(cells))}
	for i, c := range cells {
		body.Cells[i] = sweepCellState{Experiment: c.ID, Seed: c.Opts.Seed, Shots: c.Opts.Shots,
			Instances: c.Opts.Instances, MaxDepth: c.Opts.MaxDepth, Backend: c.Opts.Backend,
			Engine: c.Opts.Engine, State: states[i]}
	}
	writeJSON(w, http.StatusOK, body)
}

// sweepSummary is one GET /sweeps list entry.
type sweepSummary struct {
	ID        string         `json:"id"`
	Submitted time.Time      `json:"submitted"`
	Progress  sweep.Progress `json:"progress"`
}

// handleSweepList returns every retained sweep in submission order — the
// fleet-dashboard view.
func (s *Server) handleSweepList(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	ids := make([]string, len(s.order))
	copy(ids, s.order)
	recs := make([]*sweepRecord, len(ids))
	for i, id := range ids {
		recs[i] = s.sweeps[id]
	}
	s.mu.Unlock()
	out := make([]sweepSummary, len(ids))
	for i, id := range ids {
		out[i] = sweepSummary{ID: id, Submitted: recs[i].submitted, Progress: recs[i].run.Progress()}
	}
	writeJSON(w, http.StatusOK, out)
}

// progressEvent is one SSE `progress` payload: the progress snapshot
// plus the sweep's trace id (16 hex digits).
type progressEvent struct {
	sweep.Progress
	TraceID string `json:"trace_id"`
}

// handleSweepEvents streams progress snapshots as Server-Sent Events:
// one `progress` event per state change (coalesced under load) with
// monotonically non-decreasing counts, ending with the snapshot whose
// finished field is true. Clients get push-based progress without
// polling /sweeps/{id}.
func (s *Server) handleSweepEvents(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	rec, ok := s.lookupSweep(id)
	if !ok {
		writeError(w, http.StatusNotFound, "unknown sweep %q", id)
		return
	}
	flusher, ok := w.(http.Flusher)
	if !ok {
		writeError(w, http.StatusInternalServerError, "streaming unsupported by connection")
		return
	}
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.Header().Set("Connection", "keep-alive")
	w.WriteHeader(http.StatusOK)
	flusher.Flush()

	run := rec.run
	// Every event echoes the sweep's trace id (assigned by the
	// coordinator), so a client can correlate the sweep with spans
	// recorded anywhere in the fleet.
	trace := fmt.Sprintf("%016x", run.TraceID())
	var last *sweep.Progress
	seq := 0
	for {
		// Fetch the change channel before snapshotting: an update landing
		// between snapshot and wait closes the fetched channel, so it
		// cannot be missed.
		changed := run.Changed()
		p := run.Progress()
		if last == nil || p != *last {
			seq++
			data, err := json.Marshal(progressEvent{Progress: p, TraceID: trace})
			if err != nil {
				return
			}
			fmt.Fprintf(w, "id: %d\nevent: progress\ndata: %s\n\n", seq, data)
			flusher.Flush()
			last = &p
		}
		if p.Finished {
			return
		}
		select {
		case <-changed:
		case <-run.Done():
		case <-r.Context().Done():
			return
		case <-s.ctx.Done():
			return
		}
	}
}

// refreshLocked stamps finish times for runs that completed since the
// last look. finishedAt is "when the server noticed" — checked lazily
// under the lock rather than by a per-sweep watcher goroutine, so
// admission control, pruning, and drain always agree on which runs are
// still active. Callers hold s.mu.
func (s *Server) refreshLocked(now time.Time) {
	for _, rec := range s.sweeps {
		if rec.finishedAt.IsZero() {
			select {
			case <-rec.run.Done():
				rec.finishedAt = now
			default:
			}
		}
	}
}

// pruneLocked drops the oldest finished runs beyond maxSweepHistory so a
// long-lived server does not accumulate one Run per submission forever —
// but a finished run stays queryable for the history TTL (clients that
// just submitted deserve to read the result of /sweeps/{id} they were
// given), unless the hard cap is breached by a submission flood.
// Callers hold s.mu.
func (s *Server) pruneLocked(now time.Time) {
	if len(s.order) <= maxSweepHistory {
		return
	}
	s.refreshLocked(now)
	prunable := func(rec *sweepRecord) bool {
		if rec.finishedAt.IsZero() {
			return false // never prune a running sweep
		}
		return now.Sub(rec.finishedAt) >= s.ttl || len(s.order) > hardSweepHistory
	}
	kept := s.order[:0]
	excess := len(s.order) - maxSweepHistory
	for _, id := range s.order {
		if excess > 0 && prunable(s.sweeps[id]) {
			delete(s.sweeps, id)
			excess--
			continue
		}
		kept = append(kept, id)
	}
	s.order = kept
}

// health is the GET /healthz response body.
type health struct {
	OK       bool              `json:"ok"`
	Draining bool              `json:"draining"`
	Store    interface{}       `json:"store"`
	Requests map[string]uint64 `json:"requests"`
	Sweeps   sweepCounts       `json:"sweeps"`
	Layouts  layoutCounts      `json:"layouts"`
	Fabric   *fabric.Stats     `json:"fabric,omitempty"`
}

type sweepCounts struct {
	Active   int `json:"active"`
	Retained int `json:"retained"`
}

func (s *Server) handleHealth(w http.ResponseWriter, r *http.Request) {
	// The requests map is rebuilt from the registry counters, dropping
	// zero-valued endpoints (counted pre-creates every child at Handler
	// build) — the JSON shape matches the pre-registry map, which only
	// held endpoints that had been hit.
	reqs := map[string]uint64{}
	for k, v := range s.reqCount.Snapshot() {
		if v != 0 {
			reqs[k] = v
		}
	}
	s.mu.Lock()
	s.refreshLocked(time.Now())
	active := 0
	for _, rec := range s.sweeps {
		if rec.finishedAt.IsZero() {
			active++
		}
	}
	body := health{
		OK:       true,
		Draining: s.draining,
		Requests: reqs,
		Sweeps:   sweepCounts{Active: active, Retained: len(s.sweeps)},
	}
	s.mu.Unlock()
	body.Store = s.cache.Store.Stats()
	body.Layouts = s.layoutStats()
	if s.remote {
		st := s.coord.Stats()
		body.Fabric = &st
	}
	writeJSON(w, http.StatusOK, body)
}

// retrySeconds rounds a wait up to whole seconds for the Retry-After
// header (whose delta form is integral seconds; 0 would mean "now").
func retrySeconds(d time.Duration) int {
	secs := int(math.Ceil(d.Seconds()))
	if secs < 1 {
		secs = 1
	}
	return secs
}

// tokenBucket is a standard token-bucket rate limiter: capacity `burst`,
// refilled continuously at `rate` tokens per second. take consumes one
// token or reports how long until one accrues. It deliberately avoids
// per-client state: the figure endpoints protect shared compute, so the
// budget is global.
type tokenBucket struct {
	mu     sync.Mutex
	rate   float64 // tokens per second
	burst  float64
	tokens float64
	last   time.Time
}

func newTokenBucket(rate float64, burst int) *tokenBucket {
	return &tokenBucket{rate: rate, burst: float64(burst), tokens: float64(burst)}
}

// take consumes one token if available; otherwise it reports the wait
// until the next token accrues and limited = true.
func (b *tokenBucket) take(now time.Time) (retryAfter time.Duration, limited bool) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if !b.last.IsZero() {
		b.tokens += now.Sub(b.last).Seconds() * b.rate
		if b.tokens > b.burst {
			b.tokens = b.burst
		}
	}
	b.last = now
	if b.tokens >= 1 {
		b.tokens--
		return 0, false
	}
	need := 1 - b.tokens
	return time.Duration(need / b.rate * float64(time.Second)), true
}
