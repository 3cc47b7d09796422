// Package sweep turns the experiment catalog into schedulable batch work.
// A Spec names experiment ids and a Grid of option axes (seeds, shot
// budgets, twirl instances, depth clamps); Cells expands the grid into the
// cartesian product of concrete (id, Options) cells. Every cell is
// computed through a Cache, which consults the content-addressed store
// before computing and checkpoints every computed figure back into it —
// so an interrupted sweep, restarted with the same spec, resumes from its
// checkpoints and recomputes nothing that already finished, and a
// repeated figure request is answered bit-identically from cache. The
// fabric package schedules the cells, on in-process slots or on remote
// workers; this package defines the cell, its cache, and the progress
// model both report.
package sweep

import (
	"encoding/json"
	"fmt"
	"sync"

	"casq/internal/exec"
	"casq/internal/experiments"
	"casq/internal/store"
)

// descriptorRev versions the cell descriptor. Bump it when harness
// internals change in a result-affecting way that the descriptor fields do
// not capture (device construction, pipeline composition), so stale cached
// figures are never served for the new code.
//
// Rev 2: the backend axis joined the descriptor (and Spec declarations
// gained Backends), so every pre-backend checkpoint is retired.
//
// Rev 3: the engine axis joined the descriptor — a figure computed by the
// stabilizer engine is a different artifact from the statevector one, so
// pre-engine checkpoints are retired rather than ever being served for an
// engine-qualified request.
const descriptorRev = 3

// Compute regenerates one figure from scratch. The default is
// experiments.Run; tests substitute counting or failing stand-ins.
type Compute func(id string, opts experiments.Options) (experiments.Figure, error)

// Cell is one concrete unit of sweep work: a single experiment at fully
// bound options.
type Cell struct {
	ID   string              `json:"id"`
	Opts experiments.Options `json:"opts"`
}

// descriptor is the canonical request identity a Cell hashes to. Workers
// is deliberately excluded: executor results are bit-identical for every
// worker count, so parallelism must not fragment the cache.
type descriptor struct {
	Rev        int                `json:"rev"`
	ID         string             `json:"id"`
	Title      string             `json:"title"`
	Paper      string             `json:"paper"`
	Strategies []string           `json:"strategies"`
	Axes       []experiments.Axis `json:"axes"`
	Seed       int64              `json:"seed"`
	Shots      int                `json:"shots"`
	Instances  int                `json:"instances"`
	MaxDepth   int                `json:"max_depth"`
	Fast       bool               `json:"fast"`
	Backend    string             `json:"backend"`
	Engine     string             `json:"engine"`
}

// Key returns the cell's content address: the fingerprint of the
// experiment's declared Spec plus every result-affecting option.
// MaxDepth acts only through the declared "depth" axis (Spec.Depths is
// its sole consumer), so for specs without one it is normalized to zero —
// sweeping max_depths over an axis-free experiment then dedups to a
// single computation instead of storing identical bytes under many keys.
func (c Cell) Key() (store.Key, error) {
	sp, ok := experiments.Lookup(c.ID)
	if !ok {
		return "", fmt.Errorf("sweep: unknown experiment %q", c.ID)
	}
	maxDepth := c.Opts.MaxDepth
	if len(sp.AxisValues("depth", c.Opts)) == 0 {
		maxDepth = 0
	}
	if !sp.SupportsBackend(c.Opts.Backend) {
		return "", fmt.Errorf("sweep: %s does not support backend %q (declared: %v)",
			c.ID, c.Opts.Backend, sp.Backends)
	}
	if !exec.ValidEngine(c.Opts.Engine) {
		return "", fmt.Errorf("sweep: unknown engine %q (known: %v)", c.Opts.Engine, exec.EngineNames())
	}
	if !sp.SupportsEngine(c.Opts.Engine) {
		return "", fmt.Errorf("sweep: %s does not honor engine %q (declared: %v)",
			c.ID, c.Opts.Engine, sp.Engines)
	}
	// "" and "statevector" are the same configuration; normalize so the
	// two spellings share one cache artifact instead of double-computing.
	engine := c.Opts.Engine
	if engine == exec.EngineStatevector {
		engine = ""
	}
	return store.Fingerprint(descriptor{
		Rev:        descriptorRev,
		ID:         sp.ID,
		Title:      sp.Title,
		Paper:      sp.Paper,
		Strategies: sp.Strategies,
		Axes:       sp.Axes,
		Seed:       c.Opts.Seed,
		Shots:      c.Opts.Shots,
		Instances:  c.Opts.Instances,
		MaxDepth:   maxDepth,
		Fast:       c.Opts.Fast,
		Backend:    c.Opts.Backend,
		Engine:     engine,
	})
}

// Cache is the compute-or-cached layer over the result store. The zero
// Compute means experiments.Run. Concurrent requests for the same key are
// coalesced: one caller computes, the rest wait and share its result.
type Cache struct {
	Store   *store.Store
	Compute Compute

	mu       sync.Mutex
	inflight map[store.Key]*flight
}

// flight is one in-progress computation other requests can wait on.
type flight struct {
	done chan struct{}
	data []byte
	err  error
}

// NewCache returns a cache computing through experiments.Run.
func NewCache(st *store.Store) *Cache { return &Cache{Store: st} }

// Figure returns the JSON-encoded figure for the cell, serving it from the
// store when present and computing + checkpointing it otherwise. The
// returned bytes on a hit are the exact bytes stored by the miss that
// produced them. Only one computation per key runs at a time; callers
// that join an in-flight computation report a hit (they did no work).
func (c *Cache) Figure(cell Cell) (data []byte, hit bool, err error) {
	key, err := cell.Key()
	if err != nil {
		return nil, false, err
	}
	if data, ok, err := c.Store.Get(key); err != nil {
		return nil, false, err
	} else if ok {
		return data, true, nil
	}

	c.mu.Lock()
	if f, ok := c.inflight[key]; ok {
		c.mu.Unlock()
		<-f.done
		if f.err != nil {
			return nil, false, f.err
		}
		return f.data, true, nil
	}
	f := &flight{done: make(chan struct{})}
	if c.inflight == nil {
		c.inflight = map[store.Key]*flight{}
	}
	c.inflight[key] = f
	c.mu.Unlock()
	defer func() {
		f.data, f.err = data, err
		c.mu.Lock()
		delete(c.inflight, key)
		c.mu.Unlock()
		close(f.done)
	}()

	compute := c.Compute
	if compute == nil {
		compute = c.runResolved
	}
	fig, err := compute(cell.ID, cell.Opts)
	if err != nil {
		return nil, false, fmt.Errorf("sweep: %s: %w", cell.ID, err)
	}
	data, err = json.Marshal(fig)
	if err != nil {
		return nil, false, fmt.Errorf("sweep: %s: encode: %w", cell.ID, err)
	}
	if err := c.Store.Put(key, data); err != nil {
		return nil, false, err
	}
	return data, false, nil
}

// runResolved is the default compute: experiments.Run, except that a
// spec declaring DerivesFrom resolves its base figure through this cache
// first — so deriving fig7d reuses a checkpointed fig7c (and checkpoints
// it on a miss) instead of re-running the whole base simulation.
func (c *Cache) runResolved(id string, opts experiments.Options) (experiments.Figure, error) {
	sp, ok := experiments.Lookup(id)
	if !ok || sp.DerivesFrom == "" {
		return experiments.Run(id, opts)
	}
	baseData, _, err := c.Figure(Cell{ID: sp.DerivesFrom, Opts: opts})
	if err != nil {
		return experiments.Figure{}, err
	}
	var base experiments.Figure
	if err := json.Unmarshal(baseData, &base); err != nil {
		return experiments.Figure{}, fmt.Errorf("decode cached %s: %w", sp.DerivesFrom, err)
	}
	return sp.Derive(sp, base, opts)
}

// Grid declares the option axes of a sweep. Empty axes inherit the base
// options' value, so the zero Grid sweeps exactly the base configuration.
type Grid struct {
	Seeds     []int64 `json:"seeds,omitempty"`
	Shots     []int   `json:"shots,omitempty"`
	Instances []int   `json:"instances,omitempty"`
	MaxDepths []int   `json:"max_depths,omitempty"`
	// Backends sweeps the registry-backend axis; every listed experiment
	// must declare each backend in its Spec.Backends ("" = the default
	// device, always allowed).
	Backends []string `json:"backends,omitempty"`
	// Engines sweeps the simulation-engine axis ("statevector", "stab",
	// "auto"; "" = statevector). A statevector-vs-stab sweep of one figure
	// is the service-level differential test.
	Engines []string `json:"engines,omitempty"`
}

// Spec is a sweep request: which experiments, over which option grid,
// starting from which base options.
type Spec struct {
	// IDs lists experiment ids; empty means the whole catalog.
	IDs  []string `json:"ids,omitempty"`
	Grid Grid     `json:"grid"`
	// Base supplies the option values of un-swept axes. Zero fields mean
	// "use the default" (the HTTP layer fills them); to sweep a literal
	// zero — e.g. seed 0 — put it on the corresponding Grid axis, which
	// is always honored verbatim.
	Base experiments.Options `json:"base"`
	// Fast switches the reduced axes (and is part of each cell's cache
	// identity).
	Fast bool `json:"fast,omitempty"`
}

// Cells expands the spec into the cartesian product id × seed × shots ×
// instances × max-depth × backend × engine, in deterministic order (ids
// outermost, then the grid axes in declaration order).
func (s Spec) Cells() ([]Cell, error) {
	ids := s.IDs
	if len(ids) == 0 {
		ids = experiments.IDs()
	}
	for _, id := range ids {
		if _, ok := experiments.Lookup(id); !ok {
			return nil, fmt.Errorf("sweep: unknown experiment %q", id)
		}
	}
	seeds := s.Grid.Seeds
	if len(seeds) == 0 {
		seeds = []int64{s.Base.Seed}
	}
	shots := s.Grid.Shots
	if len(shots) == 0 {
		shots = []int{s.Base.Shots}
	}
	instances := s.Grid.Instances
	if len(instances) == 0 {
		instances = []int{s.Base.Instances}
	}
	maxDepths := s.Grid.MaxDepths
	if len(maxDepths) == 0 {
		maxDepths = []int{s.Base.MaxDepth}
	}
	backends := s.Grid.Backends
	if len(backends) == 0 {
		backends = []string{s.Base.Backend}
	}
	for _, b := range backends {
		for _, id := range ids {
			sp, _ := experiments.Lookup(id)
			if !sp.SupportsBackend(b) {
				return nil, fmt.Errorf("sweep: %s does not support backend %q (declared: %v)", id, b, sp.Backends)
			}
		}
	}
	engines := s.Grid.Engines
	if len(engines) == 0 {
		engines = []string{s.Base.Engine}
	}
	for _, e := range engines {
		if !exec.ValidEngine(e) {
			return nil, fmt.Errorf("sweep: unknown engine %q (known: %v)", e, exec.EngineNames())
		}
		for _, id := range ids {
			sp, _ := experiments.Lookup(id)
			if !sp.SupportsEngine(e) {
				return nil, fmt.Errorf("sweep: %s does not honor engine %q (declared: %v)", id, e, sp.Engines)
			}
		}
	}
	cells := make([]Cell, 0, len(ids)*len(seeds)*len(shots)*len(instances)*len(maxDepths)*len(backends)*len(engines))
	for _, id := range ids {
		for _, seed := range seeds {
			for _, sh := range shots {
				for _, inst := range instances {
					for _, md := range maxDepths {
						for _, b := range backends {
							for _, eng := range engines {
								opts := s.Base
								opts.Seed = seed
								opts.Shots = sh
								opts.Instances = inst
								opts.MaxDepth = md
								opts.Backend = b
								opts.Engine = eng
								opts.Fast = s.Fast || s.Base.Fast
								cells = append(cells, Cell{ID: id, Opts: opts})
							}
						}
					}
				}
			}
		}
	}
	return cells, nil
}

// CellState is the lifecycle of one cell within a sweep.
type CellState string

const (
	CellPending  CellState = "pending"
	CellLeased   CellState = "leased"   // claimed by a worker slot, not yet reported
	CellCached   CellState = "cached"   // answered from the store
	CellComputed CellState = "computed" // freshly computed and checkpointed
	CellFailed   CellState = "failed"
	CellSkipped  CellState = "skipped" // local slots stopped before the cell ran
)

// Progress is a snapshot of a running or finished sweep.
type Progress struct {
	Total    int  `json:"total"`
	Done     int  `json:"done"` // cached + computed
	Cached   int  `json:"cached"`
	Computed int  `json:"computed"`
	Failed   int  `json:"failed"`
	Skipped  int  `json:"skipped"`
	Leased   int  `json:"leased,omitempty"` // cells computing under a worker lease
	Finished bool `json:"finished"`
	// Err is the first failure message, if any.
	Err string `json:"err,omitempty"`
}
