package sweep

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"sync/atomic"
	"testing"

	"casq/internal/experiments"
	"casq/internal/store"
)

func memCache(t *testing.T, compute Compute) *Cache {
	t.Helper()
	st, err := store.Open("", 64)
	if err != nil {
		t.Fatal(err)
	}
	return &Cache{Store: st, Compute: compute}
}

func TestCellsExpansion(t *testing.T) {
	spec := Spec{
		IDs:  []string{"fig5", "table1"},
		Grid: Grid{Seeds: []int64{1, 2, 3}, Shots: []int{16, 32}},
		Base: experiments.FastOptions(),
	}
	cells, err := spec.Cells()
	if err != nil {
		t.Fatal(err)
	}
	if len(cells) != 2*3*2 {
		t.Fatalf("expanded %d cells, want 12", len(cells))
	}
	// Un-swept axes inherit the base; swept axes are bound per cell.
	if cells[0].ID != "fig5" || cells[0].Opts.Seed != 1 || cells[0].Opts.Shots != 16 {
		t.Errorf("first cell = %+v", cells[0])
	}
	if cells[0].Opts.Instances != experiments.FastOptions().Instances {
		t.Error("base instances not inherited")
	}
	if _, err := (Spec{IDs: []string{"nope"}}).Cells(); err == nil {
		t.Error("unknown id must fail expansion")
	}
	// Empty spec covers the whole catalog once.
	all, err := Spec{Base: experiments.FastOptions()}.Cells()
	if err != nil {
		t.Fatal(err)
	}
	if len(all) != len(experiments.IDs()) {
		t.Errorf("catalog sweep has %d cells, want %d", len(all), len(experiments.IDs()))
	}
}

func TestCellKeyStableAndWorkerBlind(t *testing.T) {
	base := Cell{ID: "fig6", Opts: experiments.FastOptions()}
	k1, err := base.Key()
	if err != nil {
		t.Fatal(err)
	}
	k2, _ := base.Key()
	if k1 != k2 {
		t.Error("key not deterministic")
	}
	// Workers only changes parallelism, never results: same address.
	workers := base
	workers.Opts.Workers = 7
	if kw, _ := workers.Key(); kw != k1 {
		t.Error("worker count fragmented the cache key")
	}
	// Every result-affecting option must move the address.
	seed := base
	seed.Opts.Seed++
	if ks, _ := seed.Key(); ks == k1 {
		t.Error("seed change kept the same key")
	}
	other := Cell{ID: "fig10", Opts: base.Opts}
	if ko, _ := other.Key(); ko == k1 {
		t.Error("different experiments share a key")
	}
	if _, err := (Cell{ID: "nope"}).Key(); err == nil {
		t.Error("unknown id must not produce a key")
	}
}

// TestCacheHitBitIdentity pins the acceptance contract: the second request
// for a figure does not recompute, and its payload is byte-identical both
// to the first response and to a fresh out-of-band compute.
func TestCacheHitBitIdentity(t *testing.T) {
	var computes atomic.Int32
	cache := memCache(t, func(id string, opts experiments.Options) (experiments.Figure, error) {
		computes.Add(1)
		return experiments.Run(id, opts)
	})
	cell := Cell{ID: "fig5", Opts: experiments.FastOptions()}

	first, hit, err := cache.Figure(cell)
	if err != nil {
		t.Fatal(err)
	}
	if hit {
		t.Fatal("first request cannot be a hit")
	}
	second, hit, err := cache.Figure(cell)
	if err != nil {
		t.Fatal(err)
	}
	if !hit {
		t.Error("second request must be served from the store")
	}
	if got := computes.Load(); got != 1 {
		t.Errorf("computed %d times, want 1", got)
	}
	if !bytes.Equal(first, second) {
		t.Error("cached payload differs from the original response")
	}
	fresh, err := experiments.Run(cell.ID, cell.Opts)
	if err != nil {
		t.Fatal(err)
	}
	freshJSON, _ := json.Marshal(fresh)
	if !bytes.Equal(second, freshJSON) {
		t.Error("cached payload differs from a fresh compute")
	}
	var fig experiments.Figure
	if err := json.Unmarshal(second, &fig); err != nil {
		t.Fatalf("cached payload not a figure: %v", err)
	}
	if fig.ID != "fig5" {
		t.Errorf("round-tripped figure id = %q", fig.ID)
	}
}

// fakeFigure is a cheap deterministic compute for cache tests.
func fakeFigure(id string, opts experiments.Options) (experiments.Figure, error) {
	fig := experiments.Figure{ID: id, Title: "fake"}
	fig.AddSeries("s", []float64{0}, []float64{float64(opts.Seed)})
	return fig, nil
}

func TestCacheComputeErrorNotCheckpointed(t *testing.T) {
	calls := 0
	cache := memCache(t, func(id string, opts experiments.Options) (experiments.Figure, error) {
		calls++
		return experiments.Figure{}, fmt.Errorf("transient %d", calls)
	})
	cell := Cell{ID: "fig5", Opts: experiments.FastOptions()}
	if _, _, err := cache.Figure(cell); err == nil {
		t.Fatal("error must propagate")
	}
	// A failure leaves no poisoned entry: the next request recomputes.
	if _, _, err := cache.Figure(cell); err == nil || calls != 2 {
		t.Fatalf("calls = %d, err = %v", calls, err)
	}
}

// TestFigureCoalescesConcurrentMisses pins the singleflight behavior: N
// concurrent requests for one uncached cell run the compute exactly once
// and all receive the same bytes.
func TestFigureCoalescesConcurrentMisses(t *testing.T) {
	var computes atomic.Int32
	started := make(chan struct{})
	release := make(chan struct{})
	cache := memCache(t, func(id string, opts experiments.Options) (experiments.Figure, error) {
		computes.Add(1)
		close(started)
		<-release
		return fakeFigure(id, opts)
	})
	cell := Cell{ID: "fig5", Opts: experiments.FastOptions()}

	type result struct {
		data []byte
		err  error
	}
	const waiters = 8
	results := make(chan result, waiters)
	go func() {
		data, _, err := cache.Figure(cell) // leader
		results <- result{data, err}
	}()
	<-started // leader is inside compute; the rest must join its flight
	for i := 1; i < waiters; i++ {
		go func() {
			data, _, err := cache.Figure(cell)
			results <- result{data, err}
		}()
	}
	close(release)
	var first []byte
	for i := 0; i < waiters; i++ {
		r := <-results
		if r.err != nil {
			t.Fatal(r.err)
		}
		if first == nil {
			first = r.data
		} else if !bytes.Equal(first, r.data) {
			t.Error("coalesced requests returned different bytes")
		}
	}
	if got := computes.Load(); got != 1 {
		t.Errorf("computed %d times under concurrency, want 1", got)
	}
}

// TestFigureCoalescedErrorPropagates: a failing computation fails its
// coalesced waiters too (a waiter that misses the flight window computes
// and fails itself), and nothing poisoned is checkpointed.
func TestFigureCoalescedErrorPropagates(t *testing.T) {
	var computes atomic.Int32
	var failing atomic.Bool
	failing.Store(true)
	started := make(chan struct{})
	release := make(chan struct{})
	cache := memCache(t, func(id string, opts experiments.Options) (experiments.Figure, error) {
		n := computes.Add(1)
		if failing.Load() {
			if n == 1 {
				close(started)
				<-release
			}
			return experiments.Figure{}, errors.New("compute failed")
		}
		return fakeFigure(id, opts)
	})
	cell := Cell{ID: "fig5", Opts: experiments.FastOptions()}
	errs := make(chan error, 2)
	go func() { _, _, err := cache.Figure(cell); errs <- err }()
	<-started // leader is parked inside its failing compute
	go func() { _, _, err := cache.Figure(cell); errs <- err }()
	close(release)
	for i := 0; i < 2; i++ {
		if err := <-errs; err == nil {
			t.Error("caller did not see the computation failure")
		}
	}
	if got := computes.Load(); got < 1 || got > 2 {
		t.Errorf("computes = %d, want 1 (coalesced) or 2 (flight window missed)", got)
	}
	// The failures were not checkpointed: the next request recomputes.
	failing.Store(false)
	if _, hit, err := cache.Figure(cell); err != nil || hit {
		t.Fatalf("retry after failure: hit=%v err=%v", hit, err)
	}
}

// TestDerivedFigureReusesCachedBase pins the fig7d dependency contract:
// computing the derived figure through the cache checkpoints (and later
// reuses) the fig7c base instead of re-running the base simulation, and
// the result is byte-identical to a standalone compute.
func TestDerivedFigureReusesCachedBase(t *testing.T) {
	if testing.Short() {
		t.Skip("slow")
	}
	st, err := store.Open("", 64)
	if err != nil {
		t.Fatal(err)
	}
	cache := NewCache(st) // default compute path resolves declared derivations
	opts := experiments.FastOptions()
	opts.Shots, opts.Instances, opts.MaxDepth = 16, 2, 2

	derived, hit, err := cache.Figure(Cell{ID: "fig7d", Opts: opts})
	if err != nil || hit {
		t.Fatalf("first fig7d: hit=%v err=%v", hit, err)
	}
	// The base was checkpointed on the way: fig7c is now a pure hit.
	if _, hit, err := cache.Figure(Cell{ID: "fig7c", Opts: opts}); err != nil || !hit {
		t.Fatalf("fig7c after fig7d: hit=%v err=%v", hit, err)
	}
	// And the cached derivation matches a standalone recompute exactly.
	fresh, err := experiments.Run("fig7d", opts)
	if err != nil {
		t.Fatal(err)
	}
	freshJSON, _ := json.Marshal(fresh)
	if !bytes.Equal(derived, freshJSON) {
		t.Error("derived figure differs from standalone compute")
	}
}

// TestCellKeyIgnoresIrrelevantMaxDepth: MaxDepth acts only through a
// declared depth axis, so for axis-free experiments it must not fragment
// the cache.
func TestCellKeyIgnoresIrrelevantMaxDepth(t *testing.T) {
	// fig8 has no depth axis: MaxDepth cannot affect its result.
	a := Cell{ID: "fig8", Opts: experiments.Options{Seed: 1, Shots: 16, Instances: 2, MaxDepth: 2}}
	b := a
	b.Opts.MaxDepth = 6
	ka, err := a.Key()
	if err != nil {
		t.Fatal(err)
	}
	if kb, _ := b.Key(); kb != ka {
		t.Error("MaxDepth fragmented the key of a depth-axis-free experiment")
	}
	// fig6 has one: MaxDepth is result-affecting and must move the key.
	c := Cell{ID: "fig6", Opts: a.Opts}
	d := c
	d.Opts.MaxDepth = 6
	kc, _ := c.Key()
	if kd, _ := d.Key(); kd == kc {
		t.Error("MaxDepth ignored for a depth-swept experiment")
	}
}
