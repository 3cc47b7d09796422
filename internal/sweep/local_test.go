package sweep_test

import (
	"context"
	"errors"
	"sync/atomic"
	"testing"

	"casq/internal/experiments"
	"casq/internal/fabric"
	"casq/internal/store"
	"casq/internal/sweep"
)

// These tests run sweeps end to end on the executor that serves them: a
// fabric.Coordinator whose cells are computed by in-process worker slots.
// They live in an external test package because fabric imports sweep.

func memCache(t *testing.T, compute sweep.Compute) *sweep.Cache {
	t.Helper()
	st, err := store.Open("", 64)
	if err != nil {
		t.Fatal(err)
	}
	return &sweep.Cache{Store: st, Compute: compute}
}

// fakeFigure is a cheap deterministic compute for scheduler tests.
func fakeFigure(id string, opts experiments.Options) (experiments.Figure, error) {
	fig := experiments.Figure{ID: id, Title: "fake"}
	fig.AddSeries("s", []float64{0}, []float64{float64(opts.Seed)})
	return fig, nil
}

// localCoordinator returns a coordinator whose cells run on slots local
// slots through cache until ctx is cancelled (or the test ends).
func localCoordinator(t *testing.T, ctx context.Context, cache *sweep.Cache, slots int) *fabric.Coordinator {
	t.Helper()
	ctx, cancel := context.WithCancel(ctx)
	c := fabric.NewCoordinator(cache.Store, fabric.Options{})
	done := make(chan struct{})
	go func() { defer close(done); c.LocalWorker(cache, slots).Run(ctx) }()
	t.Cleanup(func() { cancel(); <-done; c.Close() })
	return c
}

func submit(t *testing.T, c *fabric.Coordinator, spec sweep.Spec) *fabric.Sweep {
	t.Helper()
	sw, err := c.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	return sw
}

func TestRunnerRunsAllCells(t *testing.T) {
	var computes atomic.Int32
	cache := memCache(t, func(id string, opts experiments.Options) (experiments.Figure, error) {
		computes.Add(1)
		return fakeFigure(id, opts)
	})
	spec := sweep.Spec{
		IDs:  []string{"fig5", "fig6", "table1"},
		Grid: sweep.Grid{Seeds: []int64{1, 2, 3, 4}},
		Base: experiments.FastOptions(),
	}
	c := localCoordinator(t, context.Background(), cache, 4)
	p := submit(t, c, spec).Wait()
	if !p.Finished || p.Total != 12 || p.Computed != 12 || p.Failed != 0 || p.Skipped != 0 {
		t.Fatalf("progress = %+v", p)
	}
	if got := computes.Load(); got != 12 {
		t.Errorf("computed %d cells, want 12", got)
	}
	// Re-running the same sweep touches the store, not the harnesses.
	p2 := submit(t, c, spec).Wait()
	if p2.Cached != 12 || p2.Computed != 0 {
		t.Fatalf("second run progress = %+v", p2)
	}
	if got := computes.Load(); got != 12 {
		t.Errorf("second run recomputed: %d total computes", got)
	}
}

// TestResumeAfterInterrupt cancels a sweep's local slots mid-flight and
// restarts the sweep: finished cells must come back from their
// checkpoints, and the total number of harness invocations across both
// runs must equal the cell count — nothing is computed twice.
func TestResumeAfterInterrupt(t *testing.T) {
	dir := t.TempDir()
	openCache := func(computes *atomic.Int32, cancelAfter int32, cancel context.CancelFunc) *sweep.Cache {
		st, err := store.Open(dir, 64)
		if err != nil {
			t.Fatal(err)
		}
		return &sweep.Cache{Store: st, Compute: func(id string, opts experiments.Options) (experiments.Figure, error) {
			if computes.Add(1) == cancelAfter {
				cancel()
			}
			return fakeFigure(id, opts)
		}}
	}
	spec := sweep.Spec{
		IDs:  []string{"fig5"},
		Grid: sweep.Grid{Seeds: []int64{1, 2, 3, 4, 5, 6, 7, 8}},
		Base: experiments.FastOptions(),
	}

	var computes atomic.Int32
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	// One slot so the interrupt point is deterministic: the third compute
	// cancels, the claimed cell still completes and checkpoints.
	c := localCoordinator(t, ctx, openCache(&computes, 3, cancel), 1)
	p := submit(t, c, spec).Wait()
	if p.Computed != 3 || p.Skipped != 5 || p.Finished != true {
		t.Fatalf("interrupted progress = %+v", p)
	}

	// "New process": fresh store over the same directory, fresh cache.
	c2 := localCoordinator(t, context.Background(), openCache(&computes, -1, func() {}), 1)
	p2 := submit(t, c2, spec).Wait()
	if p2.Cached != 3 || p2.Computed != 5 || p2.Failed != 0 {
		t.Fatalf("resumed progress = %+v", p2)
	}
	if got := computes.Load(); got != 8 {
		t.Errorf("total computes across interrupt+resume = %d, want 8", got)
	}
}

func TestRunnerReportsFailure(t *testing.T) {
	boom := errors.New("boom")
	cache := memCache(t, func(id string, opts experiments.Options) (experiments.Figure, error) {
		if opts.Seed == 2 {
			return experiments.Figure{}, boom
		}
		return fakeFigure(id, opts)
	})
	spec := sweep.Spec{IDs: []string{"fig5"}, Grid: sweep.Grid{Seeds: []int64{1, 2, 3}}, Base: experiments.FastOptions()}
	run := submit(t, localCoordinator(t, context.Background(), cache, 2), spec)
	p := run.Wait()
	if p.Failed != 1 || p.Computed != 2 {
		t.Fatalf("progress = %+v", p)
	}
	if p.Err == "" {
		t.Error("first error not surfaced")
	}
	states := run.States()
	var failed int
	for _, st := range states {
		if st == sweep.CellFailed {
			failed++
		}
	}
	if failed != 1 {
		t.Errorf("states = %v", states)
	}
}

// TestSweepFigCEngineGrid runs the correlation-spectroscopy spec over the
// engine axis with the real harness: each engine is a distinct cell with
// its own checkpoint, and rerunning the grid is answered entirely from
// the store.
func TestSweepFigCEngineGrid(t *testing.T) {
	var computes atomic.Int32
	cache := memCache(t, func(id string, opts experiments.Options) (experiments.Figure, error) {
		computes.Add(1)
		return experiments.Run(id, opts)
	})
	base := experiments.FastOptions()
	base.Shots = 128
	base.Instances = 2
	spec := sweep.Spec{
		IDs:  []string{"figC1"},
		Grid: sweep.Grid{Engines: []string{"statevector", "stab"}},
		Base: base,
	}
	c := localCoordinator(t, context.Background(), cache, 2)
	p := submit(t, c, spec).Wait()
	if !p.Finished || p.Total != 2 || p.Computed != 2 || p.Failed != 0 {
		t.Fatalf("progress = %+v", p)
	}
	if p2 := submit(t, c, spec).Wait(); p2.Cached != 2 || p2.Computed != 0 {
		t.Fatalf("second run progress = %+v", p2)
	}
	if got := computes.Load(); got != 2 {
		t.Errorf("computed %d cells across both runs, want 2", got)
	}
	// The spectroscopy specs do not honor an engine they don't declare.
	bad := sweep.Spec{IDs: []string{"figC1"}, Grid: sweep.Grid{Engines: []string{"nosuch"}}, Base: base}
	if _, err := bad.Cells(); err == nil {
		t.Error("unknown engine must fail expansion")
	}
}
