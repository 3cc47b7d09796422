package fabric

import (
	"context"
	"fmt"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"casq/internal/experiments"
	"casq/internal/obs"
	"casq/internal/store"
	"casq/internal/sweep"
)

// startLocal runs w until the test ends.
func startLocal(t *testing.T, w *Worker) {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() { defer close(done); w.Run(ctx) }()
	t.Cleanup(func() { cancel(); <-done })
}

// TestLocalCellOutlivesLease: a local cell computing for several lease
// TTLs is kept alive by direct heartbeats — it reports leased while it
// runs, is never requeued, and is computed exactly once.
func TestLocalCellOutlivesLease(t *testing.T) {
	const ttl = 20 * time.Millisecond
	c := NewCoordinator(store.OpenWith(nil, 16), Options{LeaseTTL: ttl})
	defer c.Close()
	var computes atomic.Int32
	started := make(chan struct{})
	cache := &sweep.Cache{Store: c.Store(), Compute: func(id string, opts experiments.Options) (experiments.Figure, error) {
		if computes.Add(1) == 1 {
			close(started)
		}
		time.Sleep(10 * ttl)
		return experiments.Figure{ID: id}, nil
	}}
	// Two slots: a requeued cell would be claimed by the idle one.
	startLocal(t, c.LocalWorker(cache, 2))
	sw, err := c.Submit(testSpec([]int64{1}))
	if err != nil {
		t.Fatal(err)
	}
	<-started
	if p := sw.Progress(); p.Leased != 1 {
		t.Errorf("computing local cell progress = %+v, want leased", p)
	}
	p := sw.Wait()
	if p.Computed != 1 || p.Cached != 0 || p.Failed != 0 {
		t.Errorf("final progress = %+v, want the one cell computed", p)
	}
	if n := computes.Load(); n != 1 {
		t.Errorf("computed %d times, want 1", n)
	}
	if st := c.Stats(); st.Expirations != 0 || st.Heartbeats == 0 {
		t.Errorf("stats = %+v, want heartbeats and no expirations", st)
	}
}

// TestLocalIdleNoClaims: local slots wait on the coordinator's work
// signal rather than polling, so an idle coordinator records no claims
// over several lease TTLs, and a one-cell sweep costs exactly one claim.
func TestLocalIdleNoClaims(t *testing.T) {
	const ttl = 20 * time.Millisecond
	c := NewCoordinator(store.OpenWith(nil, 16), Options{LeaseTTL: ttl})
	defer c.Close()
	var computes atomic.Int32
	startLocal(t, c.LocalWorker(&sweep.Cache{Store: c.Store(), Compute: stubCompute(&computes, nil)}, 4))
	time.Sleep(5 * ttl)
	if st := c.Stats(); st.Claims != 0 {
		t.Fatalf("idle local slots made %d claims", st.Claims)
	}
	sw, err := c.Submit(testSpec([]int64{1}))
	if err != nil {
		t.Fatal(err)
	}
	if p := sw.Wait(); p.Computed != 1 {
		t.Fatalf("progress = %+v", p)
	}
	time.Sleep(5 * ttl)
	if st := c.Stats(); st.Claims != 1 {
		t.Errorf("claims = %d, want 1 for a one-cell sweep", st.Claims)
	}
}

// TestLocalBudgetSplit: the local slot budget is split over each sweep's
// cells — a one-cell sweep hands the whole budget to its executor, a
// sweep at least as wide as the budget runs one executor worker per cell.
func TestLocalBudgetSplit(t *testing.T) {
	c := NewCoordinator(store.OpenWith(nil, 64), Options{})
	defer c.Close()
	var maxWorkers, minWorkers atomic.Int32
	minWorkers.Store(1 << 30)
	cache := &sweep.Cache{Store: c.Store(), Compute: func(id string, opts experiments.Options) (experiments.Figure, error) {
		w := int32(opts.Workers)
		for cur := maxWorkers.Load(); w > cur && !maxWorkers.CompareAndSwap(cur, w); cur = maxWorkers.Load() {
		}
		for cur := minWorkers.Load(); w < cur && !minWorkers.CompareAndSwap(cur, w); cur = minWorkers.Load() {
		}
		return experiments.Figure{ID: id, Title: fmt.Sprint(opts.Seed)}, nil
	}}
	startLocal(t, c.LocalWorker(cache, 4))

	sw, err := c.Submit(testSpec([]int64{1}))
	if err != nil {
		t.Fatal(err)
	}
	sw.Wait()
	if got := maxWorkers.Load(); got != 4 {
		t.Errorf("one-cell sweep executor workers = %d, want the whole budget 4", got)
	}
	maxWorkers.Store(0)
	sw, err = c.Submit(testSpec([]int64{2, 3, 4, 5, 6, 7, 8, 9}))
	if err != nil {
		t.Fatal(err)
	}
	sw.Wait()
	if lo, hi := minWorkers.Load(), maxWorkers.Load(); lo != 1 || hi != 1 {
		t.Errorf("wide sweep executor workers in [%d, %d], want 1", lo, hi)
	}
}

// TestLocalCellSpans: a local slot records one fabric.cell span per cell,
// on lane = slot, stamped with the sweep's trace id.
func TestLocalCellSpans(t *testing.T) {
	c := NewCoordinator(store.OpenWith(nil, 16), Options{})
	defer c.Close()
	var computes atomic.Int32
	w := c.LocalWorker(&sweep.Cache{Store: c.Store(), Compute: stubCompute(&computes, nil)}, 2)
	w.Tracer = obs.NewTracer()
	startLocal(t, w)
	sw, err := c.Submit(testSpec([]int64{1, 2, 3}))
	if err != nil {
		t.Fatal(err)
	}
	sw.Wait()
	spans := 0
	for _, ev := range w.Tracer.Events() {
		if !strings.HasPrefix(ev.Name, "fabric.cell:") {
			continue
		}
		spans++
		if ev.Trace != sw.TraceID() || ev.Lane < 1 || ev.Lane > 2 {
			t.Errorf("span %+v: want trace %016x on lane 1 or 2", ev, sw.TraceID())
		}
	}
	if spans != 3 {
		t.Errorf("recorded %d fabric.cell spans, want 3", spans)
	}
}

// TestCoordinatorForgetsFinishedSweeps pins the coordinator's memory
// bound: finished sweeps are not retained (Stats.Sweeps counts only
// unfinished ones), and workers not seen for 10 lease TTLs drop out of
// the worker table.
func TestCoordinatorForgetsFinishedSweeps(t *testing.T) {
	const ttl = 50 * time.Millisecond
	c := NewCoordinator(store.OpenWith(nil, 16), Options{LeaseTTL: ttl})
	defer c.Close()
	pending, err := c.Submit(testSpec([]int64{0}))
	if err != nil {
		t.Fatal(err)
	}
	if st := c.Stats(); st.Sweeps != 1 {
		t.Fatalf("stats with one unfinished sweep = %+v", st)
	}
	// Drain the unfinished sweep's lone cell first, then run 100
	// one-cell sweeps through 100 distinct workers.
	for i := 0; i <= 100; i++ {
		if i > 0 {
			if _, err := c.Submit(testSpec([]int64{int64(i)})); err != nil {
				t.Fatal(err)
			}
		}
		now := time.Now()
		lease, _, _, ok := c.claim(fmt.Sprintf("w%d", i), now)
		if !ok {
			t.Fatalf("claim %d found no work", i)
		}
		if err := c.complete(lease, sweep.CellComputed, "", now); err != nil {
			t.Fatal(err)
		}
	}
	<-pending.Done()
	if st := c.Stats(); st.Sweeps != 0 {
		t.Errorf("stats after every sweep finished = %+v, want 0 sweeps", st)
	}
	time.Sleep(11 * ttl)
	st := c.Stats()
	c.mu.Lock()
	tracked := len(c.workers)
	c.mu.Unlock()
	if tracked != 0 || st.Workers != 0 {
		t.Errorf("worker table holds %d ids (stats %d) past 10 TTLs, want 0", tracked, st.Workers)
	}
}

// TestLocalStoppedSkipsSubmissions: once the local worker has stopped, a
// new submission has no slot to run on, so its cells are skipped at once
// and the sweep finishes instead of waiting forever.
func TestLocalStoppedSkipsSubmissions(t *testing.T) {
	c := NewCoordinator(store.OpenWith(nil, 16), Options{})
	defer c.Close()
	var computes atomic.Int32
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	c.LocalWorker(&sweep.Cache{Store: c.Store(), Compute: stubCompute(&computes, nil)}, 2).Run(ctx)
	sw, err := c.Submit(testSpec([]int64{1, 2}))
	if err != nil {
		t.Fatal(err)
	}
	select {
	case <-sw.Done():
	case <-time.After(10 * time.Second):
		t.Fatalf("sweep submitted after the slots stopped did not finish: %+v", sw.Progress())
	}
	if p := sw.Progress(); p.Skipped != 2 || computes.Load() != 0 {
		t.Errorf("progress = %+v, computes = %d; want 2 skipped, none computed", p, computes.Load())
	}
	if st := c.Stats(); st.Sweeps != 0 || st.QueueDepth != 0 {
		t.Errorf("stats = %+v, want no unfinished sweeps", st)
	}
}
