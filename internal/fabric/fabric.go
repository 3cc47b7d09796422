// Package fabric is the one sweep executor. A Coordinator turns each
// submitted sweep.Spec into a queue of cells guarded by worker leases;
// Workers claim cells, compute them through the shared content-addressed
// store, and report completion. A worker reaches its coordinator over one
// of two transports: HTTP for remote worker processes (NewWorker), or
// direct calls for the in-process slots that run local sweeps
// (Coordinator.LocalWorker). Both process a cell on the same code path —
// heartbeat, span, Cache.Figure, complete — so local and distributed
// sweeps share one queue, one lease model and one progress surface.
//
// A worker that dies mid-cell simply stops heartbeating — its lease
// expires and the cell is requeued for a survivor. Because every result is
// checkpointed into the store under its content address the moment it is
// computed, a requeued cell whose result already landed is answered from
// the store without recomputation, and the store is never written twice
// for one cell: crash recovery costs at most the one in-flight cell per
// dead worker.
//
// HTTP wire protocol (all JSON, mounted by Handler):
//
//	POST /fabric/claim      {"worker":id} -> lease + cell, or 204 when idle
//	POST /fabric/heartbeat  {"lease_id":id} extends the lease, 410 if expired
//	POST /fabric/complete   {"lease_id":id,"state":...,"error":...}, 410 if expired
//	GET  /store/{key}       shared store read (see store.Handler)
//	PUT  /store/{key}       shared store write
package fabric

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"sync"
	"time"

	"casq/internal/obs"
	"casq/internal/store"
	"casq/internal/sweep"
)

// DefaultLeaseTTL is the lease lifetime when Options leave it zero: long
// enough that a healthy worker heartbeating at TTL/3 never expires, short
// enough that a dead worker's cell is requeued promptly.
const DefaultLeaseTTL = 15 * time.Second

// ErrLeaseGone reports a heartbeat or completion for a lease the
// coordinator no longer holds — it expired and the cell was requeued (or
// it never existed). The HTTP layer maps it to 410 Gone.
var ErrLeaseGone = errors.New("fabric: lease expired or unknown")

// Options configure a Coordinator.
type Options struct {
	// LeaseTTL is how long a claimed cell may go without a heartbeat
	// before it is requeued (0 = DefaultLeaseTTL).
	LeaseTTL time.Duration
}

// Coordinator owns the sweep job queue: sweeps expand into cells, cells
// are leased to workers, and expired leases requeue. It also serves the
// shared store, so remote workers need exactly one endpoint. Safe for
// concurrent use; create with NewCoordinator and release with Close.
type Coordinator struct {
	st       *store.Store
	leaseTTL time.Duration

	mu      sync.Mutex
	active  int // submitted sweeps not yet finished
	queue   []cellRef
	leases  map[string]*lease
	seq     int64
	workers map[string]time.Time // worker id -> last seen, pruned past 10 lease TTLs
	work    chan struct{}        // closed and replaced whenever cells enqueue
	stopped bool                 // the local worker's slots have stopped: skip new cells

	claims, completes, heartbeats, expirations uint64

	closed    chan struct{}
	closeOnce sync.Once
}

// cellRef addresses one cell of one sweep.
type cellRef struct {
	sw  *Sweep
	idx int
}

// lease is one outstanding claim.
type lease struct {
	ref    cellRef
	worker string
	expiry time.Time
}

// NewCoordinator returns a coordinator scheduling cells against the
// shared store st (which it also serves at /store/{key}).
func NewCoordinator(st *store.Store, opts Options) *Coordinator {
	ttl := opts.LeaseTTL
	if ttl <= 0 {
		ttl = DefaultLeaseTTL
	}
	c := &Coordinator{
		st:       st,
		leaseTTL: ttl,
		leases:   map[string]*lease{},
		workers:  map[string]time.Time{},
		work:     make(chan struct{}),
		closed:   make(chan struct{}),
	}
	go c.janitor()
	return c
}

// Store returns the shared content-addressed store the coordinator serves.
func (c *Coordinator) Store() *store.Store { return c.st }

// Close stops the lease janitor. Outstanding sweeps stop making progress
// once their workers disconnect; their checkpointed cells remain in the
// store for a later coordinator to resume from.
func (c *Coordinator) Close() { c.closeOnce.Do(func() { close(c.closed) }) }

// janitor expires leases even when no worker is polling, so a sweep whose
// entire fleet died still requeues (and a reconnecting fleet resumes it),
// and forgets workers not seen for 10 lease TTLs.
func (c *Coordinator) janitor() {
	period := c.leaseTTL / 2
	if period < 5*time.Millisecond {
		period = 5 * time.Millisecond
	}
	t := time.NewTicker(period)
	defer t.Stop()
	for {
		select {
		case <-c.closed:
			return
		case <-t.C:
			now := time.Now()
			c.mu.Lock()
			c.expireLocked(now)
			c.pruneWorkersLocked(now)
			c.mu.Unlock()
		}
	}
}

// Submit expands the spec and enqueues its cells for the workers,
// returning the Sweep handle the serve layer tracks. Cells enqueue in the
// spec's deterministic expansion order.
func (c *Coordinator) Submit(spec sweep.Spec) (*Sweep, error) {
	cells, err := spec.Cells()
	if err != nil {
		return nil, err
	}
	sw := &Sweep{
		c:         c,
		cells:     cells,
		traceID:   obs.NextTraceID(),
		states:    make([]sweep.CellState, len(cells)),
		remaining: len(cells),
		watch:     make(chan struct{}),
		done:      make(chan struct{}),
	}
	sweep.RecordRun()
	for i := range sw.states {
		sw.states[i] = sweep.CellPending
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	for i := range cells {
		c.queue = append(c.queue, cellRef{sw: sw, idx: i})
	}
	switch {
	case len(cells) == 0:
		close(sw.done)
	case c.stopped:
		c.active++
		c.skipQueuedLocked()
	default:
		c.active++
		c.signalWorkLocked()
	}
	return sw, nil
}

// signalWorkLocked wakes every local claim waiting for work. Callers hold
// c.mu.
func (c *Coordinator) signalWorkLocked() {
	close(c.work)
	c.work = make(chan struct{})
}

// claim hands the oldest pending cell to a worker under a fresh lease,
// along with the owning sweep's trace id (which the worker stamps on its
// spans). The bool is false when no work is available right now.
func (c *Coordinator) claim(worker string, now time.Time) (string, sweep.Cell, uint64, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.expireLocked(now)
	c.workers[worker] = now
	c.claims++
	mClaims.Inc()
	id, ref, ok := c.leaseLocked(worker, now)
	if !ok {
		return "", sweep.Cell{}, 0, false
	}
	return id, ref.sw.cells[ref.idx], ref.sw.traceID, true
}

// claimLocal is the direct claim of an in-process worker: it blocks on
// the work signal until it can lease a cell, or returns false once ctx
// is done. It never polls, so only successful claims are counted.
func (c *Coordinator) claimLocal(ctx context.Context, worker string) (claimResponse, bool) {
	for {
		c.mu.Lock()
		if ctx.Err() != nil {
			c.mu.Unlock()
			return claimResponse{}, false
		}
		now := time.Now()
		c.expireLocked(now)
		if id, ref, ok := c.leaseLocked(worker, now); ok {
			c.workers[worker] = now
			c.claims++
			mClaims.Inc()
			c.mu.Unlock()
			return claimResponse{
				LeaseID: id, LeaseTTLMS: c.leaseTTL.Milliseconds(),
				Cell: ref.sw.cells[ref.idx], TraceID: ref.sw.traceID, sweepCells: len(ref.sw.cells),
			}, true
		}
		wake := c.work
		c.mu.Unlock()
		select {
		case <-ctx.Done():
			return claimResponse{}, false
		case <-wake:
		}
	}
}

// leaseLocked leases the oldest pending cell to worker, if any. Callers
// hold c.mu.
func (c *Coordinator) leaseLocked(worker string, now time.Time) (string, cellRef, bool) {
	for len(c.queue) > 0 {
		ref := c.queue[0]
		c.queue[0] = cellRef{} // the backing array must not pin finished sweeps
		c.queue = c.queue[1:]
		if ref.sw.states[ref.idx] != sweep.CellPending {
			continue
		}
		ref.sw.states[ref.idx] = sweep.CellLeased
		ref.sw.notifyLocked()
		sweep.RecordCellState(sweep.CellLeased)
		c.seq++
		id := fmt.Sprintf("lease-%d", c.seq)
		c.leases[id] = &lease{ref: ref, worker: worker, expiry: now.Add(c.leaseTTL)}
		return id, ref, true
	}
	return "", cellRef{}, false
}

// heartbeat extends a lease; ErrLeaseGone means the worker lost it (the
// cell is already requeued) and should abandon reporting for that cell.
func (c *Coordinator) heartbeat(leaseID string, now time.Time) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.expireLocked(now)
	l, ok := c.leases[leaseID]
	if !ok {
		return ErrLeaseGone
	}
	l.expiry = now.Add(c.leaseTTL)
	c.workers[l.worker] = now
	c.heartbeats++
	mHeartbeats.Inc()
	return nil
}

// complete moves a leased cell to its terminal state. Only the current
// lease holder can complete a cell, so every cell reaches a terminal
// state exactly once even when a presumed-dead worker reports late.
func (c *Coordinator) complete(leaseID string, st sweep.CellState, errMsg string, now time.Time) error {
	switch st {
	case sweep.CellCached, sweep.CellComputed, sweep.CellFailed:
	default:
		return fmt.Errorf("fabric: %q is not a terminal cell state", st)
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.expireLocked(now)
	l, ok := c.leases[leaseID]
	if !ok {
		return ErrLeaseGone
	}
	delete(c.leases, leaseID)
	c.workers[l.worker] = now
	c.completes++
	mCompletes.Inc()
	c.finishLocked(l.ref, st, errMsg)
	return nil
}

// stopLocal marks every queued cell skipped, so its sweep can finish, and
// skips the cells of every later submission too. The local worker calls
// it once its slots have stopped.
func (c *Coordinator) stopLocal() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.stopped = true
	c.skipQueuedLocked()
}

// skipQueuedLocked marks every queued cell skipped. Callers hold c.mu.
func (c *Coordinator) skipQueuedLocked() {
	for _, ref := range c.queue {
		if ref.sw.states[ref.idx] == sweep.CellPending {
			c.finishLocked(ref, sweep.CellSkipped, "")
		}
	}
	c.queue = nil
}

// finishLocked moves one cell to the terminal state st, finishing its
// sweep when it was the last. Callers hold c.mu.
func (c *Coordinator) finishLocked(ref cellRef, st sweep.CellState, errMsg string) {
	sweep.RecordCellState(st)
	sw := ref.sw
	sw.states[ref.idx] = st
	if st == sweep.CellFailed && sw.first == "" {
		sw.first = errMsg
	}
	sw.remaining--
	if sw.remaining == 0 {
		close(sw.done)
		c.active--
	}
	sw.notifyLocked()
}

// expireLocked requeues every cell whose lease outlived its TTL — the
// crash-recovery path. Callers hold c.mu.
func (c *Coordinator) expireLocked(now time.Time) {
	requeued := false
	for id, l := range c.leases {
		if now.After(l.expiry) {
			delete(c.leases, id)
			l.ref.sw.states[l.ref.idx] = sweep.CellPending
			c.queue = append(c.queue, l.ref)
			c.expirations++
			mExpirations.Inc()
			l.ref.sw.notifyLocked()
			requeued = true
		}
	}
	if requeued {
		c.signalWorkLocked()
	}
}

// pruneWorkersLocked forgets workers not seen within 10 lease TTLs, so
// the worker table stays bounded by the live fleet. Callers hold c.mu.
func (c *Coordinator) pruneWorkersLocked(now time.Time) {
	cutoff := now.Add(-10 * c.leaseTTL)
	for id, seen := range c.workers {
		if !seen.After(cutoff) {
			delete(c.workers, id)
		}
	}
}

// Stats is an observability snapshot of the coordinator (reported on the
// serve layer's /healthz).
type Stats struct {
	Sweeps      int    `json:"sweeps"` // sweeps submitted and not yet finished
	QueueDepth  int    `json:"queue_depth"`
	Leases      int    `json:"leases"`
	Workers     int    `json:"workers"` // distinct workers seen within 10 lease TTLs
	Claims      uint64 `json:"claims"`
	Completes   uint64 `json:"completes"`
	Heartbeats  uint64 `json:"heartbeats"`
	Expirations uint64 `json:"expirations"`
}

// Stats returns a consistent snapshot of queue and fleet counters.
func (c *Coordinator) Stats() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.pruneWorkersLocked(time.Now())
	depth := 0
	for _, ref := range c.queue {
		if ref.sw.states[ref.idx] == sweep.CellPending {
			depth++
		}
	}
	return Stats{
		Sweeps: c.active, QueueDepth: depth, Leases: len(c.leases), Workers: len(c.workers),
		Claims: c.claims, Completes: c.completes, Heartbeats: c.heartbeats, Expirations: c.expirations,
	}
}

// Sweep is one submitted sweep and its progress surface, which the serve
// layer's status, list, SSE and drain paths all read, wherever its cells
// run. All state is guarded by the coordinator's lock.
type Sweep struct {
	c         *Coordinator
	cells     []sweep.Cell
	traceID   uint64
	states    []sweep.CellState
	first     string
	remaining int
	watch     chan struct{}
	done      chan struct{}
}

// Cells returns the sweep's expanded cells (shared slice; read-only).
func (s *Sweep) Cells() []sweep.Cell { return s.cells }

// TraceID returns the sweep's trace identity. It travels to workers in
// every claim response, so every cell span carries the coordinator's id
// wherever it was recorded, and the serve layer echoes it in SSE progress
// events.
func (s *Sweep) TraceID() uint64 { return s.traceID }

// Done returns a channel closed when every cell has reached a terminal
// state.
func (s *Sweep) Done() <-chan struct{} { return s.done }

// Wait blocks until the sweep finishes and returns its final progress.
func (s *Sweep) Wait() sweep.Progress {
	<-s.done
	return s.Progress()
}

// States returns a copy of the per-cell states, index-aligned with Cells.
func (s *Sweep) States() []sweep.CellState {
	s.c.mu.Lock()
	defer s.c.mu.Unlock()
	out := make([]sweep.CellState, len(s.states))
	copy(out, s.states)
	return out
}

// Progress returns a consistent snapshot of the sweep.
func (s *Sweep) Progress() sweep.Progress {
	s.c.mu.Lock()
	defer s.c.mu.Unlock()
	p := sweep.Progress{Total: len(s.cells), Err: s.first}
	for _, st := range s.states {
		switch st {
		case sweep.CellCached:
			p.Cached++
		case sweep.CellComputed:
			p.Computed++
		case sweep.CellFailed:
			p.Failed++
		case sweep.CellSkipped:
			p.Skipped++
		case sweep.CellLeased:
			p.Leased++
		}
	}
	p.Done = p.Cached + p.Computed
	p.Finished = s.remaining == 0
	return p
}

// Changed returns a channel closed on the next state change; fetch it
// before snapshotting Progress to watch without missing updates.
func (s *Sweep) Changed() <-chan struct{} {
	s.c.mu.Lock()
	defer s.c.mu.Unlock()
	return s.watch
}

// notifyLocked wakes every Changed waiter. Callers hold c.mu.
func (s *Sweep) notifyLocked() {
	close(s.watch)
	s.watch = make(chan struct{})
}

// Handler returns the coordinator's HTTP surface for remote workers: the
// worker protocol under /fabric/ and the shared store under /store/. The
// serve layer mounts it next to the figure and sweep endpoints when a
// coordinator is attached for a worker fleet.
func (c *Coordinator) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /fabric/claim", c.handleClaim)
	mux.HandleFunc("POST /fabric/heartbeat", c.handleHeartbeat)
	mux.HandleFunc("POST /fabric/complete", c.handleComplete)
	mux.Handle("/store/", store.Handler(c.st))
	return mux
}
