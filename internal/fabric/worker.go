package fabric

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"runtime"
	"strings"
	"sync"
	"time"

	"casq/internal/obs"
	"casq/internal/store"
	"casq/internal/sweep"
)

// DefaultPoll is the idle claim-poll interval when Worker.Poll is zero.
const DefaultPoll = 200 * time.Millisecond

// Worker claims cells from a coordinator, computes them through its
// Cache (whose store should share the coordinator's — NewWorker wires the
// remote HTTP backend), and reports completion. It sends heartbeats while
// a cell computes, so only a genuinely dead or wedged worker loses its
// lease. Run as many workers as you have machines; results are
// bit-identical regardless of which worker computes which cell. A worker
// from Coordinator.LocalWorker runs the same loop in-process, with direct
// calls in place of HTTP.
type Worker struct {
	// Coordinator is the coordinator's base URL (e.g. "http://host:8823").
	Coordinator string
	// Cache computes figures and checkpoints them into the shared store.
	Cache *sweep.Cache
	// ID names the worker in coordinator stats; "" derives one from the
	// hostname and pid.
	ID string
	// Slots is the number of cells computed concurrently (0 = 1). Each
	// cell's executor defaults to an equal share of GOMAXPROCS.
	Slots int
	// Poll is the idle claim-poll interval over HTTP (0 = DefaultPoll);
	// local workers wait on the coordinator's work signal instead.
	Poll time.Duration
	// Client is the HTTP client for coordinator calls (nil =
	// http.DefaultClient).
	Client *http.Client
	// Tracer records one span per processed cell (lane = slot), stamped
	// with the trace id the coordinator assigned to the owning sweep
	// (carried in the claim response), and is threaded into the cell's
	// Options so compile and engine spans nest under it. Nil disables
	// tracing at zero cost.
	Tracer *obs.Tracer

	// local, when set, is the in-process coordinator this worker claims
	// from, heartbeats to and completes on by direct calls.
	local *Coordinator
}

// NewWorker returns a worker computing against the coordinator at base,
// sharing the coordinator's store through the remote HTTP backend with a
// local LRU tier of memCapacity entries in front of it.
func NewWorker(base string, memCapacity int) *Worker {
	base = strings.TrimRight(base, "/")
	st := store.OpenWith(store.NewHTTP(base, nil), memCapacity)
	return &Worker{Coordinator: base, Cache: sweep.NewCache(st)}
}

// LocalWorker returns an in-process worker of c computing through cache
// on slots concurrent cells (<= 0 = GOMAXPROCS). Its claims block on c's
// work signal instead of polling. slots is one parallelism budget: a
// sweep narrower than it hands the spare slots to each cell's executor,
// so a one-cell sweep gets the whole budget. When Run's ctx is
// cancelled, the in-flight cells finish and report, and every cell still
// pending — or submitted later — is marked skipped, so each sweep
// finishes.
func (c *Coordinator) LocalWorker(cache *sweep.Cache, slots int) *Worker {
	if slots <= 0 {
		slots = runtime.GOMAXPROCS(0)
	}
	return &Worker{Cache: cache, ID: "local", Slots: slots, local: c}
}

func (w *Worker) id() string {
	if w.ID != "" {
		return w.ID
	}
	host, _ := os.Hostname()
	if host == "" {
		host = "worker"
	}
	return fmt.Sprintf("%s-%d", host, os.Getpid())
}

func (w *Worker) client() *http.Client {
	if w.Client != nil {
		return w.Client
	}
	return http.DefaultClient
}

func (w *Worker) poll() time.Duration {
	if w.Poll > 0 {
		return w.Poll
	}
	return DefaultPoll
}

// Run claims and computes cells until ctx is cancelled, then returns
// ctx.Err(). Claim failures (coordinator restarting, network blips) are
// retried at the poll interval rather than terminating the worker.
func (w *Worker) Run(ctx context.Context) error {
	slots := max(1, w.Slots)
	var wg sync.WaitGroup
	for slot := 1; slot <= slots; slot++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			w.loop(ctx, slot, slots)
		}()
	}
	wg.Wait()
	if w.local != nil {
		w.local.stopLocal()
	}
	return ctx.Err()
}

func (w *Worker) loop(ctx context.Context, slot, slots int) {
	for ctx.Err() == nil {
		job, ok, err := w.claim(ctx)
		if err != nil || !ok {
			select {
			case <-ctx.Done():
				return
			case <-time.After(w.poll()):
			}
			continue
		}
		w.process(ctx, job, slot, w.cellWorkers(job, slots))
	}
}

// cellWorkers is the executor share of a claimed cell that leaves
// Options.Workers zero. A remote worker splits GOMAXPROCS evenly between
// its slots; the local worker splits its slot budget over the cells of
// the claimed cell's sweep.
func (w *Worker) cellWorkers(job claimResponse, slots int) int {
	if w.local == nil {
		return max(1, runtime.GOMAXPROCS(0)/slots)
	}
	return max(1, slots/min(slots, job.sweepCells))
}

// process computes one claimed cell under a heartbeat. If the completion
// report fails (coordinator unreachable, lease expired), the result is
// already checkpointed in the shared store, so the requeued cell is
// answered from cache by whichever worker claims it next — never
// recomputed, never written twice. Heartbeats outlive ctx: a worker that
// is shutting down still holds, finishes and reports its in-flight cell.
func (w *Worker) process(ctx context.Context, job claimResponse, slot, perCell int) {
	hbCtx, stopHB := context.WithCancel(context.WithoutCancel(ctx))
	defer stopHB()
	go w.heartbeatLoop(hbCtx, job)

	cell := job.Cell
	if cell.Opts.Workers == 0 {
		cell.Opts.Workers = perCell
	}
	var sp obs.Span
	if w.Tracer.Enabled() {
		sp = w.Tracer.StartTrace("fabric.cell:"+cell.ID, job.TraceID).WithLane(slot)
		cell.Opts.Tracer = w.Tracer
	}
	_, hit, err := w.Cache.Figure(cell)
	sp.End()
	stopHB()
	state := sweep.CellComputed
	errMsg := ""
	switch {
	case err != nil:
		state, errMsg = sweep.CellFailed, err.Error()
	case hit:
		state = sweep.CellCached
	}
	w.complete(job.LeaseID, state, errMsg)
}

// heartbeatLoop extends the lease at a third of its TTL until stopped.
// Once the lease is gone — the cell was requeued — heartbeating stops;
// the compute still finishes and checkpoints its result.
func (w *Worker) heartbeatLoop(ctx context.Context, job claimResponse) {
	every := time.Duration(job.LeaseTTLMS) * time.Millisecond / 3
	if every < 5*time.Millisecond {
		every = 5 * time.Millisecond
	}
	t := time.NewTicker(every)
	defer t.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-t.C:
			if errors.Is(w.heartbeat(ctx, job.LeaseID), ErrLeaseGone) {
				return
			}
		}
	}
}

func (w *Worker) heartbeat(ctx context.Context, leaseID string) error {
	if w.local != nil {
		return w.local.heartbeat(leaseID, time.Now())
	}
	status, err := w.post(ctx, "/fabric/heartbeat", heartbeatRequest{LeaseID: leaseID}, nil)
	if err == nil && status == http.StatusGone {
		return ErrLeaseGone
	}
	return err
}

func (w *Worker) claim(ctx context.Context) (claimResponse, bool, error) {
	if w.local != nil {
		job, ok := w.local.claimLocal(ctx, w.id())
		return job, ok, nil
	}
	var resp claimResponse
	status, err := w.post(ctx, "/fabric/claim", claimRequest{Worker: w.id()}, &resp)
	if err != nil {
		return resp, false, err
	}
	switch status {
	case http.StatusOK:
		return resp, true, nil
	case http.StatusNoContent:
		return resp, false, nil
	default:
		return resp, false, fmt.Errorf("fabric: claim: unexpected status %d", status)
	}
}

func (w *Worker) complete(leaseID string, st sweep.CellState, errMsg string) {
	if w.local != nil {
		w.local.complete(leaseID, st, errMsg, time.Now())
		return
	}
	// Best-effort: a failed report leaves the lease to expire and the
	// already-stored result to be served from cache on requeue.
	w.post(context.Background(), "/fabric/complete",
		completeRequest{LeaseID: leaseID, State: st, Error: errMsg}, nil)
}

// post sends one JSON request to the coordinator, decoding a 200 body
// into out when non-nil, and returns the HTTP status.
func (w *Worker) post(ctx context.Context, path string, in, out any) (int, error) {
	body, err := json.Marshal(in)
	if err != nil {
		return 0, err
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, w.Coordinator+path, bytes.NewReader(body))
	if err != nil {
		return 0, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := w.client().Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	if out != nil && resp.StatusCode == http.StatusOK {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			return resp.StatusCode, err
		}
	}
	io.Copy(io.Discard, resp.Body)
	return resp.StatusCode, nil
}
