package serve

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
	"time"

	"casq/internal/experiments"
	"casq/internal/fabric"
	"casq/internal/store"
	"casq/internal/sweep"
)

// newGatedServer returns a server whose compute path blocks until the
// test sends on (or closes) the returned release channel — one receive
// per compute — so tests can hold sweeps in flight deterministically.
func newGatedServer(t *testing.T, cfg Config) (*httptest.Server, *Server, chan struct{}) {
	t.Helper()
	st, err := store.Open("", 64)
	if err != nil {
		t.Fatal(err)
	}
	release := make(chan struct{})
	cfg.Cache = &sweep.Cache{Store: st, Compute: func(id string, opts experiments.Options) (experiments.Figure, error) {
		<-release
		return experiments.Run(id, opts)
	}}
	srv := NewWith(cfg)
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() { ts.Close(); srv.Close() })
	// Runs first (LIFO): unblock any compute still gated so Close's drain
	// cannot hang a failing test.
	t.Cleanup(func() { close(release) })
	return ts, srv, release
}

func postSweep(t *testing.T, ts *httptest.Server, spec string) *http.Response {
	t.Helper()
	resp, err := http.Post(ts.URL+"/sweeps", "application/json", strings.NewReader(spec))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	return resp
}

const oneCellSpec = `{"ids":["fig5"],"fast":true,"base":{"Seed":11,"Shots":16,"Instances":2,"MaxDepth":2,"Fast":true}}`

func waitSweepFinished(t *testing.T, ts *httptest.Server, id string) sweep.Progress {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for {
		_, body := get(t, ts.URL+"/sweeps/"+id)
		var st struct {
			Progress sweep.Progress `json:"progress"`
		}
		if err := json.Unmarshal(body, &st); err == nil && st.Progress.Finished {
			return st.Progress
		}
		if time.Now().After(deadline) {
			t.Fatalf("sweep %s did not finish", id)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestSweepEventsOrdering pins the SSE contract: one progress event per
// coalesced state change with strictly increasing ids and monotonically
// non-decreasing done counts, terminated by the snapshot whose finished
// field is true.
func TestSweepEventsOrdering(t *testing.T) {
	ts, _, release := newGatedServer(t, Config{SweepWorkers: 1})

	spec := `{"ids":["fig5"],"grid":{"seeds":[1,2,3]},"fast":true,
	          "base":{"Shots":16,"Instances":2,"MaxDepth":2,"Fast":true}}`
	if resp := postSweep(t, ts, spec); resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit status = %d", resp.StatusCode)
	}

	resp, err := http.Get(ts.URL + "/sweeps/sweep-1/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("content type = %q", ct)
	}

	type event struct {
		id       int
		progress sweep.Progress
	}
	events := make(chan event)
	readErr := make(chan error, 1)
	go func() {
		defer close(events)
		sc := bufio.NewScanner(resp.Body)
		cur := event{}
		for sc.Scan() {
			line := sc.Text()
			switch {
			case strings.HasPrefix(line, "id: "):
				cur.id, _ = strconv.Atoi(strings.TrimPrefix(line, "id: "))
			case strings.HasPrefix(line, "data: "):
				if err := json.Unmarshal([]byte(strings.TrimPrefix(line, "data: ")), &cur.progress); err != nil {
					readErr <- err
					return
				}
				events <- cur
			}
		}
		readErr <- sc.Err()
	}()

	// Release the three computes one at a time while the stream is live.
	go func() {
		for i := 0; i < 3; i++ {
			release <- struct{}{}
		}
	}()

	var got []event
	deadline := time.After(30 * time.Second)
	for events != nil {
		select {
		case ev, ok := <-events:
			if !ok {
				events = nil
				break
			}
			got = append(got, ev)
		case <-deadline:
			t.Fatalf("stream did not finish; got %d events", len(got))
		}
	}
	if err := <-readErr; err != nil {
		t.Fatalf("stream read: %v", err)
	}
	if len(got) == 0 {
		t.Fatal("no events")
	}
	lastID, lastDone := 0, -1
	for i, ev := range got {
		if ev.id <= lastID {
			t.Errorf("event %d: id %d not increasing (prev %d)", i, ev.id, lastID)
		}
		if ev.progress.Done < lastDone {
			t.Errorf("event %d: done %d went backwards (prev %d)", i, ev.progress.Done, lastDone)
		}
		if ev.progress.Finished && i != len(got)-1 {
			t.Errorf("event %d: finished snapshot before end of stream", i)
		}
		lastID, lastDone = ev.id, ev.progress.Done
	}
	final := got[len(got)-1].progress
	if !final.Finished || final.Done != 3 || final.Failed != 0 {
		t.Errorf("final progress = %+v", final)
	}
}

func TestSweepEventsUnknownSweep(t *testing.T) {
	ts := newTestServer(t, nil)
	resp, _ := get(t, ts.URL+"/sweeps/sweep-404/events")
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("status = %d", resp.StatusCode)
	}
}

// TestFigureRateLimit pins the overload contract on figure endpoints:
// beyond the token-bucket burst, 429 with a Retry-After hint — and the
// limit scopes to figures only, never the control plane.
func TestFigureRateLimit(t *testing.T) {
	ts, _ := newTestServerWith(t, nil, Config{SweepWorkers: 2, FigureRPS: 1, FigureBurst: 1})
	url := ts.URL + "/figures/fig5?fast=1&shots=16&instances=2&maxdepth=2"

	resp, body := get(t, url)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("first request status = %d: %s", resp.StatusCode, body)
	}
	resp, body = get(t, url)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("second request status = %d: %s", resp.StatusCode, body)
	}
	secs, err := strconv.Atoi(resp.Header.Get("Retry-After"))
	if err != nil || secs < 1 {
		t.Errorf("Retry-After = %q", resp.Header.Get("Retry-After"))
	}
	// Control-plane endpoints stay reachable under figure overload.
	for _, path := range []string{"/experiments", "/healthz", "/sweeps"} {
		if resp, _ := get(t, ts.URL+path); resp.StatusCode != http.StatusOK {
			t.Errorf("%s status under figure limit = %d", path, resp.StatusCode)
		}
	}
}

// TestSweepAdmissionBounded pins bounded admission: submissions beyond
// MaxActiveSweeps get 429 until a run finishes, then admit again.
func TestSweepAdmissionBounded(t *testing.T) {
	ts, _, release := newGatedServer(t, Config{SweepWorkers: 1, MaxActiveSweeps: 1})

	if resp := postSweep(t, ts, oneCellSpec); resp.StatusCode != http.StatusAccepted {
		t.Fatalf("first submit status = %d", resp.StatusCode)
	}
	resp := postSweep(t, ts, oneCellSpec)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("over-limit submit status = %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("429 without Retry-After")
	}

	release <- struct{}{} // let the first sweep finish
	waitSweepFinished(t, ts, "sweep-1")
	// Same cell: the resubmission is a store hit, no gate needed.
	if resp := postSweep(t, ts, oneCellSpec); resp.StatusCode != http.StatusAccepted {
		t.Fatalf("post-finish submit status = %d", resp.StatusCode)
	}
	waitSweepFinished(t, ts, "sweep-2")
}

// TestCloseDrains pins graceful shutdown: during Close, new submissions
// get 503 while the in-flight sweep runs to completion.
func TestCloseDrains(t *testing.T) {
	ts, srv, release := newGatedServer(t, Config{SweepWorkers: 1})

	if resp := postSweep(t, ts, oneCellSpec); resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit status = %d", resp.StatusCode)
	}
	closed := make(chan struct{})
	go func() { srv.Close(); close(closed) }()

	// Wait until the server reports draining, then verify submissions are
	// refused while the in-flight sweep is still incomplete.
	deadline := time.Now().Add(10 * time.Second)
	for {
		_, body := get(t, ts.URL+"/healthz")
		var h struct {
			Draining bool `json:"draining"`
		}
		if json.Unmarshal(body, &h) == nil && h.Draining {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("server never reported draining")
		}
		time.Sleep(2 * time.Millisecond)
	}
	if resp := postSweep(t, ts, oneCellSpec); resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("submit while draining = %d, want 503", resp.StatusCode)
	}

	release <- struct{}{}
	select {
	case <-closed:
	case <-time.After(10 * time.Second):
		t.Fatal("Close did not return after drain")
	}
	if p := waitSweepFinished(t, ts, "sweep-1"); p.Done != 1 || p.Failed != 0 {
		t.Errorf("drained sweep progress = %+v", p)
	}
}

// TestCloseDeadlineSkipsPending: when the drain deadline passes, Close
// cancels the local slots — the in-flight cell still finishes, every
// cell still pending is marked skipped, and the sweep finishes.
func TestCloseDeadlineSkipsPending(t *testing.T) {
	ts, srv, release := newGatedServer(t, Config{SweepWorkers: 1, DrainTimeout: 20 * time.Millisecond})
	spec := `{"ids":["fig5"],"grid":{"seeds":[1,2,3]},"fast":true,
	          "base":{"Shots":16,"Instances":2,"MaxDepth":2,"Fast":true}}`
	if resp := postSweep(t, ts, spec); resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit status = %d", resp.StatusCode)
	}
	srv.Close() // the first cell is gated, so the deadline passes
	release <- struct{}{}
	p := waitSweepFinished(t, ts, "sweep-1")
	if p.Computed != 1 || p.Skipped != 2 || p.Failed != 0 {
		t.Errorf("progress after the drain deadline = %+v, want 1 computed + 2 skipped", p)
	}
}

// TestIdleServerMakesNoClaims: the server's local slots wait on the
// coordinator's work signal, so an idle server records no claims across
// several poll intervals, and a one-cell sweep costs one claim.
func TestIdleServerMakesNoClaims(t *testing.T) {
	ts, srv := newTestServerWith(t, nil, Config{SweepWorkers: 4})
	time.Sleep(3 * fabric.DefaultPoll)
	if st := srv.coord.Stats(); st.Claims != 0 {
		t.Fatalf("idle server made %d claims", st.Claims)
	}
	postSweep(t, ts, oneCellSpec)
	waitSweepFinished(t, ts, "sweep-1")
	if st := srv.coord.Stats(); st.Claims != 1 || st.Completes != 1 {
		t.Errorf("stats after a one-cell sweep = %+v, want 1 claim", st)
	}
}

// TestSweepListEndpoint pins GET /sweeps: every retained sweep in
// submission order with its live progress.
func TestSweepListEndpoint(t *testing.T) {
	ts := newTestServer(t, nil)
	for i := 0; i < 2; i++ {
		if resp := postSweep(t, ts, oneCellSpec); resp.StatusCode != http.StatusAccepted {
			t.Fatalf("submit %d status = %d", i, resp.StatusCode)
		}
	}
	waitSweepFinished(t, ts, "sweep-2")
	_, body := get(t, ts.URL+"/sweeps")
	var list []struct {
		ID        string         `json:"id"`
		Submitted time.Time      `json:"submitted"`
		Progress  sweep.Progress `json:"progress"`
	}
	if err := json.Unmarshal(body, &list); err != nil {
		t.Fatalf("list: %v: %s", err, body)
	}
	if len(list) != 2 || list[0].ID != "sweep-1" || list[1].ID != "sweep-2" {
		t.Fatalf("list = %+v", list)
	}
	for _, e := range list {
		if e.Progress.Total != 1 || e.Submitted.IsZero() {
			t.Errorf("entry = %+v", e)
		}
	}
}

// TestSweepHistoryTTLRetention pins the satellite fix: with a live TTL,
// a finished sweep stays queryable past the history cap — clients that
// just submitted can still read the status URL they were handed.
func TestSweepHistoryTTLRetention(t *testing.T) {
	ts, _ := newTestServerWith(t, nil, Config{SweepWorkers: 2, HistoryTTL: time.Hour, MaxActiveSweeps: -1})
	submit := func() {
		if resp := postSweep(t, ts, oneCellSpec); resp.StatusCode != http.StatusAccepted {
			t.Fatalf("submit status = %d", resp.StatusCode)
		}
	}
	submit()
	waitSweepFinished(t, ts, "sweep-1")
	for i := 0; i < maxSweepHistory+10; i++ {
		submit()
	}
	if resp, _ := get(t, ts.URL+"/sweeps/sweep-1"); resp.StatusCode != http.StatusOK {
		t.Errorf("finished sweep pruned inside its TTL: %d", resp.StatusCode)
	}
}

// TestHealthzCounters pins the observability satellite: per-endpoint
// request counters, store stats (with backend and put counters), and
// sweep retention counts on /healthz.
func TestHealthzCounters(t *testing.T) {
	ts := newTestServer(t, nil)
	get(t, ts.URL+"/experiments")
	get(t, ts.URL+"/experiments")
	postSweep(t, ts, oneCellSpec)
	waitSweepFinished(t, ts, "sweep-1")

	_, body := get(t, ts.URL+"/healthz")
	var h struct {
		OK       bool              `json:"ok"`
		Draining bool              `json:"draining"`
		Store    store.Stats       `json:"store"`
		Requests map[string]uint64 `json:"requests"`
		Sweeps   struct {
			Active   int `json:"active"`
			Retained int `json:"retained"`
		} `json:"sweeps"`
	}
	if err := json.Unmarshal(body, &h); err != nil || !h.OK || h.Draining {
		t.Fatalf("health = %s (%v)", body, err)
	}
	if h.Requests["experiments"] != 2 {
		t.Errorf("experiments counter = %d", h.Requests["experiments"])
	}
	if h.Requests["sweeps.submit"] != 1 || h.Requests["sweeps.status"] == 0 {
		t.Errorf("sweep counters = %v", h.Requests)
	}
	if h.Store.Backend != "none" || h.Store.Puts != 1 {
		t.Errorf("store stats = %+v", h.Store)
	}
	if h.Sweeps.Active != 0 || h.Sweeps.Retained != 1 {
		t.Errorf("sweep counts = %+v", h.Sweeps)
	}
}

// TestServeWithCoordinator is the serve-layer integration of the fabric:
// a server with an attached coordinator routes sweep submissions to the
// worker fleet, streams their progress over SSE, and reports fleet stats
// on /healthz — while figure requests answer from the same shared store
// the workers write through.
func TestServeWithCoordinator(t *testing.T) {
	st, err := store.Open("", 64)
	if err != nil {
		t.Fatal(err)
	}
	coord := fabric.NewCoordinator(st, fabric.Options{LeaseTTL: 2 * time.Second})
	defer coord.Close()
	srv := NewWith(Config{Cache: sweep.NewCache(st), Coordinator: coord})
	ts := httptest.NewServer(srv.Handler())
	defer func() { ts.Close(); srv.Close() }()

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	for i := 0; i < 2; i++ {
		w := fabric.NewWorker(ts.URL, 16)
		w.ID = fmt.Sprintf("w%d", i)
		w.Poll = 20 * time.Millisecond
		go w.Run(ctx)
	}

	spec := `{"ids":["fig5","table1"],"grid":{"seeds":[1,2]},"fast":true,
	          "base":{"Shots":16,"Instances":2,"MaxDepth":2,"Fast":true}}`
	resp := postSweep(t, ts, spec)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit status = %d", resp.StatusCode)
	}
	p := waitSweepFinished(t, ts, "sweep-1")
	if p.Done != 4 || p.Failed != 0 {
		t.Fatalf("distributed progress = %+v", p)
	}

	// The workers wrote through the shared store: the server's own figure
	// path is now a pure hit.
	resp, _ = get(t, ts.URL+"/figures/fig5?fast=1&shots=16&instances=2&maxdepth=2&seed=1")
	if h := resp.Header.Get("X-Casq-Cache"); h != "hit" {
		t.Errorf("post-sweep figure request = %q, want hit", h)
	}

	_, body := get(t, ts.URL+"/healthz")
	var h struct {
		Fabric *fabric.Stats `json:"fabric"`
	}
	if err := json.Unmarshal(body, &h); err != nil || h.Fabric == nil {
		t.Fatalf("healthz fabric stats = %s (%v)", body, err)
	}
	if h.Fabric.Completes != 4 || h.Fabric.Workers == 0 {
		t.Errorf("fabric stats = %+v", h.Fabric)
	}
}
