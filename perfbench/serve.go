package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"os"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"casq/internal/circuit"
	"casq/internal/core"
	"casq/internal/device"
	"casq/internal/exec"
	"casq/internal/experiments"
	"casq/internal/layout"
	"casq/internal/models"
	"casq/internal/pass"
	"casq/internal/serve"
	"casq/internal/sim"
	"casq/internal/store"
	"casq/internal/sweep"
)

// The serve_figures traffic mix: serveClients closed-loop clients send
// GET /figures/fig6?fast=1&backend=heavyhex127&seed=…; one request in
// coldEvery carries a fresh seed (cold: layout search, statevector
// simulation, store write), the rest pick a seed of the pre-warmed hot set
// (warm: a read of the store's memory tier plus HTTP). coldEvery gives
// cold requests about a quarter of the clients' time on the reference
// machine, enough for some 200 cold samples in a 20 s run; the hot set is
// small enough to warm in a quarter second and far below the memory tier's
// 256 entries. WORKLOADS.md shows the measurements behind both.
const (
	serveBackend = "heavyhex127"
	serveClients = 2
	hotSetSize   = 8
	coldEvery    = 1435
)

// freshSeedBase starts a run's fresh (never cached) seeds. Hot-set and
// warm-up seeds are 31-bit, so fresh seeds, at 2^40 and above, never
// collide with them.
func freshSeedBase(in seeds) int64 { return 1<<40 + in.next()<<16 }

// serveOptions are the options the server derives from a fast fig6 request
// on the serve backend.
func serveOptions(seed int64) experiments.Options {
	o := experiments.FastOptions()
	o.Seed = seed
	o.Backend = serveBackend
	return o
}

func figureURL(base string, seed int64) string {
	return fmt.Sprintf("%s/figures/fig6?fast=1&backend=%s&seed=%d", base, serveBackend, seed)
}

// newClient returns an HTTP client holding at most conns connections.
func newClient(conns int) *http.Client {
	return &http.Client{
		Transport: &http.Transport{MaxConnsPerHost: conns, MaxIdleConnsPerHost: conns},
		Timeout:   2 * time.Minute,
	}
}

// listen serves h on a loopback port and returns its base URL, the server,
// and a channel closed once Serve has returned.
func listen(h http.Handler) (string, *http.Server, chan struct{}, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", nil, nil, err
	}
	hs := &http.Server{Handler: h}
	done := make(chan struct{})
	go func() {
		defer close(done)
		if err := hs.Serve(ln); err != nil && !errors.Is(err, http.ErrServerClosed) {
			fmt.Fprintln(os.Stderr, "perfbench: serve:", err)
		}
	}()
	return "http://" + ln.Addr().String(), hs, done, nil
}

// shutdown stops hs and waits for its Serve loop to return.
func shutdown(hs *http.Server, done chan struct{}) {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := hs.Shutdown(ctx); err != nil {
		hs.Close()
	}
	<-done
}

type response struct {
	status int
	cache  string
	body   []byte
	dur    time.Duration
}

func get(client *http.Client, url string) (response, error) {
	t := time.Now()
	resp, err := client.Get(url)
	if err != nil {
		return response{}, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return response{}, err
	}
	return response{status: resp.StatusCode, cache: resp.Header.Get("X-Casq-Cache"), body: body, dur: time.Since(t)}, nil
}

// expect checks a figure response's status and cache header, and — when
// want is non-nil — that its body is byte-identical to want.
func expect(r response, err error, cache string, want []byte) string {
	switch {
	case err != nil:
		return err.Error()
	case r.status != http.StatusOK:
		return fmt.Sprintf("status %d: %s", r.status, bytes.TrimSpace(r.body))
	case r.cache != cache:
		return fmt.Sprintf("X-Casq-Cache %q, want %q", r.cache, cache)
	case want != nil && !bytes.Equal(r.body, want):
		return "body differs from the cold response of the same seed"
	}
	return ""
}

// serveEnv is an in-process server over a disk-backed store in its own
// temporary directory, behind a loopback listener.
type serveEnv struct {
	dir     string
	srv     *serve.Server
	hs      *http.Server
	done    chan struct{}
	base    string
	client  *http.Client
	hot     []int64
	hotBody map[int64][]byte
}

func (e *serveEnv) close() {
	shutdown(e.hs, e.done)
	e.srv.Close()
	e.client.CloseIdleConnections()
	os.RemoveAll(e.dir)
}

// setupServe opens the store, starts the server, and warms the hot set
// with one cold request per hot seed.
func setupServe(cfg runConfig, hot []int64) func() (*serveEnv, error) {
	return func() (*serveEnv, error) {
		dir, err := os.MkdirTemp(cfg.tmp, "perfbench-serve-*")
		if err != nil {
			return nil, err
		}
		st, err := store.Open(dir, 0)
		if err != nil {
			os.RemoveAll(dir)
			return nil, err
		}
		srv := serve.NewWith(serve.Config{Cache: sweep.NewCache(st)})
		base, hs, done, err := listen(srv.Handler())
		if err != nil {
			srv.Close()
			os.RemoveAll(dir)
			return nil, err
		}
		env := &serveEnv{dir: dir, srv: srv, hs: hs, done: done, base: base,
			client: newClient(serveClients), hot: hot, hotBody: map[int64][]byte{}}
		for _, s := range hot {
			r, err := get(env.client, figureURL(base, s))
			if msg := expect(r, err, "miss", nil); msg != "" {
				env.close()
				return nil, fmt.Errorf("warming seed %d: %s", s, msg)
			}
			env.hotBody[s] = r.body
		}
		return env, nil
	}
}

func hotSeeds(in seeds) []int64 {
	hot := make([]int64, hotSetSize)
	for i := range hot {
		hot[i] = in.next()
	}
	return hot
}

// clientLog is what one closed-loop client observed.
type clientLog struct {
	warm, cold []float64 // latencies, ms
	coldBody   map[int64][32]byte
	attempted  int
	failed     int
	failures   []string // the first few
}

func runServe(cfg runConfig) (*result, error) {
	in := newSeeds(cfg.seed)
	hot := hotSeeds(in)
	fresh := freshSeedBase(in)
	env, setupS, err := setupMedian(cfg.setups, setupServe(cfg, hot))
	if err != nil {
		return nil, fmt.Errorf("serve set-up: %w", err)
	}
	defer env.close()

	var coldSeq atomic.Int64
	logs := make([]clientLog, serveClients)
	var wg sync.WaitGroup
	a0 := totalAlloc()
	start := time.Now()
	for c := range logs {
		wg.Add(1)
		go func(l *clientLog, rng *rand.Rand) {
			defer wg.Done()
			l.coldBody = map[int64][32]byte{}
			for i := 0; cfg.keepGoing(start, i); i++ {
				cold := i%coldEvery == coldEvery-1
				seed := hot[rng.Intn(len(hot))]
				var want []byte
				if cold {
					seed = fresh + coldSeq.Add(1)
				} else {
					want = env.hotBody[seed]
				}
				r, err := get(env.client, figureURL(env.base, seed))
				l.attempted++
				cache := "hit"
				if cold {
					cache = "miss"
				}
				if msg := expect(r, err, cache, want); msg != "" {
					l.failed++
					if len(l.failures) < 8 {
						l.failures = append(l.failures, fmt.Sprintf("seed %d: %s", seed, msg))
					}
					continue
				}
				if cold {
					l.cold = append(l.cold, ms(r.dur))
					l.coldBody[seed] = sha256.Sum256(r.body)
				} else {
					l.warm = append(l.warm, ms(r.dur))
				}
			}
		}(&logs[c], rand.New(rand.NewSource(in.next())))
	}
	wg.Wait()
	elapsed := time.Since(start)
	alloc := totalAlloc() - a0

	res := newResult()
	var warm, cold []float64
	coldBody := map[int64][32]byte{}
	for _, l := range logs {
		warm = append(warm, l.warm...)
		cold = append(cold, l.cold...)
		res.attempted += l.attempted
		for _, f := range l.failures {
			res.fail("%s", f)
		}
		res.failed += l.failed - len(l.failures)
		for s, b := range l.coldBody {
			coldBody[s] = b
		}
	}
	requests := res.attempted

	// Every cold seed is now cached: a few of them, re-requested, must be
	// hits with the exact bytes of their cold response.
	checked := 0
	for s, sum := range coldBody {
		if checked == 4 {
			break
		}
		checked++
		r, err := get(env.client, figureURL(env.base, s))
		msg := expect(r, err, "hit", nil)
		if msg == "" && sha256.Sum256(r.body) != sum {
			msg = "warm body differs from the cold body of the same seed"
		}
		res.check(msg)
	}
	if len(cold) == 0 {
		res.check("no cold request completed")
	}

	warmRPS := float64(len(warm)) / elapsed.Seconds()
	res.metrics["setup_s"] = setupS
	res.metrics["latency_ms_p50"] = median(cold)
	res.metrics["throughput_per_s"] = warmRPS
	res.metrics["alloc_mb_per_op"] = mbPerOp(alloc, requests)
	res.line("setup_s", setupS, "s", fmt.Sprintf("median of %d, hot set of %d", cfg.setups, hotSetSize))
	res.line("cold_ms_p50", median(cold), "ms", fmt.Sprintf("n=%d", len(cold)))
	res.tailLine("cold_ms_tail", cold)
	res.line("warm_ms_p50", median(warm), "ms", fmt.Sprintf("n=%d", len(warm)))
	res.tailLine("warm_ms_tail", warm)
	res.line("warm_rps", warmRPS, "1/s", "")
	res.line("alloc_mb_per_op", res.metrics["alloc_mb_per_op"], "MB", "TotalAlloc per request")
	res.errorRateLine()
	return res, nil
}

// traceServe runs, per iteration, one cold request and coldEvery-1 warm
// ones over HTTP (untraced, counted on the registry), then replays the same
// cold cell directly: sweep.Cache.Figure miss and hit, a store Put of the
// figure bytes and a Get of them through a fresh store over the same
// directory (so it reads the disk tier), and the fig6 harness step by step.
func traceServe(cfg runConfig) (*result, error) {
	in := newSeeds(cfg.seed)
	hot := hotSeeds(in)
	fresh := freshSeedBase(in)
	env, _, err := setupMedian(1, setupServe(cfg, hot))
	if err != nil {
		return nil, fmt.Errorf("serve set-up: %w", err)
	}
	defer env.close()
	dir, err := os.MkdirTemp(cfg.tmp, "perfbench-store-*")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	direct, err := store.Open(dir, 0)
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(in.next()))

	res := newResult()
	var iters []map[string]float64
	start := time.Now()
	for i := 0; cfg.keepGoing(start, i); i++ {
		seed := fresh + int64(i)
		res.attempted++
		m, err := traceServeCell(env, dir, direct, rng, seed)
		if err != nil {
			res.fail("seed %d: %v", seed, err)
			continue
		}
		iters = append(iters, m)
	}
	res.reportLayers(iters)
	return res, nil
}

func traceServeCell(env *serveEnv, dir string, direct *store.Store, rng *rand.Rand, seed int64) (map[string]float64, error) {
	url := figureURL(env.base, seed)
	c0 := readCounters()
	cold, err := get(env.client, url)
	if msg := expect(cold, err, "miss", nil); msg != "" {
		return nil, fmt.Errorf("cold request: %s", msg)
	}
	execDelta := readCounters().sub(c0)
	var warm []float64
	for j := 0; j < coldEvery-1; j++ {
		s := env.hot[rng.Intn(len(env.hot))]
		r, err := get(env.client, figureURL(env.base, s))
		if msg := expect(r, err, "hit", env.hotBody[s]); msg != "" {
			return nil, fmt.Errorf("warm request: %s", msg)
		}
		warm = append(warm, ms(r.dur))
	}
	again, err := get(env.client, url)
	if msg := expect(again, err, "hit", cold.body); msg != "" {
		return nil, fmt.Errorf("repeated request: %s", msg)
	}
	storeDelta := readCounters().sub(c0)

	cell := sweep.Cell{ID: "fig6", Opts: serveOptions(seed)}
	key, err := cell.Key()
	if err != nil {
		return nil, err
	}
	rec := newRecorder()
	root := rec.start("cell", -1)
	local := sweep.NewCache(store.OpenWith(nil, 0))
	var (
		data, got []byte
		hit, ok   bool
	)
	miss := rec.timed(spanCacheMiss, root, func() { data, hit, err = local.Figure(cell) })
	if err == nil && (hit || !bytes.Equal(data, cold.body)) {
		err = errors.New("direct Cache.Figure miss differs from the served cold body")
	}
	if err != nil {
		return nil, err
	}
	hitDur := rec.timed(spanCacheHit, root, func() { _, hit, err = local.Figure(cell) })
	if err == nil && !hit {
		err = errors.New("direct Cache.Figure repeat was not a hit")
	}
	if err != nil {
		return nil, err
	}
	put := rec.timed(spanStorePut, root, func() { err = direct.Put(key, data) })
	if err != nil {
		return nil, err
	}
	reopened, err := store.Open(dir, 0) // empty memory tier: Get reads the disk
	if err != nil {
		return nil, err
	}
	getDur := rec.timed(spanStoreGet, root, func() { got, ok, err = reopened.Get(key) })
	if err == nil && (!ok || !bytes.Equal(got, data)) {
		err = errors.New("store Get did not return the bytes Put stored")
	}
	if err != nil {
		return nil, err
	}

	var fig experiments.Figure
	if err := json.Unmarshal(cold.body, &fig); err != nil {
		return nil, err
	}
	figID := rec.start("figure", root)
	rp := newReplay(rec, figID)
	err = replayFig6(rp, cell.Opts, fig)
	rec.end(figID)
	rec.end(root)
	if err == nil {
		err = rp.crossCheck(execDelta, false)
	}
	if err != nil {
		return nil, err
	}

	spans := rec.snapshot()
	m := rp.layerValues(spans, miss, figurePath(spans, figID))
	m["sweep.cache_miss_ms"] = ms(miss)
	m["sweep.cache_hit_us"] = float64(hitDur) / float64(time.Microsecond)
	m["store.put_ms"] = ms(put)
	m["store.get_us"] = float64(getDur) / float64(time.Microsecond)
	if n := storeDelta.storeHits + storeDelta.storeMisses; n > 0 {
		m["store.hit_ratio"] = float64(storeDelta.storeHits) / float64(n)
	}
	m["serve.http_overhead_ms"] = median(warm) - ms(hitDur)
	return m, nil
}

// replayFig6 re-drives the fig6 harness on a registry backend: layout
// search for the probe circuit, the routed Ising circuits, the ideal
// reference, and one executor job per strategy and depth. Every series
// must equal the served figure's exactly.
func replayFig6(rp *replay, opts experiments.Options, fig experiments.Figure) error {
	rec := rp.rec
	sp, _ := experiments.Lookup("fig6")
	depths := sp.Depths(opts)
	const n = 6
	baseObs := []sim.ObsSpec{{0: 'X', 5: 'X'}}
	var (
		big   *device.Device
		probe *circuit.Circuit
		pl    *layout.Placement
		rep   *layout.SearchReport
		err   error
	)
	rec.timed("device.build", rp.root, func() { big, err = device.NewBackend(opts.Backend) })
	if err != nil {
		return err
	}
	rec.timed(spanBuild, rp.root, func() { probe = models.BuildFloquetIsing(n, depths[len(depths)-1]) })
	rec.timed(spanLayout, rp.root, func() { pl, rep, err = layout.ChooseWith(big, probe, layout.DefaultOptions()) })
	if err != nil {
		return err
	}
	rp.layoutScored += rep.ExactScored
	rp.layoutPruning = rep.PruneRatio
	dev := pl.Sub

	build := func(d int) (*circuit.Circuit, []sim.ObsSpec, error) {
		var (
			c     *circuit.Circuit
			final []int
			err   error
		)
		rec.timed(spanBuild, rp.root, func() { c, final, _, err = pl.MapCircuit(models.BuildFloquetIsing(n, d)) })
		if err != nil {
			return nil, nil, err
		}
		rp.countInstructions(c)
		obs := make([]sim.ObsSpec, len(baseObs))
		for i, o := range baseObs {
			m := sim.ObsSpec{}
			for q, p := range o {
				m[final[pl.ToSub[q]]] = p
			}
			obs[i] = m
		}
		return c, obs, nil
	}

	series := map[string][]float64{}
	for _, d := range depths {
		c, obs, err := build(d)
		if err != nil {
			return err
		}
		var vals []float64
		rec.timed(spanSim, rp.root, func() { vals, err = core.IdealExpectations(dev, c, obs) })
		if err != nil {
			return err
		}
		series["ideal"] = append(series["ideal"], vals[0])
	}
	for _, pipe := range []pass.Pipeline{pass.Twirled(), pass.CAEC(), pass.CADD()} {
		for _, d := range depths {
			c, obs, err := build(d)
			if err != nil {
				return err
			}
			cfg := sim.DefaultConfig()
			cfg.Shots = opts.Shots
			cfg.Seed = opts.Seed + int64(d)*17
			cfg.EnableReadoutErr = false
			res, err := rp.runJob(dev, pipe, exec.Job{Circuit: c, Observables: obs, Opts: exec.RunOptions{
				Instances: opts.Instances, Workers: opts.Workers, Seed: opts.Seed + int64(d), Cfg: cfg, Engine: opts.Engine,
			}}, exec.EngineStatevector)
			if err != nil {
				return fmt.Errorf("%s: %w", pipe.Name, err)
			}
			series[pipe.Name] = append(series[pipe.Name], res.ExpVals[0])
		}
	}
	if len(fig.Series) != len(series) {
		return fmt.Errorf("figure has %d series, replay %d", len(fig.Series), len(series))
	}
	for _, s := range fig.Series {
		if !slices.Equal(s.Y, series[s.Label]) {
			return fmt.Errorf("replayed %s series differs from the figure's", s.Label)
		}
	}
	return nil
}
