package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"net/http"
	"sync"
	"time"

	"casq/internal/experiments"
	"casq/internal/fabric"
	"casq/internal/store"
	"casq/internal/sweep"
)

// The fabric_sweep workload: a coordinator on a loopback listener and
// fabricWorkers in-process workers with one slot each, polling for work
// every fabricPoll when idle and sharing the coordinator's store over the
// HTTP backend. Each sweep holds the fast cells of fabricIDs at
// seedsPerSweep fresh seeds, so no cell is a cache hit.
const (
	fabricWorkers = 2
	fabricPoll    = 10 * time.Millisecond
	seedsPerSweep = 4
)

var fabricIDs = []string{"fig6", "fig9", "table1"}

// fabricSpec is one sweep: every fabric id at each seed, fast options on
// the default devices.
func fabricSpec(seeds ...int64) sweep.Spec {
	return sweep.Spec{IDs: fabricIDs, Grid: sweep.Grid{Seeds: seeds}, Base: experiments.FastOptions(), Fast: true}
}

// freshSpecs hands out sweeps over never-used seeds.
type freshSpecs struct{ next int64 }

func (f *freshSpecs) spec() sweep.Spec {
	seeds := make([]int64, seedsPerSweep)
	for i := range seeds {
		seeds[i] = f.next
		f.next++
	}
	return fabricSpec(seeds...)
}

type fabricEnv struct {
	coord  *fabric.Coordinator
	hs     *http.Server
	done   chan struct{}
	base   string
	client *http.Client
	stop   context.CancelFunc
	wg     sync.WaitGroup
}

func (e *fabricEnv) close() {
	e.stop()
	e.wg.Wait()
	shutdown(e.hs, e.done)
	e.coord.Close()
	e.client.CloseIdleConnections()
}

// setupFabric starts the coordinator over a memory-backed store, starts
// the workers, and runs one warm-up sweep.
func setupFabric(warm seeds) func() (*fabricEnv, error) {
	return func() (*fabricEnv, error) {
		coord := fabric.NewCoordinator(store.OpenWith(store.NewMem(), 0), fabric.Options{})
		base, hs, done, err := listen(coord.Handler())
		if err != nil {
			coord.Close()
			return nil, err
		}
		ctx, stop := context.WithCancel(context.Background())
		env := &fabricEnv{coord: coord, hs: hs, done: done, base: base, client: newClient(1), stop: stop}
		for i := 0; i < fabricWorkers; i++ {
			client := newClient(1)
			w := &fabric.Worker{
				Coordinator: base,
				Cache:       sweep.NewCache(store.OpenWith(store.NewHTTP(base, client), 0)),
				ID:          fmt.Sprintf("perfbench-%d", i),
				Slots:       1,
				Poll:        fabricPoll,
				Client:      client,
			}
			env.wg.Add(1)
			go func() {
				defer env.wg.Done()
				w.Run(ctx)
				client.CloseIdleConnections()
			}()
		}
		if _, _, _, err := env.sweep(fabricSpec(warm.next(), warm.next())); err != nil {
			env.close()
			return nil, fmt.Errorf("warm-up sweep: %w", err)
		}
		return env, nil
	}
}

// sweep submits spec and waits for it to finish. The error reports cells
// that failed or were unexpectedly cache hits.
func (e *fabricEnv) sweep(spec sweep.Spec) (sweep.Progress, []sweep.Cell, time.Duration, error) {
	t := time.Now()
	sw, err := e.coord.Submit(spec)
	if err != nil {
		return sweep.Progress{}, nil, 0, err
	}
	p := sw.Wait()
	d := time.Since(t)
	if p.Computed != p.Total {
		err = fmt.Errorf("%d of %d cells computed (failed %d, cached %d): %s", p.Computed, p.Total, p.Failed, p.Cached, p.Err)
	}
	return p, sw.Cells(), d, err
}

// storedCell reads the bytes the fleet stored for cell through the HTTP
// store backend.
func storedCell(remote store.Backend, cell sweep.Cell) ([]byte, error) {
	key, err := cell.Key()
	if err != nil {
		return nil, err
	}
	stored, ok, err := remote.Load(key)
	if err != nil {
		return nil, err
	}
	if !ok {
		return nil, fmt.Errorf("cell %s seed %d missing from the shared store", cell.ID, cell.Opts.Seed)
	}
	return stored, nil
}

func runFabric(cfg runConfig) (*result, error) {
	in := newSeeds(cfg.seed)
	fresh := &freshSpecs{next: freshSeedBase(in)}
	env, setupS, err := setupMedian(cfg.setups, setupFabric(warmSeeds(cfg.seed)))
	if err != nil {
		return nil, fmt.Errorf("fabric set-up: %w", err)
	}
	defer env.close()

	res := newResult()
	var (
		lat    []float64
		cells  int
		sample sweep.Cell
	)
	pick := int(in.next() % int64(len(fabricIDs)*seedsPerSweep))
	a0 := totalAlloc()
	start := time.Now()
	for i := 0; cfg.keepGoing(start, i); i++ {
		spec := fresh.spec()
		p, cs, d, err := env.sweep(spec)
		res.attempted += max(p.Total, 1)
		cells += p.Computed
		if err != nil {
			res.failed += max(p.Total-p.Computed, 1) - 1
			res.fail("sweep %d: %v", i, err)
			continue
		}
		if i == 0 {
			sample = cs[pick]
		}
		lat = append(lat, ms(d))
	}
	elapsed := time.Since(start)
	alloc := totalAlloc() - a0

	// One sampled cell's stored bytes must equal a direct local compute.
	msg := ""
	if sample.ID == "" {
		msg = "no sweep completed"
	} else if stored, err := storedCell(store.NewHTTP(env.base, env.client), sample); err != nil {
		msg = err.Error()
	} else if local, _, err := sweep.NewCache(store.OpenWith(nil, 0)).Figure(sample); err != nil {
		msg = err.Error()
	} else if !bytes.Equal(stored, local) {
		msg = fmt.Sprintf("cell %s seed %d: stored bytes differ from a local compute", sample.ID, sample.Opts.Seed)
	}
	res.check(msg)

	cellsPerS := float64(cells) / elapsed.Seconds()
	res.metrics["setup_s"] = setupS
	res.metrics["latency_ms_p50"] = median(lat)
	res.metrics["throughput_per_s"] = cellsPerS
	res.metrics["alloc_mb_per_op"] = mbPerOp(alloc, cells)
	res.line("setup_s", setupS, "s", fmt.Sprintf("median of %d", cfg.setups))
	res.line("sweep_ms_p50", median(lat), "ms", fmt.Sprintf("%d cells per sweep, n=%d", len(fabricIDs)*seedsPerSweep, len(lat)))
	res.line("cells_per_s", cellsPerS, "1/s", fmt.Sprintf("%d workers, poll %v", fabricWorkers, fabricPoll))
	res.line("alloc_mb_per_op", res.metrics["alloc_mb_per_op"], "MB", "TotalAlloc per cell")
	res.errorRateLine()
	return res, nil
}

// traceFabric runs, per iteration, one untraced sweep and one sweep inside
// a span, counting claims, lease expiries and executor work on the
// registry; then computes the traced sweep's cells directly (one core
// each, as a busy worker slot gets) and reads each back through the HTTP
// store backend.
func traceFabric(cfg runConfig) (*result, error) {
	in := newSeeds(cfg.seed)
	fresh := &freshSpecs{next: freshSeedBase(in)}
	env, _, err := setupMedian(1, setupFabric(warmSeeds(cfg.seed)))
	if err != nil {
		return nil, fmt.Errorf("fabric set-up: %w", err)
	}
	defer env.close()
	remote := store.NewHTTP(env.base, env.client)

	res := newResult()
	var iters []map[string]float64
	start := time.Now()
	for i := 0; cfg.keepGoing(start, i); i++ {
		res.attempted++
		m, err := traceFabricSweep(env, remote, fresh)
		if err != nil {
			res.fail("sweep %d: %v", i, err)
			continue
		}
		iters = append(iters, m)
	}
	res.reportLayers(iters)
	return res, nil
}

func traceFabricSweep(env *fabricEnv, remote store.Backend, fresh *freshSpecs) (map[string]float64, error) {
	_, _, untraced, err := env.sweep(fresh.spec())
	if err != nil {
		return nil, err
	}
	rec := newRecorder()
	root := rec.start("sweep", -1)
	spec := fresh.spec()
	var cells []sweep.Cell
	c0 := readCounters()
	traced := rec.timed("fabric.sweep", root, func() { _, cells, _, err = env.sweep(spec) })
	fleet := readCounters().sub(c0)
	if err != nil {
		return nil, err
	}

	local := sweep.NewCache(store.OpenWith(nil, 0))
	var compute time.Duration
	c1 := readCounters()
	for _, cell := range cells {
		cell.Opts.Workers = 1
		var data, stored []byte
		compute += rec.timed(spanCacheMiss, root, func() { data, _, err = local.Figure(cell) })
		if err != nil {
			return nil, err
		}
		rec.timed(spanRemoteGet, root, func() { stored, err = storedCell(remote, cell) })
		if err != nil {
			return nil, err
		}
		if !bytes.Equal(data, stored) {
			return nil, fmt.Errorf("cell %s seed %d: stored bytes differ from a local compute", cell.ID, cell.Opts.Seed)
		}
	}
	direct := readCounters().sub(c1)
	rec.end(root)
	if direct.instances != fleet.instances || direct.shots != fleet.shots {
		return nil, errors.New("cross-check: direct compute ran other executor work than the fleet")
	}

	spans := rec.snapshot()
	sums := spanSums(spans)
	m := (&replay{}).layerValues(spans, untraced, traced)
	n := float64(len(cells))
	m["sweep.cache_miss_ms"] = ms(compute) / n
	m["fabric.overhead_share"] = 1 - compute.Seconds()/(traced.Seconds()*fabricWorkers)
	m["fabric.claims"] = float64(fleet.claims)
	m["fabric.requeues"] = float64(fleet.expirations)
	m["fabric.remote_get_ms"] = ms(sums[spanRemoteGet]) / n
	return m, nil
}
