package main

import (
	"math/rand"
	"runtime"
	"time"

	"casq/internal/obs"
)

// counter reads one unlabeled counter of the process-wide registry.
func counter(name string) uint64 { return obs.Default().Counter(name, "").Value() }

// counters snapshots the registry counters the benchmark cross-checks.
type counters struct {
	instances, shots, storeHits, storeMisses, claims, expirations uint64
}

func readCounters() counters {
	return counters{
		instances:   counter("casq_exec_instances_total"),
		shots:       counter("casq_exec_shots_total"),
		storeHits:   counter("casq_store_hits_total"),
		storeMisses: counter("casq_store_misses_total"),
		claims:      counter("casq_fabric_claims_total"),
		expirations: counter("casq_fabric_expirations_total"),
	}
}

func (a counters) sub(b counters) counters {
	return counters{
		instances:   a.instances - b.instances,
		shots:       a.shots - b.shots,
		storeHits:   a.storeHits - b.storeHits,
		storeMisses: a.storeMisses - b.storeMisses,
		claims:      a.claims - b.claims,
		expirations: a.expirations - b.expirations,
	}
}

// totalAlloc is the process's cumulative heap allocation in bytes.
func totalAlloc() uint64 {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.TotalAlloc
}

// mbPerOp converts an allocation delta to MB per operation.
func mbPerOp(bytes uint64, ops int) float64 {
	if ops == 0 {
		return 0
	}
	return float64(bytes) / 1e6 / float64(ops)
}

// seeds generates a workload's inputs from the run's seed.
type seeds struct{ rng *rand.Rand }

func newSeeds(seed int64) seeds { return seeds{rand.New(rand.NewSource(seed))} }

// next returns a fresh 31-bit seed.
func (s seeds) next() int64 { return s.rng.Int63n(1 << 31) }

// setupMedian runs set-up n times and returns the median wall time in
// seconds. setup builds one environment; every environment but the last is
// closed right away, and the last is returned for the measured phase.
func setupMedian[E interface{ close() }](n int, setup func() (E, error)) (E, float64, error) {
	var (
		env   E
		times []float64
	)
	for i := 0; i < max(n, 1); i++ {
		if i > 0 {
			env.close()
		}
		t := time.Now()
		e, err := setup()
		if err != nil {
			return env, 0, err
		}
		times = append(times, time.Since(t).Seconds())
		env = e
	}
	return env, median(times), nil
}

// keepGoing reports whether a measured loop that started at start and has
// completed done operations should run another one.
func (c runConfig) keepGoing(start time.Time, done int) bool {
	return done < c.minOps || time.Since(start) < c.seconds
}
