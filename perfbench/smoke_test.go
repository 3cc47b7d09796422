package main

import (
	"encoding/json"
	"os"
	"testing"
)

// TestWorkloadsSmoke runs every workload briefly, untraced and traced, and
// requires a correct result carrying every metric of its kind.
func TestWorkloadsSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			run := w.run
			if traced {
				run = w.trace
			}
			cfg := runConfig{seed: 7, seconds: 0, tmp: t.TempDir(), setups: 1, minOps: 1}
			if w.name == "serve_figures" && !traced {
				// A client sends one cold request per coldEvery.
				cfg.minOps = coldEvery
			}
			res, err := run(cfg)
			if err != nil {
				t.Fatalf("%s (traced %v): %v", w.name, traced, err)
			}
			out, err := summary(w.name, traced, res)
			if err != nil {
				t.Fatalf("%s (traced %v): %v", w.name, traced, err)
			}
			if !out.Correct || out.Failed != 0 || out.Attempted < 1 {
				t.Errorf("%s (traced %v): correct=%v attempted=%d failed=%d: %v",
					w.name, traced, out.Correct, out.Attempted, out.Failed, res.failures)
			}
		}
	}
}

// TestBenchmarkJSONMatchesMetrics keeps BENCHMARK.json's metric lists in
// step with what the workloads report.
func TestBenchmarkJSONMatchesMetrics(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bm struct {
		Workloads []struct{ Name string } `json:"workloads"`
		EndToEnd  []metricDef             `json:"end_to_end"`
		PerLayer  []metricDef             `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &bm); err != nil {
		t.Fatal(err)
	}
	same := func(kind string, got, want []metricDef) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, the benchmark reports %d", kind, len(got), len(want))
			return
		}
		for i := range want {
			if got[i] != want[i] {
				t.Errorf("%s[%d]: BENCHMARK.json %+v, benchmark %+v", kind, i, got[i], want[i])
			}
		}
	}
	same("end_to_end", bm.EndToEnd, e2eMetrics)
	same("per_layer", bm.PerLayer, layerMetrics)
	if len(bm.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the benchmark has %d", len(bm.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if bm.Workloads[i].Name != w.name {
			t.Errorf("workload %d: BENCHMARK.json %q, benchmark %q", i, bm.Workloads[i].Name, w.name)
		}
	}
}
