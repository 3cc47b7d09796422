package toggling

import (
	"math"
	"sort"
	"testing"

	"casq/internal/circuit"
	"casq/internal/device"
	"casq/internal/gates"
)

// scheduleFixture builds a small scheduled workload with every feature the
// scorer must model: ECR internal echoes and rotary targets, DD and twirl
// pulses, an RZZ frame-restoring echo, bare idles, and a measure layer.
func scheduleFixture(t *testing.T) (*device.Device, *circuit.Circuit) {
	t.Helper()
	opts := device.DefaultOptions()
	opts.Seed = 21
	dev := device.NewLine("score6", 6, opts)
	c := circuit.New(6, 1)
	l0 := c.AddLayer(circuit.OneQubitLayer)
	l0.H(0)
	l0.SX(3)
	l0.Duration = dev.Dur1Q
	l1 := c.AddLayer(circuit.TwoQubitLayer)
	l1.ECR(0, 1)
	l1.ECR(4, 5)
	l1.Duration = dev.DurECR
	l2 := c.AddLayer(circuit.TwoQubitLayer)
	l2.RZZ(2, 3, 0.3)
	l2.Duration = dev.DurECR
	l3 := c.AddLayer(circuit.OneQubitLayer)
	l3.Add(circuit.Instruction{Gate: gates.Delay, Qubits: []int{0}, Params: []float64{800}})
	l3.Add(circuit.Instruction{Gate: gates.XDD, Qubits: []int{1}, Time: 200, Tag: "dd"})
	l3.Add(circuit.Instruction{Gate: gates.XDD, Qubits: []int{1}, Time: 600, Tag: "dd"})
	l3.Add(circuit.Instruction{Gate: gates.XGate, Qubits: []int{2}, Time: 400, Tag: "twirl"})
	l3.Duration = 800
	l4 := c.AddLayer(circuit.MeasureLayer)
	l4.Measure(0, 0)
	l4.Duration = dev.DurMeas
	return dev, c
}

// referenceScore is the pre-scorer exact score: BuildLayerModel + Integrate
// per layer, magnitudes summed in sorted key order — the map-based path the
// compensation passes still use.
func referenceScore(dev *device.Device, c *circuit.Circuit) float64 {
	tot := 0.0
	for i := range c.Layers {
		m := BuildLayerModel(&c.Layers[i], dev)
		r := Integrate(m, dev, true)
		qs := make([]int, 0, len(r.PhiZ))
		for q := range r.PhiZ {
			qs = append(qs, q)
		}
		sort.Ints(qs)
		for _, q := range qs {
			tot += math.Abs(r.PhiZ[q])
		}
		es := make([]device.Edge, 0, len(r.PhiZZ))
		for e := range r.PhiZZ {
			es = append(es, e)
		}
		sort.Slice(es, func(i, j int) bool {
			if es[i].A != es[j].A {
				return es[i].A < es[j].A
			}
			return es[i].B < es[j].B
		})
		for _, e := range es {
			tot += math.Abs(r.PhiZZ[e])
		}
	}
	return tot
}

// TestScorerMatchesIntegrate pins the scorer against the map-based
// Integrate path on the full fixture: identical angles, only the float
// summation order may differ (tolerance scales with the total).
func TestScorerMatchesIntegrate(t *testing.T) {
	dev, c := scheduleFixture(t)
	want := referenceScore(dev, c)
	s := NewScorer(dev)
	got := s.ScoreCircuit(c)
	if want == 0 {
		t.Fatal("fixture produces a zero score; broken fixture")
	}
	if rel := math.Abs(got-want) / want; rel > 1e-12 {
		t.Fatalf("scorer %.15g vs integrate %.15g (rel %.2g)", got, want, rel)
	}
}

// TestScorerRepeatBitIdentical pins that repeated scoring through the same
// scratch is bit-identical — the layout argmin depends on it.
func TestScorerRepeatBitIdentical(t *testing.T) {
	dev, c := scheduleFixture(t)
	s := NewScorer(dev)
	first := s.ScoreCircuit(c)
	for i := 0; i < 10; i++ {
		if got := s.ScoreCircuit(c); got != first {
			t.Fatalf("iteration %d: %v != %v", i, got, first)
		}
	}
	if fresh := NewScorer(dev).ScoreCircuit(c); fresh != first {
		t.Fatalf("fresh scorer %v != reused %v", fresh, first)
	}
}

// TestScorerZeroAlloc pins the scoring inner loop at zero steady-state
// allocations: Choose exact-scores dozens of candidates per call on a
// worker pool and the per-layer map churn was the compile-time hot path.
func TestScorerZeroAlloc(t *testing.T) {
	dev, c := scheduleFixture(t)
	s := NewScorer(dev)
	s.ScoreCircuit(c) // warm the scratch buffers
	avg := testing.AllocsPerRun(100, func() {
		s.ScoreCircuit(c)
	})
	if avg != 0 {
		t.Fatalf("scoring inner loop allocates %.1f times per circuit, want 0", avg)
	}
}

// TestScorerZeroDurationLayer pins the Duration<=0 guard of Integrate.
func TestScorerZeroDurationLayer(t *testing.T) {
	dev, _ := scheduleFixture(t)
	c := circuit.New(6, 0)
	l := c.AddLayer(circuit.TwoQubitLayer)
	l.ECR(0, 1) // never scheduled: Duration stays 0
	if got := NewScorer(dev).ScoreCircuit(c); got != 0 {
		t.Fatalf("unscheduled layer scored %v, want 0", got)
	}
}

// TestIntegratorMatchesIntegrateFiltered pins the slice integrator to the
// map-based reference bit for bit, layer by layer, with and without Stark
// terms and with an edge filter: every angle IntegrateFiltered keeps
// appears with identical bits, and every other entry is below Floor.
func TestIntegratorMatchesIntegrateFiltered(t *testing.T) {
	dev, c := scheduleFixture(t)
	collapsed := make([]bool, dev.NQubits)
	collapsed[4] = true
	it := NewIntegrator(dev, dev.NQubits)
	for _, stark := range []bool{true, false} {
		for _, filter := range [][]bool{nil, collapsed} {
			var skip func(device.Edge) bool
			if filter != nil {
				skip = func(e device.Edge) bool { return filter[e.A] || filter[e.B] }
			}
			for li := range c.Layers {
				l := &c.Layers[li]
				want := IntegrateFiltered(BuildLayerModel(l, dev), dev, stark, skip)
				it.Layer(l, stark, filter)
				for q, v := range it.PhiZ {
					w, ok := want.PhiZ[q]
					if ok != (math.Abs(v) >= Floor) || (ok && math.Float64bits(v) != math.Float64bits(w)) {
						t.Errorf("stark=%v filter=%v layer %d: phiZ[%d] = %v, IntegrateFiltered %v (present %v)", stark, filter != nil, li, q, v, w, ok)
					}
				}
				for i, v := range it.PhiZZ {
					w, ok := want.PhiZZ[it.Edges[i]]
					if ok != (math.Abs(v) >= Floor) || (ok && math.Float64bits(v) != math.Float64bits(w)) {
						t.Errorf("stark=%v filter=%v layer %d: phiZZ%v = %v, IntegrateFiltered %v (present %v)", stark, filter != nil, li, it.Edges[i], v, w, ok)
					}
				}
				if len(want.PhiZZ) > 0 && len(it.Edges) == 0 {
					t.Fatal("integrator lost the crosstalk edges")
				}
			}
		}
	}
}
