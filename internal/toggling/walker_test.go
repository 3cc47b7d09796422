package toggling

import (
	"math"
	"testing"
)

// TestWalkerMatchesIntegrator walks each layer of the scoring fixture the
// way the engines do — Accumulate between events, Flip at every pulse and
// echo, the gates themselves ideal — and checks that the pending phases at
// the layer's end are the closed-form toggling-frame angles the passes
// compensate (Integrator, with the rotary residual set to its ideal zero).
// The two round differently (piecewise sums at hz*HzToRadPerNs against
// closed-form integrals at 2*pi*hz*1e-9), so they agree to 1e-12 rad, not
// bit for bit.
func TestWalkerMatchesIntegrator(t *testing.T) {
	dev, c := scheduleFixture(t)
	dev.RotaryResidual = 0
	var w Walker
	w.Reset(dev, c)
	it := NewIntegrator(dev, dev.NQubits)
	var lc LayerContext
	flips := 0
	for li := range c.Layers {
		l := &c.Layers[li]
		w.Layer(&lc, l, dev)
		phiZ := make([]float64, dev.NQubits)
		phiZZ := make([]float64, len(w.Edges))
		cur := l.Start
		advance := func(to float64) {
			if dt := to - cur; dt > 0 {
				w.Accumulate(&lc, phiZ, phiZZ, dt, dev.RotaryResidual, true, true)
			}
			cur = to
		}
		for _, ev := range lc.Events {
			if ev.T < cur {
				t.Fatalf("layer %d: event at %v after one at %v", li, ev.T, cur)
			}
			advance(ev.T)
			if ev.Kind == EvPulse || ev.Kind == EvEcho {
				w.Flip(ev.Q0, phiZ, phiZZ)
				flips++
			}
		}
		advance(l.Start + l.Duration)

		it.Layer(l, true, nil)
		for q, v := range phiZ {
			if math.Abs(v-it.PhiZ[q]) > 1e-12 {
				t.Errorf("layer %d: walker phiZ[%d] = %v, Integrator %v", li, q, v, it.PhiZ[q])
			}
		}
		for i, e := range w.Edges {
			want := 0.0
			if j, ok := it.EdgeIndex(e.A, e.B); ok {
				want = it.PhiZZ[j]
			}
			if math.Abs(phiZZ[i]-want) > 1e-12 {
				t.Errorf("layer %d: walker phiZZ%v = %v, Integrator %v", li, e, phiZZ[i], want)
			}
		}
	}
	if flips == 0 {
		t.Fatal("fixture has no pulse or echo events")
	}
}
