// Package stab is the scalable stabilizer/Pauli-frame engine: the
// simulation backend that runs full-device twirled circuits — 127 qubits
// and beyond — in O(shots * gates * n/64) instead of the statevector
// kernel's O(shots * gates * 2^n).
//
// It rests on the physics the paper builds on: after Pauli twirling, the
// coherent crosstalk channels the paper characterizes (always-on ZZ,
// spectator Z, Stark shifts, charge-parity and quasistatic detuning, NNN
// collisions) become stochastic Pauli channels. The engine therefore
// splits a compiled circuit into
//
//   - an ideal Clifford skeleton, simulated exactly: a bit-packed
//     Aaronson-Gottesman tableau produces one reference trajectory, and a
//     per-shot Pauli frame — conjugated through the same
//     pauli.CliffordTable tables the twirl pass uses — tracks each
//     trajectory's deviation from it; and
//   - a noise model derived from the device calibration via the
//     Pauli-twirling approximation (PTA): the compiler runs the
//     statevector kernel's schedule walk (toggling.Walker: the same edge
//     and Stark tables, layer context and events), which integrates every
//     toggling-frame coherent-error angle with sign flips at DD/echo/
//     twirl pulses, and converts the surviving angles into Z and
//     correlated Z(x)Z channel probabilities at the kernel's flush
//     points, alongside twirled amplitude-damping/dephasing (T1/T2),
//     depolarizing gate error, and readout assignment error.
//
// Engine implements sim.Engine; the executor (internal/exec) dispatches
// between the statevector and stabilizer engines per job, automatically
// when a compiled circuit is twirl-representable (Supports) and twirled
// (HasTwirl). Agreement with the statevector kernel on small devices is
// pinned by differential tests in this package.
package stab

import (
	"fmt"
	"math/bits"
	"sort"

	"casq/internal/circuit"
	"casq/internal/device"
	"casq/internal/obs"
	"casq/internal/pauli"
	"casq/internal/sim"
)

// Engine executes twirl-representable circuits on a device under a noise
// config by Pauli-frame sampling. It implements sim.Engine with the same
// Config semantics (Shots, Seed, Workers, channel toggles) as the
// statevector Runner.
type Engine struct {
	Dev *device.Device
	Cfg sim.Config

	// Scalar forces the retained scalar-per-shot reference path (frame.go)
	// instead of the default bit-plane batched path (block.go), which
	// advances 64 shots per word op. The two are differentially pinned
	// against each other in this package's tests; production callers leave
	// Scalar false.
	Scalar bool
}

// New returns a stabilizer engine.
func New(dev *device.Device, cfg sim.Config) *Engine {
	return &Engine{Dev: dev, Cfg: cfg}
}

// Engine implements sim.Engine.
var _ sim.Engine = (*Engine)(nil)

// span opens an engine-level span on the configured tracer (no-op Span
// when tracing is disabled). A helper rather than inline calls because
// Expectations takes a parameter named obs, shadowing the package name.
func (e *Engine) span(name string) obs.Span {
	if !e.Cfg.Tracer.Enabled() {
		return obs.Span{}
	}
	return e.Cfg.Tracer.Start(name).WithLane(e.Cfg.Lane)
}

// Counts runs the circuit and returns measured bitstring counts
// (classical bit i at string position i), shot-for-shot deterministic in
// Cfg.Seed and independent of the worker count.
func (e *Engine) Counts(c *circuit.Circuit) (sim.Result, error) {
	if e.Scalar {
		sp := e.span("stab.counts.scalar")
		defer sp.End()
		p, err := e.compile(c)
		if err != nil {
			return sim.Result{}, err
		}
		defer p.release()
		shots := e.numShots()
		keys := make([]string, shots)
		e.forEachShot(p, func(i int, f *frame) {
			keys[i] = sim.BitsKey(f.cbits)
		})
		res := sim.Result{Counts: map[string]int{}, Shots: shots}
		for _, k := range keys {
			res.Counts[k]++
		}
		return res, nil
	}
	pb, err := e.CountsPacked(c)
	if err != nil {
		return sim.Result{}, err
	}
	return pb.Counts(), nil
}

// Engine implements sim.PackedSampler.
var _ sim.PackedSampler = (*Engine)(nil)

// CountsPacked runs the circuit through the bit-plane path and returns the
// measured classical bits as shot-packed planes: full 64-shot blocks copy
// their outcome words straight into the planes (one word move per
// classical bit), the scalar remainder tail sets its bits individually.
// Results are deterministic in Cfg.Seed and bit-identical for any worker
// count.
func (e *Engine) CountsPacked(c *circuit.Circuit) (sim.PackedBits, error) {
	sp := e.span("stab.counts")
	defer sp.End()
	p, err := e.compile(c)
	if err != nil {
		return sim.PackedBits{}, err
	}
	defer p.release()
	return e.countsPacked(p), nil
}

// countsPacked samples the compiled program into fresh outcome planes.
func (e *Engine) countsPacked(p *program) sim.PackedBits {
	pb := sim.NewPackedBits(p.ncb, e.numShots())
	e.forEachShotBlock(p,
		func(b, base int, bf *blockFrame) {
			for cb := 0; cb < p.ncb; cb++ {
				pb.Planes[cb][b] = bf.cbits[cb]
			}
		},
		func(i int, f *frame) {
			for cb, v := range f.cbits {
				pb.Set(cb, i, v)
			}
		})
	return pb
}

// obsPlan is one compiled observable: packed X/Z masks (qubit axis, for
// the scalar path), the support qubit lists (for the bit-plane path's
// word-parallel parity), and the reference state's exact expectation
// (+1, -1, or 0).
type obsPlan struct {
	px, pz []uint64
	xQ, zQ []int32
	ref    float64
}

func (e *Engine) planObs(p *program, o sim.ObsSpec) (obsPlan, error) {
	pl := obsPlan{px: make([]uint64, p.words), pz: make([]uint64, p.words)}
	qs := make([]int, 0, len(o))
	for q := range o {
		qs = append(qs, q)
	}
	sort.Ints(qs)
	for _, q := range qs {
		if q < 0 || q >= p.nq {
			return obsPlan{}, fmt.Errorf("stab: observable qubit %d out of range for %d qubits", q, p.nq)
		}
		w, b := q/64, uint(q%64)
		switch o[q] {
		case 'X':
			pl.px[w] |= 1 << b
			pl.xQ = append(pl.xQ, int32(q))
		case 'Y':
			pl.px[w] |= 1 << b
			pl.pz[w] |= 1 << b
			pl.xQ = append(pl.xQ, int32(q))
			pl.zQ = append(pl.zQ, int32(q))
		case 'Z':
			pl.pz[w] |= 1 << b
			pl.zQ = append(pl.zQ, int32(q))
		case 'I':
		default:
			return obsPlan{}, fmt.Errorf("stab: invalid observable label %q", o[q])
		}
	}
	pl.ref = p.tab.ExpectPacked(pl.px, pl.pz, false)
	return pl, nil
}

// Expectations runs the circuit and returns the mean over frame
// trajectories of each Pauli observable: the reference tableau provides
// the exact noiseless expectation, each shot contributes its frame's sign
// relative to it. On the bit-plane path each full 64-shot block
// contributes one popcount-reduced partial sum per observable
// (ref * (64 - 2*popcount(parity word))); the reduction runs in unit-index
// order so the result is bit-identical for any worker count.
func (e *Engine) Expectations(c *circuit.Circuit, obs []sim.ObsSpec) ([]float64, error) {
	sp := e.span("stab.expectations")
	defer sp.End()
	p, err := e.compile(c)
	if err != nil {
		return nil, err
	}
	defer p.release()
	return e.expectations(p, obs)
}

// expectations samples the compiled program's observable means into a
// fresh slice.
func (e *Engine) expectations(p *program, obs []sim.ObsSpec) ([]float64, error) {
	var err error
	plans := make([]obsPlan, len(obs))
	for j, o := range obs {
		if plans[j], err = e.planObs(p, o); err != nil {
			return nil, err
		}
	}
	shots := e.numShots()
	nobs := len(obs)
	if e.Scalar {
		sums := make([]float64, shots*nobs)
		e.forEachShot(p, func(i int, f *frame) {
			row := sums[i*nobs : (i+1)*nobs]
			for j := range plans {
				v := plans[j].ref
				if v != 0 && f.anticommutes(plans[j].px, plans[j].pz) {
					v = -v
				}
				row[j] = v
			}
		})
		return reduceRows(sums, shots, nobs), nil
	}
	// One row per full 64-shot block, then one per remainder tail shot.
	full := shots / sim.ShotBlockSize
	rem := shots - full*sim.ShotBlockSize
	sums := resized(p.ar.sums, (full+rem)*nobs)
	p.ar.sums = sums
	e.forEachShotBlock(p,
		func(b, base int, bf *blockFrame) {
			row := sums[b*nobs : (b+1)*nobs]
			for j := range plans {
				if plans[j].ref == 0 {
					continue
				}
				par := bf.anticommuteWord(&plans[j])
				row[j] = plans[j].ref * float64(sim.ShotBlockSize-2*bits.OnesCount64(par))
			}
		},
		func(i int, f *frame) {
			r := full + (i - full*sim.ShotBlockSize)
			row := sums[r*nobs : (r+1)*nobs]
			for j := range plans {
				v := plans[j].ref
				if v != 0 && f.anticommutes(plans[j].px, plans[j].pz) {
					v = -v
				}
				row[j] = v
			}
		})
	return reduceRows(sums, shots, nobs), nil
}

// reduceRows sums per-unit partial rows in unit order and normalizes by
// the shot count — the deterministic reduction both shot paths share.
func reduceRows(sums []float64, shots, nobs int) []float64 {
	out := make([]float64, nobs)
	rows := len(sums) / max(nobs, 1)
	for i := 0; i < rows; i++ {
		for j := 0; j < nobs; j++ {
			out[j] += sums[i*nobs+j]
		}
	}
	for j := range out {
		out[j] /= float64(shots)
	}
	return out
}

// Info compiles the circuit and returns the program summary (op, channel,
// and measurement counts) — the channel-derivation surface the benchmarks
// track.
func (e *Engine) Info(c *circuit.Circuit) (CompileInfo, error) {
	p, err := e.compile(c)
	if err != nil {
		return CompileInfo{}, err
	}
	defer p.release()
	return p.info(), nil
}

// ConjugateLayer conjugates a Pauli string through the ideal action of a
// two-qubit Clifford layer using the engine's packed-row machinery:
// s -> L s L^dagger with the sign tracked in the phase (0 or 2 added).
// It is the tableau-side counterpart of twirl.PropagateThroughLayer and
// is cross-checked against it property-wise.
func ConjugateLayer(l *circuit.Layer, s pauli.String) (pauli.String, error) {
	n := len(s.Ops)
	words := (n + 63) / 64
	px := make([]uint64, words)
	pz := make([]uint64, words)
	for q, p := range s.Ops {
		xb, zb := xzFromPauli(p)
		px[q/64] |= xb << (q % 64)
		pz[q/64] |= zb << (q % 64)
	}
	neg := false
	for _, in := range l.TwoQubitGates() {
		tab := clifford2For(in.Gate, in.Params)
		if tab == nil {
			return pauli.String{}, fmt.Errorf("stab: %s is not Clifford", in.Gate)
		}
		q0, q1 := in.Qubits[0], in.Qubits[1]
		w0, b0 := q0/64, uint(q0%64)
		w1, b1 := q1/64, uint(q1%64)
		p0 := pauliFromXZ((px[w0]>>b0)&1, (pz[w0]>>b0)&1)
		p1 := pauliFromXZ((px[w1]>>b1)&1, (pz[w1]>>b1)&1)
		c := tab.Conjugate(pauli.Pair{P0: p0, P1: p1})
		nx0, nz0 := xzFromPauli(c.Out.P0)
		nx1, nz1 := xzFromPauli(c.Out.P1)
		px[w0] = px[w0]&^(1<<b0) | nx0<<b0
		pz[w0] = pz[w0]&^(1<<b0) | nz0<<b0
		px[w1] = px[w1]&^(1<<b1) | nx1<<b1
		pz[w1] = pz[w1]&^(1<<b1) | nz1<<b1
		if c.Sign < 0 {
			neg = !neg
		}
	}
	out := pauli.NewString(n)
	out.Phase = s.Phase
	if neg {
		out.Phase = (out.Phase + 2) % 4
	}
	for q := 0; q < n; q++ {
		w, b := q/64, uint(q%64)
		out.Ops[q] = pauliFromXZ((px[w]>>b)&1, (pz[w]>>b)&1)
	}
	return out, nil
}
