// Package sim is the noisy device-level simulator that substitutes for the
// paper's IBM hardware. It executes scheduled layered circuits on a
// statevector while tracking every coherent crosstalk channel the paper
// characterizes — always-on ZZ (Eq. 1), spectator Z, AC Stark shifts,
// charge-parity +/-delta terms (Eq. 6), NNN collision ZZ — plus stochastic
// channels (T1, T2, quasi-static low-frequency dephasing, depolarizing gate
// errors, readout errors).
//
// Coherent Z/ZZ phases are diagonal, so they are accumulated analytically in
// a phase accumulator and flushed into the statevector lazily, only before
// non-diagonal operations on the affected qubits. The schedule walk — edge
// and Stark tables, each layer's context and events, and the ZZ/Stark
// integration between events — is toggling.Walker, shared with the
// stabilizer engine; the shot replays its events and adds its own sampled
// parity and quasi-static detuning. X-type pulses (DD pulses, twirl
// Paulis, the internal echo of an ECR) flip the accumulator signs, which
// reproduces the toggling-frame physics exactly for instantaneous pulses.
// The ECR gate executes as its physical sequence ZX(pi/4) -> X(ctrl) ->
// ZX(-pi/4) so that echo alignment effects (paper Fig. 3, cases II-IV)
// emerge from the dynamics rather than being assumed.
package sim

import (
	"fmt"
	"math"
	"math/bits"
	"sort"
	"sync"

	"casq/internal/circuit"
	"casq/internal/device"
	"casq/internal/gates"
	"casq/internal/linalg"
	"casq/internal/obs"
	"casq/internal/toggling"
)

// Shared parameter slices for the memoized ECR decomposition.
var (
	zxPlusQuarter  = []float64{math.Pi / 4}
	zxMinusQuarter = []float64{-math.Pi / 4}
)

// Engine is the simulation-backend contract shared by the statevector
// Runner and the stabilizer/Pauli-frame engine (internal/stab). Both take
// a compiled, scheduled circuit and produce sampled bitstring counts or
// trajectory-averaged Pauli expectation values; the executor dispatches
// between them per job (internal/exec).
type Engine interface {
	Counts(c *circuit.Circuit) (Result, error)
	Expectations(c *circuit.Circuit, obs []ObsSpec) ([]float64, error)
}

// MaxQubits is the largest circuit width the statevector engine accepts:
// a 2^n-amplitude state costs 16*2^n bytes per shot worker, so beyond
// this the executor must route the job to the stabilizer engine instead
// of letting the allocation take the process down.
const MaxQubits = 26

// Config toggles the noise channels and sets sampling parameters.
type Config struct {
	Shots   int
	Seed    int64
	Workers int // 0 = GOMAXPROCS

	EnableZZ          bool // always-on ZZ + spectator Z (Eq. 1)
	EnableStark       bool // AC Stark shift on neighbors of driven qubits
	EnableParity      bool // charge-parity +/-delta Z (Eq. 6)
	EnableQuasistatic bool // per-shot Gaussian low-frequency Z detuning
	EnableT1T2        bool // Markovian amplitude damping and dephasing
	EnableGateErr     bool // depolarizing error per physical gate
	EnableReadoutErr  bool // assignment error on recorded bits

	// Tracer records engine-level spans (whole-run and per-shot-block
	// timings); nil disables tracing at zero cost. Lane is the tracer
	// lane spans render on — the executor assigns one per instance.
	// Neither affects simulation results.
	Tracer *obs.Tracer
	Lane   int
}

// DefaultConfig enables every channel with a moderate shot count.
func DefaultConfig() Config {
	return Config{
		Shots:             256,
		Seed:              7,
		EnableZZ:          true,
		EnableStark:       true,
		EnableParity:      true,
		EnableQuasistatic: true,
		EnableT1T2:        true,
		EnableGateErr:     true,
		EnableReadoutErr:  true,
	}
}

// CoherentOnly returns a config with only the deterministic coherent
// channels enabled (useful for validating suppression passes exactly).
func CoherentOnly(shots int) Config {
	return Config{
		Shots:       shots,
		Seed:        7,
		EnableZZ:    true,
		EnableStark: true,
	}
}

// Ideal returns a noiseless config (single shot: the evolution is
// deterministic).
func Ideal() Config { return Config{Shots: 1, Seed: 1} }

// Runner executes circuits on a device under a noise config.
type Runner struct {
	Dev *device.Device
	Cfg Config

	// Compilation cache: the Runner memoizes the most recent circuit's
	// compilation, keyed by pointer identity plus content fingerprints of
	// the circuit and of the compile-relevant device calibration, so
	// in-place mutation of either between runs is detected. Sweeps that
	// re-run the same scheduled circuit (every figure in the paper) skip
	// recompiling per call; the compiled form is immutable during
	// execution, so cached reuse is safe under concurrent
	// Counts/Expectations.
	mu       sync.Mutex
	cachedC  *circuit.Circuit
	cachedFP uint64
	cached   *compiled
}

// New returns a Runner.
func New(dev *device.Device, cfg Config) *Runner {
	return &Runner{Dev: dev, Cfg: cfg}
}

// compiled is a circuit ready for shot replay: the schedule walker's
// tables and, per layer, its context and events with the matrix each
// non-diagonal event applies.
type compiled struct {
	nq, ncb int
	walk    toggling.Walker
	layers  []layerExec
}

type layerExec struct {
	toggling.LayerContext
	// mats[i] is the matrix event i applies: a pulse's X or Y, a one-qubit
	// gate's, a two-qubit gate's (ZX(pi/4) for an ECR), and for an ECR's
	// echo the second half ZX(-pi/4); zero elsewhere. All layers' mats
	// share one backing array.
	mats []linalg.Matrix
}

const (
	fnvOffset = 14695981039346656037
	fnvPrime  = 1099511628211
)

// deviceFingerprint hashes the device calibration that compile bakes into
// the compiled form — the schedule walker's edge and Stark tables
// (topology, ZZ rates, Stark terms) and its events' gate-error
// probabilities — so in-place device mutation between runs — the Fig. 8
// sweep retunes dev.ZZ per point — invalidates the Runner's cache. Map
// entries are combined commutatively so iteration order cannot matter.
func deviceFingerprint(d *device.Device) uint64 {
	h := uint64(fnvOffset)
	mix := func(v uint64) {
		for i := 0; i < 8; i++ {
			h ^= v & 0xff
			h *= fnvPrime
			v >>= 8
		}
	}
	pair := func(a, b, c uint64) uint64 {
		x := uint64(fnvOffset)
		for _, v := range [3]uint64{a, b, c} {
			for i := 0; i < 8; i++ {
				x ^= v & 0xff
				x *= fnvPrime
				v >>= 8
			}
		}
		return x
	}
	mix(uint64(d.NQubits))
	mix(uint64(len(d.Edges)))
	mix(uint64(len(d.NNNEdges)))
	for _, e := range d.Edges {
		mix(pair(uint64(e.A), uint64(e.B), 0))
	}
	for _, e := range d.NNNEdges {
		mix(pair(uint64(e.A), uint64(e.B), 0))
	}
	var acc uint64
	for e, v := range d.ZZ {
		acc += pair(uint64(e.A), uint64(e.B), math.Float64bits(v))
	}
	mix(acc)
	acc = 0
	for dd, v := range d.Stark {
		acc += pair(uint64(dd.Src), uint64(dd.Dst), math.Float64bits(v))
	}
	mix(acc)
	acc = 0
	for e, v := range d.Err2Q {
		acc += pair(uint64(e.A), uint64(e.B), math.Float64bits(v))
	}
	mix(acc)
	for _, v := range d.Err1Q {
		mix(math.Float64bits(v))
	}
	return h
}

// fingerprint hashes every field of the circuit that compilation depends
// on (FNV-1a, allocation-free), so the Runner's compile cache detects
// in-place mutation even at the same pointer.
func fingerprint(c *circuit.Circuit) uint64 {
	const (
		offset = fnvOffset
		prime  = fnvPrime
	)
	h := uint64(offset)
	mix := func(v uint64) {
		for i := 0; i < 8; i++ {
			h ^= v & 0xff
			h *= prime
			v >>= 8
		}
	}
	mixF := func(f float64) { mix(math.Float64bits(f)) }
	mixS := func(s string) {
		mix(uint64(len(s)))
		for i := 0; i < len(s); i++ {
			h ^= uint64(s[i])
			h *= prime
		}
	}
	mix(uint64(c.NQubits))
	mix(uint64(c.NCBits))
	mix(uint64(len(c.Layers)))
	for li := range c.Layers {
		l := &c.Layers[li]
		mix(uint64(l.Kind))
		mixF(l.Start)
		mixF(l.Duration)
		mix(uint64(len(l.Instrs)))
		for ii := range l.Instrs {
			in := &l.Instrs[ii]
			mixS(string(in.Gate))
			for _, q := range in.Qubits {
				mix(uint64(q))
			}
			for _, p := range in.Params {
				mixF(p)
			}
			mix(uint64(in.CBit))
			if in.Cond != nil {
				mix(uint64(in.Cond.Bit))
				mix(uint64(in.Cond.Value))
			}
			mixS(in.Tag)
			mixF(in.Time)
		}
	}
	return h
}

// compiled returns the circuit's compilation, reusing the cached one when
// neither the circuit nor the compile-relevant device calibration has
// changed since the previous call.
func (r *Runner) compiled(c *circuit.Circuit) (*compiled, error) {
	fp := fingerprint(c) ^ deviceFingerprint(r.Dev)
	r.mu.Lock()
	if r.cachedC == c && r.cachedFP == fp {
		cp := r.cached
		r.mu.Unlock()
		return cp, nil
	}
	r.mu.Unlock()
	cp, err := r.compile(c)
	if err != nil {
		return nil, err
	}
	r.mu.Lock()
	r.cachedC, r.cachedFP, r.cached = c, fp, cp
	r.mu.Unlock()
	return cp, nil
}

// Runner implements Engine.
var _ Engine = (*Runner)(nil)

func (r *Runner) compile(c *circuit.Circuit) (*compiled, error) {
	if err := c.Validate(); err != nil {
		return nil, err
	}
	if c.NQubits > MaxQubits {
		return nil, fmt.Errorf("sim: %d qubits exceed the statevector limit of %d; use the stabilizer engine (internal/stab) for full-scale twirled circuits", c.NQubits, MaxQubits)
	}
	cp := &compiled{nq: c.NQubits, ncb: c.NCBits}
	cp.walk.Reset(r.Dev, c)

	// Repeated structures (every Trotter step uses the same Ucan/ECR
	// parameters) build each matrix once per compilation.
	memo := map[gates.Key]linalg.Matrix{}
	matrix := func(g gates.Kind, params []float64) linalg.Matrix {
		k, ok := gates.KeyOf(g, params)
		if m, hit := memo[k]; ok && hit {
			return m
		}
		m := gates.Matrix1Q
		if gates.NumQubits(g) == 2 {
			m = gates.Matrix2Q
		}
		mat := m(g, params...)
		if ok {
			memo[k] = mat
		}
		return mat
	}
	cp.layers = make([]layerExec, len(c.Layers))
	nev := 0
	for li := range c.Layers {
		cp.walk.Layer(&cp.layers[li].LayerContext, &c.Layers[li], r.Dev)
		nev += len(cp.layers[li].Events)
	}
	mats := make([]linalg.Matrix, nev)
	for li := range cp.layers {
		le := &cp.layers[li]
		le.mats, mats = mats[:len(le.Events):len(le.Events)], mats[len(le.Events):]
		for i, ev := range le.Events {
			ecr := ev.In.Gate == gates.ECR
			switch {
			case ecr && ev.Kind == toggling.EvGate2Q:
				le.mats[i] = matrix(gates.ZX, zxPlusQuarter)
			case ecr && ev.Kind == toggling.EvEcho:
				le.mats[i] = matrix(gates.ZX, zxMinusQuarter)
			case ev.Kind == toggling.EvPulse && ev.In.Gate == gates.YGate:
				le.mats[i] = yMat
			case ev.Kind == toggling.EvPulse:
				le.mats[i] = xMat
			case ev.Kind == toggling.EvGate1Q || ev.Kind == toggling.EvGate2Q:
				le.mats[i] = matrix(ev.In.Gate, ev.In.Params)
			}
		}
	}
	return cp, nil
}

// Result aggregates sampled outcomes.
type Result struct {
	Counts map[string]int
	Shots  int
}

// Probability returns the empirical probability of bitstrings matching the
// pattern, where pattern[i] constrains classical bit i to '0' or '1' ('x'
// matches anything). A constrained position beyond the end of a measured
// bitstring is a non-match (the pattern demands a bit that was never
// recorded); measured bits beyond the end of the pattern are unconstrained
// and match.
func (r Result) Probability(pattern string) float64 {
	if r.Shots == 0 {
		return 0
	}
	hits := 0
	for bits, n := range r.Counts {
		if matchesPattern(pattern, bits) {
			hits += n
		}
	}
	return float64(hits) / float64(r.Shots)
}

func matchesPattern(pattern, bits string) bool {
	for i := 0; i < len(pattern); i++ {
		if pattern[i] == 'x' {
			continue
		}
		if i >= len(bits) || pattern[i] != bits[i] {
			return false
		}
	}
	return true
}

// BitsKey formats measured classical bits as the Counts map key
// (classical bit i at string position i). Shared with the stabilizer
// engine so both backends key merged counts identically.
func BitsKey(cbits []int) string {
	b := make([]byte, len(cbits))
	for i, v := range cbits {
		b[i] = byte('0' + v)
	}
	return string(b)
}

// span opens an engine-level span on the runner's configured tracer
// (no-op Span when tracing is disabled). A helper rather than inline
// calls because some Runner methods take a parameter named obs, which
// shadows the package name.
func (r *Runner) span(name string) obs.Span {
	if !r.Cfg.Tracer.Enabled() {
		return obs.Span{}
	}
	return r.Cfg.Tracer.Start(name).WithLane(r.Cfg.Lane)
}

// Counts runs the circuit and returns measured bitstring counts (classical
// bit i at string position i).
func (r *Runner) Counts(c *circuit.Circuit) (Result, error) {
	sp := r.span("sim.counts")
	defer sp.End()
	cp, err := r.compiled(c)
	if err != nil {
		return Result{}, err
	}
	shots := r.numShots()
	res := Result{Counts: map[string]int{}, Shots: shots}
	keys := make([]string, shots)
	r.forEachShot(func(i int, s *shot) {
		s.run(cp)
		keys[i] = BitsKey(s.cbits)
	}, cp)
	for _, k := range keys {
		res.Counts[k]++
	}
	return res, nil
}

// Expectations runs the circuit (which must not contain measurement of the
// observable qubits if exact expectations are desired) and returns the mean
// over noise trajectories of the exact expectation value of each observable
// on the final state.
func (r *Runner) Expectations(c *circuit.Circuit, obs []ObsSpec) ([]float64, error) {
	sp := r.span("sim.expectations")
	defer sp.End()
	cp, err := r.compiled(c)
	if err != nil {
		return nil, err
	}
	plans := make([]obsPlan, len(obs))
	for j, o := range obs {
		plans[j] = o.plan()
	}
	shots := r.numShots()
	nobs := len(obs)
	// Flat per-shot value matrix: workers write disjoint rows, then the
	// reduction runs in shot-index order so the floating-point sum is
	// independent of scheduling.
	sums := make([]float64, shots*nobs)
	r.forEachShot(func(i int, s *shot) {
		s.run(cp)
		s.flushAll()
		row := sums[i*nobs : (i+1)*nobs]
		for j := range plans {
			row[j] = plans[j].eval(s)
		}
	}, cp)
	out := make([]float64, nobs)
	for i := 0; i < shots; i++ {
		for j := 0; j < nobs; j++ {
			out[j] += sums[i*nobs+j]
		}
	}
	for j := range out {
		out[j] /= float64(shots)
	}
	return out, nil
}

// FinalState runs a single trajectory (shot 0) and returns the final
// statevector with all pending coherent phases applied. For configs without
// stochastic channels the result is deterministic; with them it is one
// random trajectory.
func (r *Runner) FinalState(c *circuit.Circuit) (linalg.Vector, error) {
	cp, err := r.compiled(c)
	if err != nil {
		return nil, err
	}
	s := r.newShot(cp)
	s.reset(r.shotSeed(0))
	s.run(cp)
	s.flushAll()
	return s.psi, nil
}

// ObsSpec is a Pauli observable given as a label per qubit, e.g. {0:"X",
// 5:"X"} for <X0 X5>.
type ObsSpec map[int]byte

// obsOp is one non-diagonal factor of an observable.
type obsOp struct {
	q   int
	mat linalg.Matrix
}

// obsPlan is a compiled observable: the Z factors folded into a parity
// mask (they act diagonally on the basis) plus the X/Y factors in qubit
// order. Plans are computed once per Expectations call so the per-shot
// evaluation stays allocation-free and independent of map iteration order.
type obsPlan struct {
	zMask int
	ops   []obsOp
}

func (o ObsSpec) plan() obsPlan {
	var p obsPlan
	qs := make([]int, 0, len(o))
	for q := range o {
		qs = append(qs, q)
	}
	sort.Ints(qs)
	for _, q := range qs {
		switch o[q] {
		case 'X':
			p.ops = append(p.ops, obsOp{q: q, mat: gates.Matrix1Q(gates.XGate)})
		case 'Y':
			p.ops = append(p.ops, obsOp{q: q, mat: gates.Matrix1Q(gates.YGate)})
		case 'Z':
			p.zMask |= 1 << q
		case 'I':
		default:
			panic(fmt.Sprintf("sim: invalid observable label %q", o[q]))
		}
	}
	return p
}

// eval returns <psi| P |psi> for the planned Pauli observable. Z-only
// observables are evaluated diagonally — a single pass over |psi|^2 with a
// parity sign, no copy. Observables with X/Y factors apply them to the
// shot's scratch vector (reused across observables and shots) and fold the
// Z factors into the sign of the inner-product accumulation.
func (p obsPlan) eval(s *shot) float64 {
	psi := s.psi
	if p.zMask >= len(psi) {
		// An out-of-range X/Y qubit panics inside Apply1Q; give Z labels
		// the same loud failure instead of silently acting as identity.
		panic(fmt.Sprintf("sim: observable Z qubit out of range for %d-amplitude state (mask %#x)", len(psi), p.zMask))
	}
	if len(p.ops) == 0 {
		sum := 0.0
		for b, a := range psi {
			v := real(a)*real(a) + imag(a)*imag(a)
			if bits.OnesCount(uint(b&p.zMask))&1 == 1 {
				sum -= v
			} else {
				sum += v
			}
		}
		return sum
	}
	w := s.obsScratch()
	copy(w, psi)
	for _, op := range p.ops {
		w.Apply1Q(op.mat, op.q)
	}
	sum := 0.0
	for b := range psi {
		a, x := psi[b], w[b]
		re := real(a)*real(x) + imag(a)*imag(x) // real(conj(a) * x)
		if p.zMask != 0 && bits.OnesCount(uint(b&p.zMask))&1 == 1 {
			re = -re
		}
		sum += re
	}
	return sum
}

// eval on the raw spec builds a throwaway plan; kept for tests and
// callers holding a bare statevector.
func (o ObsSpec) eval(psi linalg.Vector) float64 {
	p := o.plan()
	s := &shot{psi: psi}
	return p.eval(s)
}
