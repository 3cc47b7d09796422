package main

import (
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"slices"
	"sort"
	"strings"
	"time"

	"casq/internal/circuit"
	"casq/internal/core"
	"casq/internal/correl"
	"casq/internal/dd"
	"casq/internal/device"
	"casq/internal/exec"
	"casq/internal/experiments"
	"casq/internal/fitting"
	"casq/internal/gates"
	"casq/internal/layerfid"
	"casq/internal/pauli"
	"casq/internal/sim"
	"casq/internal/twirl"
)

// figWorkload runs one paper figure on the full 127-qubit Eagle lattice
// with the stabilizer engine, one figure after another (closed loop).
type figWorkload struct {
	name    string
	id      string
	backend string
	shots   int
	check   func(experiments.Figure) string
	replay  func(*replay, experiments.Options, experiments.Figure) error
}

var (
	fig8Workload = figWorkload{name: "fig8_eagle127", id: "fig8", backend: "eagle127", shots: 10000,
		check: checkFig8, replay: replayFig8}
	figC1Workload = figWorkload{name: "figC1_eagle127", id: "figC1", backend: "eagle127", shots: 50000,
		check: checkFigC1, replay: replayFigC1}
)

// options are the figure's inputs at one figure seed: the fast preset on
// the Eagle lattice with the stabilizer engine.
func (w figWorkload) options(seed int64) experiments.Options {
	o := experiments.FastOptions()
	o.Seed = seed
	o.Backend = w.backend
	o.Engine = exec.EngineStab
	o.Shots = w.shots
	return o
}

type figEnv struct{}

func (figEnv) close() {}

// setup builds the backend device and runs one warm-up figure, so lazily
// built tables are in place before timing and any work moved into them
// shows in setup_s.
func (w figWorkload) setup(warm seeds) func() (figEnv, error) {
	return func() (figEnv, error) {
		if _, err := device.NewBackend(w.backend); err != nil {
			return figEnv{}, err
		}
		_, err := experiments.Run(w.id, w.options(warm.next()))
		return figEnv{}, err
	}
}

// warmSeeds are the warm-up figures' seeds: a stream apart from the
// measured figures', so the measured inputs do not depend on how many
// set-ups ran.
func warmSeeds(seed int64) seeds { return newSeeds(^seed) }

func (w figWorkload) run(cfg runConfig) (*result, error) {
	in := newSeeds(cfg.seed)
	res := newResult()
	_, setupS, err := setupMedian(cfg.setups, w.setup(warmSeeds(cfg.seed)))
	if err != nil {
		return nil, fmt.Errorf("%s set-up: %w", w.name, err)
	}
	var lat []float64
	a0 := totalAlloc()
	start := time.Now()
	for i := 0; cfg.keepGoing(start, i); i++ {
		seed := in.next()
		t := time.Now()
		fig, err := experiments.Run(w.id, w.options(seed))
		d := time.Since(t)
		res.attempted++
		if err != nil {
			res.fail("%s seed %d: %v", w.id, seed, err)
			continue
		}
		if msg := w.check(fig); msg != "" {
			res.fail("%s seed %d: %s", w.id, seed, msg)
			continue
		}
		if msg := checkDigest(w.name, seed, fig); msg != "" {
			res.fail("%s seed %d: %s", w.id, seed, msg)
			continue
		}
		lat = append(lat, ms(d))
	}
	elapsed := time.Since(start)
	alloc := totalAlloc() - a0

	res.metrics["setup_s"] = setupS
	res.metrics["latency_ms_p50"] = median(lat)
	res.metrics["throughput_per_s"] = float64(res.attempted) / elapsed.Seconds()
	res.metrics["alloc_mb_per_op"] = mbPerOp(alloc, res.attempted)
	res.line("setup_s", setupS, "s", fmt.Sprintf("median of %d", cfg.setups))
	res.line("figure_ms_p50", median(lat), "ms", fmt.Sprintf("n=%d", len(lat)))
	res.line("figures_per_s", res.metrics["throughput_per_s"], "1/s", "")
	res.line("alloc_mb_per_op", res.metrics["alloc_mb_per_op"], "MB", "TotalAlloc per figure")
	res.errorRateLine()
	return res, nil
}

// trace runs, per iteration, the figure untraced (counting the executor's
// instances and shots on the process registry) and then the traced replay
// of the same figure seed, which must reproduce the figure's values and
// the same counts.
func (w figWorkload) trace(cfg runConfig) (*result, error) {
	in := newSeeds(cfg.seed)
	res := newResult()
	if _, err := w.setup(warmSeeds(cfg.seed))(); err != nil {
		return nil, fmt.Errorf("%s set-up: %w", w.name, err)
	}
	var iters []map[string]float64
	start := time.Now()
	for i := 0; cfg.keepGoing(start, i); i++ {
		seed := in.next()
		opts := w.options(seed)
		c0 := readCounters()
		t := time.Now()
		fig, err := experiments.Run(w.id, opts)
		untraced := time.Since(t)
		delta := readCounters().sub(c0)
		res.attempted++
		if err != nil {
			res.fail("%s seed %d: %v", w.id, seed, err)
			continue
		}
		rec := newRecorder()
		root := rec.start("figure", -1)
		rp := newReplay(rec, root)
		err = w.replay(rp, opts, fig)
		rec.end(root)
		if err == nil {
			err = rp.crossCheck(delta, true)
		}
		if err != nil {
			res.fail("%s seed %d: %v", w.id, seed, err)
			continue
		}
		spans := rec.snapshot()
		iters = append(iters, rp.layerValues(spans, untraced, figurePath(spans, root)))
	}
	res.reportLayers(iters)
	return res, nil
}

// figurePath is the traced figure's own wall time: span fig minus the
// serial per-instance decomposition, which is measurement work the
// untraced figure does not do.
func figurePath(spans []span, fig int) time.Duration {
	return spans[fig].dur() - spanSums(spans)[spanDecompose]
}

func checkFig8(fig experiments.Figure) string {
	if len(fig.Series) != 1 || len(fig.Series[0].Y) != 4 {
		return "want one LF series over the four strategies"
	}
	lf := fig.Series[0].Y
	for i, v := range lf {
		if !(v > 0 && v <= 1) {
			return fmt.Sprintf("LF[%d] = %v outside (0, 1]", i, v)
		}
	}
	if !(lf[3] > lf[0]) {
		return fmt.Sprintf("CA-EC LF %v not above twirled LF %v", lf[3], lf[0])
	}
	return ""
}

// eaglePairs is the number of qubit pairs of the 127-qubit lattice.
var eaglePairs = correl.Pairs(127)

func checkFigC1(fig experiments.Figure) string {
	if len(fig.Series) != 6 {
		return fmt.Sprintf("want 6 strategy series, got %d", len(fig.Series))
	}
	for _, s := range fig.Series {
		for _, y := range s.Y {
			if !(y >= 0 && y <= 1) {
				return fmt.Sprintf("%s: mean |corr| %v outside [0, 1]", s.Label, y)
			}
		}
	}
	want := fmt.Sprintf("/%d pairs above threshold", eaglePairs)
	n := 0
	for _, note := range fig.Notes {
		if strings.Contains(note, want) {
			n++
		}
	}
	if n != 6 {
		return fmt.Sprintf("%d of 6 strategies report %d pairs", n, eaglePairs)
	}
	return ""
}

//go:embed digests.json
var digestsJSON []byte

// figureDigest is the recorded SHA-256 of one rendered figure.
type figureDigest struct {
	FigureSeed   int64  `json:"figure_seed"`
	RenderSHA256 string `json:"render_sha256"`
}

var digests = func() map[string]figureDigest {
	m := map[string]figureDigest{}
	if err := json.Unmarshal(digestsJSON, &m); err != nil {
		panic("perfbench: digests.json: " + err.Error())
	}
	return m
}()

// checkDigest compares a figure against the digest recorded for its seed
// (the first measured figure of the default seed); other seeds pass.
func checkDigest(workload string, seed int64, fig experiments.Figure) string {
	d, ok := digests[workload]
	if !ok || d.FigureSeed != seed {
		return ""
	}
	sum := sha256.Sum256([]byte(fig.Render()))
	if got := hex.EncodeToString(sum[:]); got != d.RenderSHA256 {
		return fmt.Sprintf("render digest %s, recorded %s", got, d.RenderSHA256)
	}
	return ""
}

// printDigests prints digests.json for the figure workloads: the digest
// of each one's first measured figure at the default seed. Re-record it
// only when a change is meant to alter the figures.
func printDigests() error {
	out := map[string]figureDigest{}
	for _, w := range []figWorkload{fig8Workload, figC1Workload} {
		seed := newSeeds(defaultSeed).next()
		fig, err := experiments.Run(w.id, w.options(seed))
		if err != nil {
			return err
		}
		sum := sha256.Sum256([]byte(fig.Render()))
		out[w.name] = figureDigest{FigureSeed: seed, RenderSHA256: hex.EncodeToString(sum[:])}
	}
	data, err := json.MarshalIndent(out, "", "  ")
	if err != nil {
		return err
	}
	fmt.Println(string(data))
	return nil
}

// replayFig8 re-drives the fig8 harness on a full-device backend through
// the packages' exported functions: the tiled layer, the layer-fidelity
// circuits of each strategy, one executor job per circuit, and the decay
// fits. The LF values must equal the figure's exactly.
func replayFig8(rp *replay, opts experiments.Options, fig experiments.Figure) error {
	rec := rp.rec
	var (
		dev   *device.Device
		layer *circuit.Layer
		err   error
	)
	rec.timed("device.build", rp.root, func() { dev, err = device.NewBackend(opts.Backend) })
	if err != nil {
		return err
	}
	rec.timed(spanBuild, rp.root, func() { layer = layerfid.TiledLayer(dev) })
	sp, _ := experiments.Lookup("fig8")
	var depths []int
	for _, v := range sp.AxisValues("lf_depth", opts) {
		depths = append(depths, int(v))
	}
	lf := lfParams{depths: depths, shots: max(8, opts.Shots/4), rounds: 3, seed: opts.Seed,
		instances: opts.Instances, workers: opts.Workers}
	strategies := []core.Strategy{core.Twirled(), core.WithDD(dd.Aligned), core.CADD(), core.CAEC()}
	var lfs []float64
	for _, st := range strategies {
		v, err := rp.layerFidelity(dev, layer, st, lf)
		if err != nil {
			return fmt.Errorf("%s: %w", st.Name, err)
		}
		lfs = append(lfs, v)
	}
	if len(fig.Series) != 1 || !slices.Equal(fig.Series[0].Y, lfs) {
		return fmt.Errorf("replayed LF %v differs from the figure's", lfs)
	}
	return nil
}

// lfParams are the layer-fidelity protocol settings the fig8 harness
// derives from its options.
type lfParams struct {
	depths             []int
	shots, rounds      int
	seed               int64
	instances, workers int
}

// lfLabels lists each partition's Pauli labels, sampled down to rounds by
// striding across the basis as the protocol does.
func lfLabels(parts []layerfid.Partition, rounds int) ([][]string, int) {
	labels := make([][]string, len(parts))
	most := 0
	for i, p := range parts {
		var all []string
		if len(p.Qubits) == 1 {
			all = []string{"X", "Y", "Z"}
		} else {
			for _, a := range "IXYZ" {
				for _, b := range "IXYZ" {
					if a != 'I' || b != 'I' {
						all = append(all, string([]rune{a, b}))
					}
				}
			}
		}
		if rounds > 0 && len(all) > rounds {
			stride := len(all) / rounds
			var sampled []string
			for k := 0; k < rounds; k++ {
				sampled = append(sampled, all[k*stride])
			}
			all = sampled
		}
		labels[i] = all
		most = max(most, len(all))
	}
	return labels, most
}

// layerFidelity measures one strategy's layer fidelity the way
// layerfid.Measure does, with each step in its own span.
func (rp *replay) layerFidelity(dev *device.Device, layer *circuit.Layer, st core.Strategy, p lfParams) (float64, error) {
	rec := rp.rec
	parts := layerfid.Partitions(layer, dev)
	labels, rounds := lfLabels(parts, p.rounds)
	type curve struct{ xs, ys []float64 }
	decays := make([]map[string]*curve, len(parts))
	for i := range decays {
		decays[i] = map[string]*curve{}
	}
	st.TwirlScope = twirl.AllQubits
	pl := st.Pipeline()
	for round := 0; round < rounds; round++ {
		for _, d := range p.depths {
			chosen := make([]string, len(parts))
			var c *circuit.Circuit
			rec.timed(spanBuild, rp.root, func() {
				c = circuit.New(dev.NQubits, 0)
				prep := c.AddLayer(circuit.OneQubitLayer)
				for i, part := range parts {
					lab := labels[i][round%len(labels[i])]
					chosen[i] = lab
					for k, q := range part.Qubits {
						switch lab[k] {
						case 'X':
							prep.H(q)
						case 'Y':
							prep.U(q, math.Pi/2, math.Pi/2, math.Pi)
						}
					}
				}
				for rep := 0; rep < d; rep++ {
					c.Layers = append(c.Layers, layer.Clone())
				}
			})
			rp.countInstructions(c)
			obs := make([]sim.ObsSpec, len(parts))
			signs := make([]float64, len(parts))
			var err error
			rec.timed("layerfid.propagate", rp.root, func() {
				for i, part := range parts {
					ps := pauli.NewString(dev.NQubits)
					for k, q := range part.Qubits {
						var pp pauli.Pauli
						if pp, err = pauli.Parse(chosen[i][k]); err != nil {
							return
						}
						ps.Ops[q] = pp
					}
					for rep := 0; rep < d; rep++ {
						if ps, err = twirl.PropagateThroughLayer(layer, ps); err != nil {
							return
						}
					}
					spec := sim.ObsSpec{}
					for q, op := range ps.Ops {
						if op != pauli.I {
							spec[q] = op.String()[0]
						}
					}
					obs[i] = spec
					signs[i] = 1
					if ps.Phase%4 == 2 {
						signs[i] = -1
					}
				}
			})
			if err != nil {
				return 0, err
			}
			cfg := sim.DefaultConfig()
			cfg.Shots = p.shots
			cfg.Seed = p.seed + int64(round*7919+d*13)
			cfg.EnableReadoutErr = false
			res, err := rp.runJob(dev, pl, exec.Job{Circuit: c, Observables: obs, Opts: exec.RunOptions{
				Instances: p.instances, Workers: p.workers, Seed: p.seed + int64(round*1000+d),
				Cfg: cfg, Engine: exec.EngineStab,
			}}, exec.EngineStab)
			if err != nil {
				return 0, err
			}
			for i := range parts {
				cv := decays[i][chosen[i]]
				if cv == nil {
					cv = &curve{}
					decays[i][chosen[i]] = cv
				}
				cv.xs = append(cv.xs, float64(d))
				cv.ys = append(cv.ys, res.ExpVals[i]*signs[i])
			}
		}
	}

	lf := 1.0
	rec.timed(spanFit, rp.root, func() {
		for i, part := range parts {
			dim2 := math.Pow(4, float64(len(part.Qubits)))
			sum, nFit := 1.0, 1
			keys := make([]string, 0, len(decays[i]))
			for k := range decays[i] {
				keys = append(keys, k)
			}
			sort.Strings(keys)
			for _, lab := range keys {
				cv := decays[i][lab]
				_, lambda, err := fitting.ExpDecay(cv.xs, cv.ys)
				if err != nil || math.IsNaN(lambda) {
					lambda = 0
				}
				lambda = min(lambda, 1)
				sum += lambda
				nFit++
			}
			if nFit < int(dim2) {
				mean := (sum - 1) / float64(nFit-1)
				sum += mean * float64(int(dim2)-nFit)
			}
			lf *= sum / dim2
		}
	})
	return lf, nil
}

// replayFigC1 re-drives the figC1 harness: per strategy, the full-device
// Ramsey probe, one executor counts job, and correl.Estimate on the packed
// outcome planes. The decay curves must equal the figure's exactly, and
// every matrix must cover all pairs with flip rates in [0, 1].
func replayFigC1(rp *replay, opts experiments.Options, fig experiments.Figure) error {
	rec := rp.rec
	var (
		dev *device.Device
		err error
	)
	rec.timed("device.build", rp.root, func() { dev, err = device.NewBackend(opts.Backend) })
	if err != nil {
		return err
	}
	sp, _ := experiments.Lookup("figC1")
	depth := sp.Depths(opts)[0]
	const tau = 600.0
	var dist [][]int
	rec.timed("figure.assemble", rp.root, func() { dist = dev.CouplingGraph().AllDistances() })
	strategies := []core.Strategy{core.Bare(), core.Twirled(), core.WithDD(dd.Aligned),
		core.WithDD(dd.Staggered), core.CADD(), core.CAEC()}
	if len(fig.Series) != len(strategies) {
		return fmt.Errorf("figure has %d series, want %d", len(fig.Series), len(strategies))
	}
	for i, st := range strategies {
		st.TwirlScope = twirl.AllQubits
		var c *circuit.Circuit
		rec.timed(spanBuild, rp.root, func() { c = ramseyProbe(dev.NQubits, depth, tau) })
		rp.countInstructions(c)
		cfg := sim.DefaultConfig()
		cfg.Shots = opts.Shots
		cfg.Seed = opts.Seed + int64(depth*131) + int64(tau)
		cfg.EnableReadoutErr = false
		res, err := rp.runJob(dev, st.Pipeline(), exec.Job{Circuit: c, Opts: exec.RunOptions{
			Instances: opts.Instances, Workers: opts.Workers, Seed: opts.Seed + int64(depth*977) + int64(tau)*3,
			Cfg: cfg, Engine: exec.EngineStab,
		}}, exec.EngineStab)
		if err != nil {
			return fmt.Errorf("%s: %w", st.Name, err)
		}
		var m correl.Matrix
		rec.timed(spanCorrel, rp.root, func() { m = correl.Estimate(*res.Packed) })
		rp.correlPairs += correl.Pairs(m.N)
		if correl.Pairs(m.N) != eaglePairs || len(m.Corr) != eaglePairs {
			return fmt.Errorf("%s: %d pairs, want %d", st.Name, len(m.Corr), eaglePairs)
		}
		for q, p := range m.P {
			if !(p >= 0 && p <= 1) {
				return fmt.Errorf("%s: qubit %d flip rate %v outside [0, 1]", st.Name, q, p)
			}
		}
		var ys []float64
		rec.timed("figure.assemble", rp.root, func() {
			for _, b := range correl.DecayByDistance(m, dist, 8) {
				ys = append(ys, b.MeanAbsCorr)
			}
		})
		if s := fig.Series[i]; s.Label != st.Name || !slices.Equal(s.Y, ys) {
			return fmt.Errorf("%s: replayed decay curve differs from the figure's", st.Name)
		}
	}
	return nil
}

// ramseyProbe is figC1's spectroscopy circuit: H on every qubit, depth
// idle windows of tau ns, H back, measure all.
func ramseyProbe(n, depth int, tau float64) *circuit.Circuit {
	c := circuit.New(n, n)
	open := c.AddLayer(circuit.OneQubitLayer)
	for q := 0; q < n; q++ {
		open.H(q)
	}
	for d := 0; d < depth; d++ {
		l := c.AddLayer(circuit.TwoQubitLayer)
		for q := 0; q < n; q++ {
			l.Add(circuit.Instruction{Gate: gates.Delay, Qubits: []int{q}, Params: []float64{tau}})
		}
	}
	closeL := c.AddLayer(circuit.OneQubitLayer)
	for q := 0; q < n; q++ {
		closeL.H(q)
	}
	meas := c.AddLayer(circuit.MeasureLayer)
	for q := 0; q < n; q++ {
		meas.Measure(q, q)
	}
	return c
}
