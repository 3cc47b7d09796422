package pass_test

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"hash"
	"math"
	"math/rand"
	"sort"
	"testing"

	"casq/internal/caec"
	"casq/internal/circuit"
	"casq/internal/dd"
	"casq/internal/device"
	"casq/internal/layerfid"
	"casq/internal/pass"
	"casq/internal/sched"
	"casq/internal/twirl"
)

// eagleCircuit is fig8's circuit shape on the full 127-qubit Eagle
// lattice: a preparation layer, then depth copies of the maximal ECR
// tiling.
func eagleCircuit(t testing.TB, depth int) (*device.Device, *circuit.Circuit) {
	t.Helper()
	dev, err := device.NewBackend("eagle127")
	if err != nil {
		t.Fatal(err)
	}
	tiled := layerfid.TiledLayer(dev)
	c := circuit.New(dev.NQubits, 0)
	prep := c.AddLayer(circuit.OneQubitLayer)
	for q := 0; q < dev.NQubits; q++ {
		switch q % 3 {
		case 0:
			prep.H(q)
		case 1:
			prep.SX(q)
		}
	}
	for d := 0; d < depth; d++ {
		c.Layers = append(c.Layers, tiled.Clone())
	}
	return dev, c
}

// fig8Pipelines are the strategies fig8 benchmarks, under the canned
// gates-only twirl and under the all-qubit twirl the layer-fidelity
// protocol uses.
func fig8Pipelines() []pass.Pipeline {
	var out []pass.Pipeline
	for _, scope := range []twirl.Scope{twirl.GatesOnly, twirl.AllQubits} {
		suffix := ""
		if scope == twirl.AllQubits {
			suffix = ":all"
		}
		with := func(name string, ddStrat dd.Strategy, ec bool) pass.Pipeline {
			ps := []pass.Pass{pass.Twirl(scope), pass.Schedule()}
			if ddStrat != dd.None {
				o := dd.DefaultOptions()
				o.Strategy = ddStrat
				ps = append(ps, pass.DD(o))
			}
			if ec {
				ps = append(ps, pass.EC(caec.DefaultOptions()))
			}
			return pass.New(name+suffix, ps...)
		}
		out = append(out,
			with("twirled", dd.None, false),
			with("dd-aligned", dd.Aligned, false),
			with("ca-dd", dd.ContextAware, false),
			with("ca-ec", dd.None, true),
			with("ca-ec+dd", dd.ContextAware, true),
		)
	}
	return out
}

// digest hashes a compiled circuit and its report bit-exactly: instruction
// order, the Float64bits of every float, nil-vs-empty slices, tags,
// classical bits and conditions, and every report field.
type digest struct {
	h   hash.Hash
	buf [8]byte
}

func newDigest() *digest { return &digest{h: sha256.New()} }

func (d *digest) u64(v uint64) {
	binary.LittleEndian.PutUint64(d.buf[:], v)
	d.h.Write(d.buf[:])
}

func (d *digest) int(v int)     { d.u64(uint64(int64(v))) }
func (d *digest) f64(v float64) { d.u64(math.Float64bits(v)) }

func (d *digest) str(s string) {
	d.int(len(s))
	d.h.Write([]byte(s))
}

func (d *digest) ints(xs []int) {
	if xs == nil {
		d.int(-1)
		return
	}
	d.int(len(xs))
	for _, x := range xs {
		d.int(x)
	}
}

func (d *digest) intMap(m map[int]int) {
	if m == nil {
		d.int(-1)
		return
	}
	keys := make([]int, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Ints(keys)
	d.int(len(keys))
	for _, k := range keys {
		d.int(k)
		d.int(m[k])
	}
}

func (d *digest) circuit(c *circuit.Circuit) {
	d.int(c.NQubits)
	d.int(c.NCBits)
	d.int(len(c.Layers))
	for li := range c.Layers {
		l := &c.Layers[li]
		d.int(int(l.Kind))
		d.f64(l.Start)
		d.f64(l.Duration)
		d.int(len(l.Instrs))
		for ii := range l.Instrs {
			in := &l.Instrs[ii]
			d.str(string(in.Gate))
			d.ints(in.Qubits)
			if in.Params == nil {
				d.int(-1)
			} else {
				d.int(len(in.Params))
				for _, v := range in.Params {
					d.f64(v)
				}
			}
			d.int(in.CBit)
			if in.Cond == nil {
				d.int(-1)
			} else {
				d.int(in.Cond.Bit)
				d.int(in.Cond.Value)
			}
			d.str(in.Tag)
			d.f64(in.Time)
		}
	}
}

func (d *digest) report(r pass.Report) {
	d.str(r.Pipeline)
	d.int(len(r.Applied))
	for _, a := range r.Applied {
		d.str(a)
	}
	d.int(len(r.DD.Windows))
	for _, w := range r.DD.Windows {
		d.ints(w.Window.Qubits)
		d.f64(w.Window.Start)
		d.f64(w.Window.End)
		d.intMap(w.Colors)
		d.intMap(w.Rows)
		d.int(w.Pulses)
	}
	d.int(r.DD.Total)
	ec := r.EC
	for _, v := range []int{ec.VirtualRZ, ec.AbsorbedUcan, ec.AbsorbedCX, ec.InsertedRZZ, ec.Conditional, ec.SignFlips, ec.Dropped} {
		d.int(v)
	}
	d.f64(ec.DroppedAngles)
	d.f64(r.Duration)
	d.ints(r.Layout)
	d.f64(r.LayoutScore)
	d.ints(r.FinalLayout)
	d.int(r.Swaps)
	d.str(r.Engine)
}

func (d *digest) sum() string { return hex.EncodeToString(d.h.Sum(nil))[:16] }

// compileDigest compiles c under pl with a fresh RNG of the seed and
// hashes the result and its report.
func compileDigest(t testing.TB, pl pass.Pipeline, dev *device.Device, c *circuit.Circuit, seed int64) string {
	t.Helper()
	out, rep, err := pl.Apply(dev, rand.New(rand.NewSource(seed)), c)
	if err != nil {
		t.Fatalf("%s: %v", pl.Name, err)
	}
	d := newDigest()
	d.circuit(out)
	d.report(rep)
	return d.sum()
}

// golden127 pins every fig8 strategy's compiled circuits and reports on
// the Eagle tiling bit for bit: one hash per pipeline over depths 1, 2, 4
// and seeds 7, 11. The text-rendered legacy golden (3-decimal params,
// sorted instructions) and the figure digests cannot see ulp or
// instruction-order drift; these hashes can.
var golden127 = map[string]string{
	"twirled":        "000cc3603bfb3530",
	"dd-aligned":     "d5f7d8b30ecc6bac",
	"ca-dd":          "b869c83970e25285",
	"ca-ec":          "3ed6ad558239dd15",
	"ca-ec+dd":       "97aef4cc76bb675c",
	"twirled:all":    "55a8aab36eab0362",
	"dd-aligned:all": "33bcab4e7d2c70ce",
	"ca-dd:all":      "3271e17ed1ff664f",
	"ca-ec:all":      "226b9da609f15daf",
	"ca-ec+dd:all":   "1f381ea590ec98b1",
}

func TestCompileGolden127Q(t *testing.T) {
	circuits := map[int]*circuit.Circuit{}
	var dev *device.Device
	for _, depth := range []int{1, 2, 4} {
		dev, circuits[depth] = eagleCircuit(t, depth)
	}
	for _, pl := range fig8Pipelines() {
		all := newDigest()
		for _, depth := range []int{1, 2, 4} {
			for _, seed := range []int64{7, 11} {
				all.str(compileDigest(t, pl, dev, circuits[depth], seed))
			}
		}
		got := all.sum()
		if want := golden127[pl.Name]; got != want {
			t.Errorf("%s: compile hash %s, golden %s", pl.Name, got, want)
		}
	}
}

// TestCAECCompileBitDeterministic127Q compiles CA-EC and CA-EC+DD
// repeatedly from one seed: every compile must serialize to the same bits.
// Summing Stark terms or dropped angles in map order made CA-EC's virtual
// Rz angles and report drift by ulps from run to run.
func TestCAECCompileBitDeterministic127Q(t *testing.T) {
	dev, c := eagleCircuit(t, 4)
	for _, pl := range []pass.Pipeline{pass.CAEC(), pass.Combined()} {
		seen := map[string]int{}
		for i := 0; i < 20; i++ {
			seen[compileDigest(t, pl, dev, c, 7)]++
		}
		if len(seen) != 1 {
			t.Errorf("%s: 20 compiles from one seed gave %d distinct serializations", pl.Name, len(seen))
		}
	}
}

// TestFig8PassAllocs pins the allocation counts of one twirl instance and
// one CA-DD insertion on fig8's depth-4 Eagle circuit at O(layers): a few
// slabs per layer and per window, nothing per gate, Pauli or pulse (the
// circuit holds over a thousand instructions). dd.Insert's fixed share is
// the crosstalk graph it builds per call, a few allocations per qubit.
func TestFig8PassAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not pinned under the race detector")
	}
	dev, c := eagleCircuit(t, 4)
	rng := rand.New(rand.NewSource(1))
	twirlAllocs := testing.AllocsPerRun(20, func() {
		if _, err := twirl.Instance(c, twirl.AllQubits, rng); err != nil {
			t.Fatal(err)
		}
	})
	if limit := 6*len(c.Layers) + 8; twirlAllocs > float64(limit) {
		t.Errorf("twirl.Instance allocated %.0f times on %d layers, want <= %d", twirlAllocs, len(c.Layers), limit)
	}

	tw, err := twirl.Instance(c, twirl.AllQubits, rand.New(rand.NewSource(3)))
	if err != nil {
		t.Fatal(err)
	}
	sched.Schedule(tw, dev)
	const runs = 20
	fresh := make([]*circuit.Circuit, runs+1) // AllocsPerRun adds a warm-up call
	for i := range fresh {
		fresh[i] = tw.Clone()
	}
	next := 0
	ddAllocs := testing.AllocsPerRun(runs, func() {
		if _, err := dd.Insert(fresh[next], dev, dd.DefaultOptions()); err != nil {
			t.Fatal(err)
		}
		next++
	})
	if limit := 3*dev.NQubits + 40*len(tw.Layers); ddAllocs > float64(limit) {
		t.Errorf("dd.Insert allocated %.0f times on %d layers, want <= %d", ddAllocs, len(tw.Layers), limit)
	}
}
