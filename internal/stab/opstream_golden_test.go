package stab

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"testing"

	"casq/internal/device"
	"casq/internal/pass"
	"casq/internal/sim"
)

// goldenOpStreams pins the compiled op stream and reference measurement
// record of each opStreamCases entry. A change here moves every stab
// figure: re-record only for an intended change to the channel derivation.
var goldenOpStreams = map[string]string{
	"eagle127":          "8d0f56f4335e51bc",
	"heavyhex29":        "86f66b4477336db8",
	"line5":             "6c506ad418a31b24",
	"eagle127-combined": "08a09eec9eae0e96",
}

// programDigest folds p's ops and measurement records into a 64-bit
// FNV-1a digest: integer fields as 8-byte words, floats by their exact
// bits, Clifford ops by their conjugation tables' word masks (the tables
// are memoized pointers, so their contents, not their addresses, identify
// them).
func programDigest(p *program) string {
	d := fnv.New64a()
	var b [8]byte
	w := func(v uint64) {
		binary.LittleEndian.PutUint64(b[:], v)
		d.Write(b[:])
	}
	f := func(v float64) { w(math.Float64bits(v)) }
	w(uint64(len(p.ops)))
	for i := range p.ops {
		o := &p.ops[i]
		w(uint64(o.kind))
		w(uint64(o.q0))
		w(uint64(o.q1))
		w(uint64(o.p))
		f(o.thrX)
		f(o.thrXY)
		f(o.thrXYZ)
		f(o.prob)
		w(uint64(o.cbit))
		w(uint64(o.mi))
		if c := o.c1; c != nil {
			for _, m := range [...]uint64{c.mxx, c.mzx, c.mxz, c.mzz, c.negX, c.negY, c.negZ} {
				w(m)
			}
		}
		if c := o.c2; c != nil {
			for _, row := range c.m {
				for _, m := range row {
					w(m)
				}
			}
			w(uint64(len(c.neg)))
			for _, lit := range c.neg {
				for _, m := range lit {
					w(m)
				}
			}
		}
	}
	w(uint64(len(p.meas)))
	for _, m := range p.meas {
		w(uint64(m.ref))
		if m.det {
			w(1)
		} else {
			w(0)
		}
		w(uint64(len(m.fx)))
		for _, v := range m.fx {
			w(v)
		}
		for _, v := range m.fz {
			w(v)
		}
	}
	return fmt.Sprintf("%016x", d.Sum64())
}

// opStreamCases are the arena fixtures plus a 127-qubit instance of the
// full ca-ec+dd pipeline (twirl, CA-DD, CA-EC compensation gates, final
// measurements) under the default noise config.
func opStreamCases(t *testing.T) []arenaCase {
	t.Helper()
	cases := arenaCases(t)
	dev, err := device.NewBackend("eagle127")
	if err != nil {
		t.Fatal(err)
	}
	c, _, err := pass.Combined().Apply(dev, rand.New(rand.NewSource(13)), layerFidCircuit(dev, 2, true))
	if err != nil {
		t.Fatal(err)
	}
	return append(cases, arenaCase{name: "eagle127-combined", eng: New(dev, sim.DefaultConfig()), c: c})
}

// TestOpStreamGolden compiles every opStreamCases entry in a fresh arena
// and compares the digest of its op stream and reference record with the
// recorded one, so that a refactor of the schedule walker or the channel
// derivation cannot move a single channel probability unnoticed.
func TestOpStreamGolden(t *testing.T) {
	for _, k := range opStreamCases(t) {
		p, err := k.eng.compileIn(new(arena), k.c)
		if err != nil {
			t.Fatalf("%s: %v", k.name, err)
		}
		if got, want := programDigest(p), goldenOpStreams[k.name]; got != want {
			t.Errorf("%s: op stream digest %s, golden %s (%d ops, %d measurements)", k.name, got, want, len(p.ops), len(p.meas))
		}
	}
}
