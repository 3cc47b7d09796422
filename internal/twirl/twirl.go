// Package twirl implements Pauli twirling of two-qubit gate layers (paper
// Sec. III A, Fig. 2). For Clifford gates (ECR, CX) the post-gate Paulis are
// derived from a conjugation table so that the layer's logical action is
// unchanged; for the commuting-family gates (RZZ, Ucan) the twirl group is
// {II, XX, YY, ZZ}. Twirl gates live in dedicated zero-duration TwirlLayers
// and are merged into neighboring single-qubit gates at execution time, so
// they add no runtime and no extra gate error — matching the paper's model.
package twirl

import (
	"fmt"
	"math/rand"
	"sync"

	"casq/internal/circuit"
	"casq/internal/gates"
	"casq/internal/pauli"
)

// Scope selects which qubits receive twirl Paulis.
type Scope int

const (
	// GatesOnly twirls only the qubits participating in two-qubit gates
	// (the PEC/PEA workflow of Sec. III A).
	GatesOnly Scope = iota
	// AllQubits additionally twirls idle qubits in two-qubit layers with
	// self-inverting random Paulis, as the layer-fidelity protocol does.
	AllQubits
)

var twoPauli = []pauli.Pauli{pauli.I, pauli.X, pauli.Y, pauli.Z}

// cliffordTables holds the conjugation tables of the supported Clifford
// gates, built once on first use and read-only after, so concurrent
// compiles look them up without a lock.
var cliffordTables = sync.OnceValue(func() *[3]cliffordTable {
	ts := new([3]cliffordTable)
	for i, k := range [3]gates.Kind{gates.ECR, gates.CX, gates.SWAP} {
		t, err := pauli.NewCliffordTable(gates.Matrix2Q(k))
		if err != nil {
			err = fmt.Errorf("twirl: %s: %w", k, err)
		}
		ts[i] = cliffordTable{t, err}
	}
	return ts
})

type cliffordTable struct {
	t   *pauli.CliffordTable
	err error
}

// TableFor returns the Pauli conjugation table of a Clifford two-qubit gate
// kind.
func TableFor(k gates.Kind) (*pauli.CliffordTable, error) {
	var i int
	switch k {
	case gates.ECR:
		i = 0
	case gates.CX:
		i = 1
	case gates.SWAP:
		i = 2
	default:
		return nil, fmt.Errorf("twirl: %s is not a supported Clifford gate", k)
	}
	ct := &cliffordTables()[i]
	return ct.t, ct.err
}

func pauliGate(p pauli.Pauli) gates.Kind {
	switch p {
	case pauli.X:
		return gates.XGate
	case pauli.Y:
		return gates.YGate
	case pauli.Z:
		return gates.ZGate
	}
	return gates.ID
}

// twirlLayer builds one pre- or post-TwirlLayer. Instrs and the qubit slab
// are sized for the most Paulis the layer can hold, so adding one never
// allocates; each Pauli's Qubits is a capped one-element window of the
// slab. Paulis are appended without Layer.Add's disjointness scan: twirl
// puts at most one Pauli on each qubit of an already valid layer (and
// Pipeline.ApplyContext validates its output).
type twirlLayer struct {
	l    circuit.Layer
	slab []int
}

func newTwirlLayer(n int) twirlLayer {
	return twirlLayer{
		l:    circuit.Layer{Kind: circuit.TwirlLayer, Instrs: make([]circuit.Instruction, 0, n)},
		slab: make([]int, 0, n),
	}
}

func (t *twirlLayer) add(p pauli.Pauli, q int) {
	if p == pauli.I {
		return
	}
	k := len(t.slab)
	t.slab = append(t.slab, q)
	t.l.Instrs = append(t.l.Instrs, circuit.Instruction{Gate: pauliGate(p), Qubits: t.slab[k : k+1 : k+1], Tag: "twirl"})
}

// Instance returns a new circuit with one sampled Pauli twirl applied (see
// Apply); c is not modified.
func Instance(c *circuit.Circuit, scope Scope, rng *rand.Rand) (*circuit.Circuit, error) {
	out := c.Clone()
	if err := Apply(out, scope, rng); err != nil {
		return nil, err
	}
	return out, nil
}

// Apply samples one Pauli twirl into c in place: every two-qubit layer is
// wrapped in a pre- and post-TwirlLayer whose Paulis preserve the layer's
// logical operation. Layers containing non-twirlable gates are passed
// through unchanged. The layers of c move into the twirled circuit as they
// are; on error c is left unchanged.
func Apply(c *circuit.Circuit, scope Scope, rng *rand.Rand) error {
	nLayers := len(c.Layers)
	for i := range c.Layers {
		if l := &c.Layers[i]; l.Kind == circuit.TwoQubitLayer && l.NumTwoQubitGates() > 0 {
			nLayers += 2
		}
	}
	layers := make([]circuit.Layer, 0, nLayers)
	// busy[q] == li+1 marks qubit q active in layer li (for AllQubits).
	var busy []int32
	if scope == AllQubits {
		busy = make([]int32, c.NQubits)
	}
	for li := range c.Layers {
		l := &c.Layers[li]
		n2q := l.NumTwoQubitGates()
		if l.Kind != circuit.TwoQubitLayer || n2q == 0 {
			layers = append(layers, *l)
			continue
		}
		size := 2 * n2q
		if scope == AllQubits {
			size = max(size, c.NQubits)
		}
		pre, post := newTwirlLayer(size), newTwirlLayer(size)
		ok := true
		for i := range l.Instrs {
			in := &l.Instrs[i]
			if gates.NumQubits(in.Gate) != 2 {
				continue
			}
			q0, q1 := in.Qubits[0], in.Qubits[1]
			switch in.Gate {
			case gates.ECR, gates.CX, gates.SWAP:
				tab, err := TableFor(in.Gate)
				if err != nil {
					return err
				}
				p := pauli.Pair{P0: twoPauli[rng.Intn(4)], P1: twoPauli[rng.Intn(4)]}
				q, _ := tab.InvertFor(p) // global sign is unobservable
				pre.add(p.P0, q0)
				pre.add(p.P1, q1)
				post.add(q.P0, q0)
				post.add(q.P1, q1)
			case gates.RZZ, gates.Ucan:
				// Twirl group restricted to the commutant {II, XX, YY, ZZ}.
				p := twoPauli[rng.Intn(4)]
				pre.add(p, q0)
				pre.add(p, q1)
				post.add(p, q0)
				post.add(p, q1)
			default:
				ok = false
			}
		}
		if !ok {
			layers = append(layers, *l)
			continue
		}
		if scope == AllQubits {
			// The idle qubits of the layer, ascending, as Layer.IdleQubits
			// lists them.
			stamp := int32(li + 1)
			for i := range l.Instrs {
				if in := &l.Instrs[i]; in.Gate != gates.Delay {
					for _, q := range in.Qubits {
						if q >= 0 && q < len(busy) {
							busy[q] = stamp
						}
					}
				}
			}
			for q := range busy {
				if busy[q] == stamp {
					continue
				}
				p := twoPauli[rng.Intn(4)]
				pre.add(p, q)
				post.add(p, q)
			}
		}
		layers = append(layers, pre.l, *l, post.l)
	}
	c.Layers = layers
	return nil
}

// Instances samples k independent twirls of c.
func Instances(c *circuit.Circuit, scope Scope, k int, rng *rand.Rand) ([]*circuit.Circuit, error) {
	out := make([]*circuit.Circuit, 0, k)
	for i := 0; i < k; i++ {
		inst, err := Instance(c, scope, rng)
		if err != nil {
			return nil, err
		}
		out = append(out, inst)
	}
	return out, nil
}

// PropagateThroughLayer conjugates a Pauli string through the ideal action
// of a two-qubit Clifford layer: s -> L s L^dagger (sign tracked via the
// phase). Qubits without gates are unchanged. Used by the layer-fidelity
// protocol to know which Pauli to measure after d layer applications.
func PropagateThroughLayer(l *circuit.Layer, s pauli.String) (pauli.String, error) {
	out := pauli.String{Ops: append([]pauli.Pauli(nil), s.Ops...), Phase: s.Phase}
	for i := range l.Instrs {
		in := &l.Instrs[i]
		if gates.NumQubits(in.Gate) != 2 {
			continue
		}
		tab, err := TableFor(in.Gate)
		if err != nil {
			return pauli.String{}, err
		}
		q0, q1 := in.Qubits[0], in.Qubits[1]
		c := tab.Conjugate(pauli.Pair{P0: out.Ops[q0], P1: out.Ops[q1]})
		out.Ops[q0], out.Ops[q1] = c.Out.P0, c.Out.P1
		if c.Sign < 0 {
			out.Phase = (out.Phase + 2) % 4
		}
	}
	return out, nil
}
