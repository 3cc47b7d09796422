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

var (
	tableMu  sync.Mutex
	tables   = map[gates.Kind]*pauli.CliffordTable{}
	twoPauli = []pauli.Pauli{pauli.I, pauli.X, pauli.Y, pauli.Z}
)

// TableFor returns (building on first use) the Pauli conjugation table of a
// Clifford two-qubit gate kind.
func TableFor(k gates.Kind) (*pauli.CliffordTable, error) {
	tableMu.Lock()
	defer tableMu.Unlock()
	if t, ok := tables[k]; ok {
		return t, nil
	}
	switch k {
	case gates.ECR, gates.CX, gates.SWAP:
	default:
		return nil, fmt.Errorf("twirl: %s is not a supported Clifford gate", k)
	}
	t, err := pauli.NewCliffordTable(gates.Matrix2Q(k))
	if err != nil {
		return nil, fmt.Errorf("twirl: %s: %w", k, err)
	}
	tables[k] = t
	return t, nil
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

func addPauli(l *circuit.Layer, p pauli.Pauli, q int) {
	if p == pauli.I {
		return
	}
	l.Add(circuit.Instruction{Gate: pauliGate(p), Qubits: []int{q}, Tag: "twirl"})
}

// Instance returns a new circuit with one sampled Pauli twirl applied: every
// two-qubit layer is wrapped in a pre- and post-TwirlLayer whose Paulis
// preserve the layer's logical operation. Layers containing non-twirlable
// gates are passed through unchanged.
func Instance(c *circuit.Circuit, scope Scope, rng *rand.Rand) (*circuit.Circuit, error) {
	out := circuit.New(c.NQubits, c.NCBits)
	for _, l := range c.Layers {
		if l.Kind != circuit.TwoQubitLayer || l.NumTwoQubitGates() == 0 {
			out.Layers = append(out.Layers, l.Clone())
			continue
		}
		pre := circuit.Layer{Kind: circuit.TwirlLayer}
		post := circuit.Layer{Kind: circuit.TwirlLayer}
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
					return nil, err
				}
				p := pauli.Pair{P0: twoPauli[rng.Intn(4)], P1: twoPauli[rng.Intn(4)]}
				q, _ := tab.InvertFor(p) // global sign is unobservable
				addPauli(&pre, p.P0, q0)
				addPauli(&pre, p.P1, q1)
				addPauli(&post, q.P0, q0)
				addPauli(&post, q.P1, q1)
			case gates.RZZ, gates.Ucan:
				// Twirl group restricted to the commutant {II, XX, YY, ZZ}.
				p := twoPauli[rng.Intn(4)]
				addPauli(&pre, p, q0)
				addPauli(&pre, p, q1)
				addPauli(&post, p, q0)
				addPauli(&post, p, q1)
			default:
				ok = false
			}
		}
		if !ok {
			out.Layers = append(out.Layers, l.Clone())
			continue
		}
		if scope == AllQubits {
			for _, q := range l.IdleQubits(c.NQubits) {
				p := twoPauli[rng.Intn(4)]
				addPauli(&pre, p, q)
				addPauli(&post, p, q)
			}
		}
		out.Layers = append(out.Layers, pre, l.Clone(), post)
	}
	return out, nil
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
