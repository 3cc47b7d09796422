// Package circuit defines the layered circuit IR of the casq compiler.
//
// Following the paper (Sec. III A), circuits are stratified into alternating
// layers of single-qubit and two-qubit gates; measurement/feed-forward
// windows and twirl layers are additional layer kinds. All compiler passes
// (scheduling, twirling, CA-DD, CA-EC) and the noisy simulator operate on
// this representation. Within a layer, instructions act on disjoint qubits
// and are considered simultaneous; the scheduler assigns every layer a start
// time and duration, and DD passes attach sub-layer pulse times to inserted
// X pulses.
package circuit

import (
	"fmt"
	"sort"
	"strings"

	"casq/internal/gates"
)

// Condition gates an instruction on a classical bit value (feed-forward).
type Condition struct {
	Bit   int
	Value int
}

// Instruction is one gate or pseudo-op application.
type Instruction struct {
	Gate   gates.Kind
	Qubits []int
	Params []float64
	CBit   int        // classical bit written by Measure
	Cond   *Condition // optional classical control
	Tag    string     // provenance: "", "dd", "twirl", "ec"
	Time   float64    // pulse offset within the layer (ns), used by DD pulses
}

// Clone deep-copies the instruction.
func (in Instruction) Clone() Instruction {
	out := in
	out.Qubits = append([]int(nil), in.Qubits...)
	out.Params = append([]float64(nil), in.Params...)
	if in.Cond != nil {
		c := *in.Cond
		out.Cond = &c
	}
	return out
}

// LayerKind classifies a layer.
type LayerKind int

// Layer kinds. TwirlLayer holds virtual Pauli gates that are merged into
// neighboring single-qubit gates at execution time (zero duration, zero
// cost), matching the paper's twirling model.
const (
	OneQubitLayer LayerKind = iota
	TwoQubitLayer
	MeasureLayer
	TwirlLayer
)

func (k LayerKind) String() string {
	switch k {
	case OneQubitLayer:
		return "1q"
	case TwoQubitLayer:
		return "2q"
	case MeasureLayer:
		return "meas"
	case TwirlLayer:
		return "twirl"
	}
	return fmt.Sprintf("LayerKind(%d)", int(k))
}

// Layer is a set of simultaneous instructions.
type Layer struct {
	Kind     LayerKind
	Instrs   []Instruction
	Duration float64 // ns, set by the scheduler
	Start    float64 // ns, set by the scheduler
}

// Clone deep-copies the layer. It allocates per layer, not per
// instruction: every Qubits and Params slice is carved from one slab
// (capacity-capped, so an append to one instruction's slice never reaches
// its neighbor), and empty slices clone to nil, as Instruction.Clone does.
func (l Layer) Clone() Layer {
	nq, np := slabLens(l.Instrs)
	out := l
	out.Instrs = make([]Instruction, len(l.Instrs))
	cloneInstrs(out.Instrs, l.Instrs, make([]int, nq), make([]float64, np))
	return out
}

// slabLens returns the total Qubits and Params lengths of ins.
func slabLens(ins []Instruction) (nq, np int) {
	for i := range ins {
		nq += len(ins[i].Qubits)
		np += len(ins[i].Params)
	}
	return nq, np
}

// cloneInstrs deep-copies src into dst, carving Qubits and Params from the
// slabs, and returns the unused rest of each slab.
func cloneInstrs(dst, src []Instruction, qs []int, ps []float64) ([]int, []float64) {
	for i := range src {
		in, o := &src[i], &dst[i]
		*o = *in
		o.Qubits, qs = carve(qs, in.Qubits)
		o.Params, ps = carve(ps, in.Params)
		if in.Cond != nil {
			c := *in.Cond
			o.Cond = &c
		}
	}
	return qs, ps
}

// carve copies src into the front of slab and returns that capped copy (nil
// for an empty src) and the rest of slab.
func carve[T any](slab, src []T) (out, rest []T) {
	if len(src) == 0 {
		return nil, slab
	}
	n := copy(slab, src)
	return slab[:n:n], slab[n:]
}

// Add appends an instruction after validating qubit disjointness and kind
// compatibility. Disjointness is checked by scanning Instrs rather than
// against cached occupancy: Instrs is exported and rewritten in place (e.g.
// by layout remapping), so a cache could go stale, and the scan allocates
// nothing.
func (l *Layer) Add(in Instruction) *Layer {
	// DD pulses carry explicit intra-layer times and may repeat on one
	// qubit within a layer window.
	if in.Gate != gates.Barrier && in.Tag != "dd" {
		for _, q := range in.Qubits {
			if l.occupied(q) {
				panic(fmt.Sprintf("circuit: qubit %d used twice in one layer", q))
			}
		}
	}
	arity := gates.NumQubits(in.Gate)
	if arity > 0 && len(in.Qubits) != arity {
		panic(fmt.Sprintf("circuit: %s expects %d qubits, got %d", in.Gate, arity, len(in.Qubits)))
	}
	switch l.Kind {
	case OneQubitLayer, TwirlLayer:
		if arity != 1 && in.Gate != gates.Delay {
			panic(fmt.Sprintf("circuit: %s not allowed in %s layer", in.Gate, l.Kind))
		}
	case TwoQubitLayer:
		if arity == 0 && in.Gate != gates.Delay {
			panic(fmt.Sprintf("circuit: %s not allowed in 2q layer", in.Gate))
		}
	case MeasureLayer:
		if in.Gate != gates.Measure && in.Gate != gates.Delay && arity != 1 {
			panic(fmt.Sprintf("circuit: %s not allowed in measure layer", in.Gate))
		}
	}
	l.Instrs = append(l.Instrs, in)
	return l
}

// occupied reports whether a non-delay instruction of the layer acts on q.
func (l *Layer) occupied(q int) bool {
	for i := range l.Instrs {
		in := &l.Instrs[i]
		if in.Gate == gates.Delay {
			continue
		}
		for _, iq := range in.Qubits {
			if iq == q {
				return true
			}
		}
	}
	return false
}

// ActiveQubits returns the set of qubits touched by non-delay instructions.
func (l *Layer) ActiveQubits() map[int]bool {
	out := map[int]bool{}
	for _, in := range l.Instrs {
		if in.Gate == gates.Delay {
			continue
		}
		for _, q := range in.Qubits {
			out[q] = true
		}
	}
	return out
}

// IdleQubits returns the sorted qubits in [0, n) not active in the layer.
func (l *Layer) IdleQubits(n int) []int {
	active := l.ActiveQubits()
	var out []int
	for q := 0; q < n; q++ {
		if !active[q] {
			out = append(out, q)
		}
	}
	return out
}

// GateOn returns the non-delay instruction acting on q, if any.
func (l *Layer) GateOn(q int) (Instruction, bool) {
	for _, in := range l.Instrs {
		if in.Gate == gates.Delay {
			continue
		}
		for _, iq := range in.Qubits {
			if iq == q {
				return in, true
			}
		}
	}
	return Instruction{}, false
}

// NumTwoQubitGates returns the number of 2-qubit gate instructions of the
// layer.
func (l *Layer) NumTwoQubitGates() int {
	n := 0
	for i := range l.Instrs {
		if gates.NumQubits(l.Instrs[i].Gate) == 2 {
			n++
		}
	}
	return n
}

// TwoQubitGates returns the 2-qubit gate instructions of the layer (nil
// when there are none).
func (l *Layer) TwoQubitGates() []Instruction {
	n := l.NumTwoQubitGates()
	if n == 0 {
		return nil
	}
	out := make([]Instruction, 0, n)
	for i := range l.Instrs {
		if gates.NumQubits(l.Instrs[i].Gate) == 2 {
			out = append(out, l.Instrs[i])
		}
	}
	return out
}

// Circuit is a layered quantum circuit.
type Circuit struct {
	NQubits int
	NCBits  int
	Layers  []Layer
}

// New returns an empty circuit on nQubits and nCBits.
func New(nQubits, nCBits int) *Circuit {
	return &Circuit{NQubits: nQubits, NCBits: nCBits}
}

// Clone deep-copies the circuit. Like Layer.Clone it carves from slabs,
// here one each for the instructions, qubits and params of all layers.
func (c *Circuit) Clone() *Circuit {
	out := &Circuit{NQubits: c.NQubits, NCBits: c.NCBits}
	out.Layers = make([]Layer, len(c.Layers))
	ni, nq, np := 0, 0, 0
	for i := range c.Layers {
		q, p := slabLens(c.Layers[i].Instrs)
		ni, nq, np = ni+len(c.Layers[i].Instrs), nq+q, np+p
	}
	ins, qs, ps := make([]Instruction, ni), make([]int, nq), make([]float64, np)
	for i := range c.Layers {
		l := &c.Layers[i]
		n := len(l.Instrs)
		out.Layers[i] = *l
		out.Layers[i].Instrs = ins[:n:n]
		qs, ps = cloneInstrs(ins[:n], l.Instrs, qs, ps)
		ins = ins[n:]
	}
	return out
}

// AddLayer appends a new empty layer of the given kind and returns it for
// fluent population.
func (c *Circuit) AddLayer(kind LayerKind) *Layer {
	c.Layers = append(c.Layers, Layer{Kind: kind})
	return &c.Layers[len(c.Layers)-1]
}

// InsertLayer inserts an empty layer at index i and returns it.
func (c *Circuit) InsertLayer(i int, kind LayerKind) *Layer {
	c.Layers = append(c.Layers, Layer{})
	copy(c.Layers[i+1:], c.Layers[i:])
	c.Layers[i] = Layer{Kind: kind}
	return &c.Layers[i]
}

// Builder helpers on Layer for the common gate set.

// H adds a Hadamard.
func (l *Layer) H(q int) *Layer { return l.Add(Instruction{Gate: gates.H, Qubits: []int{q}}) }

// X adds an X gate.
func (l *Layer) X(q int) *Layer { return l.Add(Instruction{Gate: gates.XGate, Qubits: []int{q}}) }

// Y adds a Y gate.
func (l *Layer) Y(q int) *Layer { return l.Add(Instruction{Gate: gates.YGate, Qubits: []int{q}}) }

// Z adds a Z gate.
func (l *Layer) Z(q int) *Layer { return l.Add(Instruction{Gate: gates.ZGate, Qubits: []int{q}}) }

// SX adds a sqrt(X).
func (l *Layer) SX(q int) *Layer { return l.Add(Instruction{Gate: gates.SX, Qubits: []int{q}}) }

// S adds an S gate.
func (l *Layer) S(q int) *Layer { return l.Add(Instruction{Gate: gates.S, Qubits: []int{q}}) }

// Sdg adds an S-dagger gate.
func (l *Layer) Sdg(q int) *Layer { return l.Add(Instruction{Gate: gates.Sdg, Qubits: []int{q}}) }

// RZ adds a virtual Z rotation.
func (l *Layer) RZ(q int, theta float64) *Layer {
	return l.Add(Instruction{Gate: gates.RZ, Qubits: []int{q}, Params: []float64{theta}})
}

// RY adds a Y rotation.
func (l *Layer) RY(q int, theta float64) *Layer {
	return l.Add(Instruction{Gate: gates.RY, Qubits: []int{q}, Params: []float64{theta}})
}

// U adds a generic U3 gate.
func (l *Layer) U(q int, theta, phi, lambda float64) *Layer {
	return l.Add(Instruction{Gate: gates.U3, Qubits: []int{q}, Params: []float64{theta, phi, lambda}})
}

// ECR adds an echoed cross-resonance gate with the given control and target.
func (l *Layer) ECR(control, target int) *Layer {
	return l.Add(Instruction{Gate: gates.ECR, Qubits: []int{control, target}})
}

// CX adds a CNOT.
func (l *Layer) CX(control, target int) *Layer {
	return l.Add(Instruction{Gate: gates.CX, Qubits: []int{control, target}})
}

// RZZ adds an Rzz rotation.
func (l *Layer) RZZ(a, b int, theta float64) *Layer {
	return l.Add(Instruction{Gate: gates.RZZ, Qubits: []int{a, b}, Params: []float64{theta}})
}

// Ucan adds the canonical two-qubit gate exp[i(a XX + b YY + g ZZ)].
func (l *Layer) Ucan(q0, q1 int, alpha, beta, gamma float64) *Layer {
	return l.Add(Instruction{Gate: gates.Ucan, Qubits: []int{q0, q1}, Params: []float64{alpha, beta, gamma}})
}

// Measure adds a measurement of q into classical bit cbit.
func (l *Layer) Measure(q, cbit int) *Layer {
	return l.Add(Instruction{Gate: gates.Measure, Qubits: []int{q}, CBit: cbit})
}

// CondX adds an X gate conditioned on a classical bit value.
func (l *Layer) CondX(q, bit, value int) *Layer {
	return l.Add(Instruction{Gate: gates.XGate, Qubits: []int{q}, Cond: &Condition{Bit: bit, Value: value}})
}

// CondRZ adds a conditioned virtual Z rotation.
func (l *Layer) CondRZ(q int, theta float64, bit, value int) *Layer {
	return l.Add(Instruction{Gate: gates.RZ, Qubits: []int{q}, Params: []float64{theta}, Cond: &Condition{Bit: bit, Value: value}})
}

// Validate checks structural invariants: qubit indices in range, classical
// bits in range, layer contents matching their kinds.
func (c *Circuit) Validate() error {
	// seen[q] == li+1 marks qubit q as occupied in layer li, so one slice
	// serves every layer without clearing. Devices up to 128 qubits fit
	// the stack buffer.
	var buf [128]int32
	seen := buf[:]
	if c.NQubits > len(buf) {
		seen = make([]int32, c.NQubits)
	}
	for li := range c.Layers {
		l := &c.Layers[li]
		stamp := int32(li + 1)
		for ii := range l.Instrs {
			in := &l.Instrs[ii]
			for _, q := range in.Qubits {
				if q < 0 || q >= c.NQubits {
					return fmt.Errorf("circuit: layer %d: qubit %d out of range", li, q)
				}
				if in.Gate != gates.Delay && in.Gate != gates.Barrier && in.Tag != "dd" {
					if seen[q] == stamp {
						return fmt.Errorf("circuit: layer %d: qubit %d used twice", li, q)
					}
					seen[q] = stamp
				}
			}
			if in.Gate == gates.Measure && (in.CBit < 0 || in.CBit >= c.NCBits) {
				return fmt.Errorf("circuit: layer %d: cbit %d out of range", li, in.CBit)
			}
			if in.Cond != nil && (in.Cond.Bit < 0 || in.Cond.Bit >= c.NCBits) {
				return fmt.Errorf("circuit: layer %d: condition bit %d out of range", li, in.Cond.Bit)
			}
			if l.Kind == TwoQubitLayer && gates.NumQubits(in.Gate) == 1 && in.Tag != "dd" {
				return fmt.Errorf("circuit: layer %d: 1q gate %s in 2q layer without dd tag", li, in.Gate)
			}
		}
	}
	return nil
}

// Depth returns the number of layers.
func (c *Circuit) Depth() int { return len(c.Layers) }

// CountGates returns the number of instructions with the given kind.
func (c *Circuit) CountGates(k gates.Kind) int {
	n := 0
	for _, l := range c.Layers {
		for _, in := range l.Instrs {
			if in.Gate == k {
				n++
			}
		}
	}
	return n
}

// TotalDuration returns end time of the last layer (requires scheduling).
func (c *Circuit) TotalDuration() float64 {
	if len(c.Layers) == 0 {
		return 0
	}
	last := c.Layers[len(c.Layers)-1]
	return last.Start + last.Duration
}

// String renders a compact per-layer listing.
func (c *Circuit) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "circuit(%dq, %dc, %d layers)\n", c.NQubits, c.NCBits, len(c.Layers))
	for i, l := range c.Layers {
		fmt.Fprintf(&b, "  L%-3d %-5s t=%8.1f dur=%7.1f | ", i, l.Kind, l.Start, l.Duration)
		parts := make([]string, 0, len(l.Instrs))
		for _, in := range l.Instrs {
			s := string(in.Gate)
			if len(in.Params) > 0 {
				ps := make([]string, len(in.Params))
				for j, p := range in.Params {
					ps[j] = fmt.Sprintf("%.3f", p)
				}
				s += "(" + strings.Join(ps, ",") + ")"
			}
			qs := make([]string, len(in.Qubits))
			for j, q := range in.Qubits {
				qs[j] = fmt.Sprintf("q%d", q)
			}
			s += " " + strings.Join(qs, ",")
			if in.Gate == gates.Measure {
				s += fmt.Sprintf("->c%d", in.CBit)
			}
			if in.Cond != nil {
				s += fmt.Sprintf(" if c%d==%d", in.Cond.Bit, in.Cond.Value)
			}
			if in.Tag != "" {
				s += "[" + in.Tag + "]"
			}
			parts = append(parts, s)
		}
		sort.Strings(parts)
		b.WriteString(strings.Join(parts, "; "))
		b.WriteString("\n")
	}
	return b.String()
}

// Draw renders an ASCII timeline: one row per qubit, one column per layer.
func (c *Circuit) Draw() string {
	cols := make([][]string, c.NQubits)
	for q := range cols {
		cols[q] = make([]string, len(c.Layers))
	}
	width := make([]int, len(c.Layers))
	for li, l := range c.Layers {
		for _, in := range l.Instrs {
			label := string(in.Gate)
			switch {
			case in.Gate == gates.Delay:
				label = "."
			case in.Gate == gates.Measure:
				label = "M"
			case in.Tag == "dd":
				label = "x*"
			case in.Tag == "twirl":
				label = "t:" + string(in.Gate)
			}
			if gates.NumQubits(in.Gate) == 2 {
				cols[in.Qubits[0]][li] = label + ":C"
				cols[in.Qubits[1]][li] = label + ":T"
			} else {
				for _, q := range in.Qubits {
					cols[q][li] = label
				}
			}
		}
		for q := 0; q < c.NQubits; q++ {
			if len(cols[q][li]) > width[li] {
				width[li] = len(cols[q][li])
			}
		}
		if width[li] == 0 {
			width[li] = 1
		}
	}
	var b strings.Builder
	for q := 0; q < c.NQubits; q++ {
		fmt.Fprintf(&b, "q%-2d:", q)
		for li := range c.Layers {
			cell := cols[q][li]
			if cell == "" {
				cell = strings.Repeat("-", width[li])
			}
			fmt.Fprintf(&b, " %-*s", width[li], cell)
		}
		b.WriteString("\n")
	}
	return b.String()
}
