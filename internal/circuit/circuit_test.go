package circuit

import (
	"strings"
	"testing"

	"casq/internal/gates"
)

func TestBuilderAndValidate(t *testing.T) {
	c := New(3, 1)
	c.AddLayer(OneQubitLayer).H(0).X(1).RZ(2, 0.5)
	c.AddLayer(TwoQubitLayer).ECR(0, 1)
	c.AddLayer(MeasureLayer).Measure(2, 0)
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
	if c.Depth() != 3 {
		t.Errorf("depth %d", c.Depth())
	}
	if c.CountGates(gates.ECR) != 1 || c.CountGates(gates.H) != 1 {
		t.Error("gate counts wrong")
	}
}

func TestQubitReusePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic on qubit reuse")
		}
	}()
	l := &Layer{Kind: OneQubitLayer}
	l.H(0)
	l.X(0)
}

func TestDDPulsesMayRepeat(t *testing.T) {
	l := &Layer{Kind: TwoQubitLayer}
	l.ECR(0, 1)
	l.Add(Instruction{Gate: gates.XDD, Qubits: []int{2}, Tag: "dd", Time: 100})
	l.Add(Instruction{Gate: gates.XDD, Qubits: []int{2}, Tag: "dd", Time: 300})
	if len(l.Instrs) != 3 {
		t.Error("dd pulses should be allowed to repeat on a qubit")
	}
}

func TestActiveAndIdleQubits(t *testing.T) {
	l := &Layer{Kind: TwoQubitLayer}
	l.ECR(1, 2)
	l.Add(Instruction{Gate: gates.Delay, Qubits: []int{0}, Params: []float64{100}})
	active := l.ActiveQubits()
	if !active[1] || !active[2] || active[0] {
		t.Error("active qubits wrong")
	}
	idle := l.IdleQubits(4)
	if len(idle) != 2 || idle[0] != 0 || idle[1] != 3 {
		t.Errorf("idle = %v", idle)
	}
}

func TestGateOn(t *testing.T) {
	l := &Layer{Kind: TwoQubitLayer}
	l.ECR(1, 2)
	if in, ok := l.GateOn(2); !ok || in.Gate != gates.ECR {
		t.Error("GateOn(2) should find the ECR")
	}
	if _, ok := l.GateOn(0); ok {
		t.Error("GateOn(0) should find nothing")
	}
}

func TestCloneIsDeep(t *testing.T) {
	c := New(2, 0)
	c.AddLayer(TwoQubitLayer).RZZ(0, 1, 0.5)
	c2 := c.Clone()
	c2.Layers[0].Instrs[0].Params[0] = 9
	if c.Layers[0].Instrs[0].Params[0] != 0.5 {
		t.Error("clone shares parameter storage")
	}
	cond := New(1, 1)
	cond.AddLayer(OneQubitLayer).CondX(0, 0, 1)
	cc := cond.Clone()
	cc.Layers[0].Instrs[0].Cond.Value = 0
	if cond.Layers[0].Instrs[0].Cond.Value != 1 {
		t.Error("clone shares condition storage")
	}
}

func TestValidateCatchesErrors(t *testing.T) {
	c := New(2, 1)
	l := c.AddLayer(OneQubitLayer)
	l.Instrs = append(l.Instrs, Instruction{Gate: gates.H, Qubits: []int{5}})
	if err := c.Validate(); err == nil {
		t.Error("out-of-range qubit not caught")
	}

	c2 := New(2, 1)
	l2 := c2.AddLayer(MeasureLayer)
	l2.Instrs = append(l2.Instrs, Instruction{Gate: gates.Measure, Qubits: []int{0}, CBit: 7})
	if err := c2.Validate(); err == nil {
		t.Error("out-of-range cbit not caught")
	}

	c3 := New(2, 1)
	l3 := c3.AddLayer(TwoQubitLayer)
	l3.Instrs = append(l3.Instrs, Instruction{Gate: gates.H, Qubits: []int{0}})
	if err := c3.Validate(); err == nil {
		t.Error("untagged 1q gate in 2q layer not caught")
	}
}

func TestInsertLayer(t *testing.T) {
	c := New(1, 0)
	c.AddLayer(OneQubitLayer).H(0)
	c.AddLayer(OneQubitLayer).X(0)
	mid := c.InsertLayer(1, TwirlLayer)
	mid.Z(0)
	if c.Layers[1].Kind != TwirlLayer || c.Layers[2].Instrs[0].Gate != gates.XGate {
		t.Error("InsertLayer misplaced")
	}
}

func TestStringAndDraw(t *testing.T) {
	c := New(2, 1)
	c.AddLayer(OneQubitLayer).H(0)
	c.AddLayer(TwoQubitLayer).ECR(0, 1)
	c.AddLayer(MeasureLayer).Measure(0, 0)
	s := c.String()
	if !strings.Contains(s, "ecr q0,q1") || !strings.Contains(s, "->c0") {
		t.Errorf("String() output missing content:\n%s", s)
	}
	d := c.Draw()
	if !strings.Contains(d, "ecr:C") || !strings.Contains(d, "ecr:T") || !strings.Contains(d, "M") {
		t.Errorf("Draw() output missing content:\n%s", d)
	}
}

func TestTotalDuration(t *testing.T) {
	c := New(1, 0)
	l := c.AddLayer(OneQubitLayer)
	l.H(0)
	l.Start = 10
	l.Duration = 60
	if c.TotalDuration() != 70 {
		t.Errorf("total duration %v", c.TotalDuration())
	}
}

func TestTwoQubitGates(t *testing.T) {
	l := &Layer{Kind: TwoQubitLayer}
	l.ECR(0, 1)
	l.Ucan(2, 3, 0.1, 0.2, 0.3)
	l.Add(Instruction{Gate: gates.Delay, Qubits: []int{4}, Params: []float64{10}})
	if len(l.TwoQubitGates()) != 2 {
		t.Error("TwoQubitGates count wrong")
	}
}

// TestAddOccupancyRules pins which instructions Add lets share a qubit:
// a Delay does not occupy its qubit, Barriers and dd-tagged pulses are
// exempt from the check, and everything else must be disjoint — including
// the second operand of a two-qubit gate. The first instruction is
// appended to Instrs directly, as passes may do.
func TestAddOccupancyRules(t *testing.T) {
	delay := func(q int) Instruction {
		return Instruction{Gate: gates.Delay, Qubits: []int{q}, Params: []float64{100}}
	}
	cases := []struct {
		name  string
		kind  LayerKind
		first Instruction
		next  Instruction
		panic string // expected panic message, "" for none
	}{
		{"reused 2q target", TwoQubitLayer,
			Instruction{Gate: gates.ECR, Qubits: []int{0, 1}},
			Instruction{Gate: gates.ECR, Qubits: []int{2, 1}},
			"circuit: qubit 1 used twice in one layer"},
		{"reused 2q control", TwoQubitLayer,
			Instruction{Gate: gates.ECR, Qubits: []int{0, 1}},
			Instruction{Gate: gates.CX, Qubits: []int{0, 2}},
			"circuit: qubit 0 used twice in one layer"},
		{"gate on a delayed qubit", OneQubitLayer,
			delay(0), Instruction{Gate: gates.H, Qubits: []int{0}}, ""},
		{"2q gate on a delayed qubit", TwoQubitLayer,
			delay(1), Instruction{Gate: gates.ECR, Qubits: []int{0, 1}}, ""},
		{"delay on a delayed qubit", OneQubitLayer, delay(0), delay(0), ""},
		// The disjointness check lets a Barrier through; only the layer-kind
		// check rejects it.
		{"barrier on a busy qubit", TwoQubitLayer,
			Instruction{Gate: gates.ECR, Qubits: []int{0, 1}},
			Instruction{Gate: gates.Barrier, Qubits: []int{0, 1}},
			"circuit: barrier not allowed in 2q layer"},
		{"dd pulse on a busy qubit", TwoQubitLayer,
			Instruction{Gate: gates.ECR, Qubits: []int{0, 1}},
			Instruction{Gate: gates.XDD, Qubits: []int{1}, Tag: "dd", Time: 50}, ""},
		{"gate on a barrier's qubit", OneQubitLayer,
			Instruction{Gate: gates.Barrier, Qubits: []int{0}},
			Instruction{Gate: gates.XGate, Qubits: []int{0}},
			"circuit: qubit 0 used twice in one layer"},
		// A new Delay is checked like a gate: it may not land on a qubit
		// a gate already occupies.
		{"delay on a gate's qubit", OneQubitLayer,
			Instruction{Gate: gates.H, Qubits: []int{0}}, delay(0),
			"circuit: qubit 0 used twice in one layer"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			l := &Layer{Kind: c.kind, Instrs: []Instruction{c.first}}
			defer func() {
				r := recover()
				if c.panic == "" && r != nil {
					t.Fatalf("unexpected panic: %v", r)
				}
				if c.panic != "" && r != c.panic {
					t.Fatalf("panic = %v, want %q", r, c.panic)
				}
			}()
			l.Add(c.next)
			if len(l.Instrs) != 2 {
				t.Fatalf("layer holds %d instructions, want 2", len(l.Instrs))
			}
		})
	}
}

// TestAddZeroAlloc pins the disjointness check as allocation-free: filling
// a layer whose Instrs already has the capacity allocates nothing.
func TestAddZeroAlloc(t *testing.T) {
	const n = 127
	ins := make([]Instruction, 0, n)
	for q := 0; q+1 < n; q += 2 {
		ins = append(ins, Instruction{Gate: gates.ECR, Qubits: []int{q, q + 1}})
	}
	ins = append(ins, Instruction{Gate: gates.Delay, Qubits: []int{n - 1}, Params: []float64{100}})
	l := &Layer{Kind: TwoQubitLayer, Instrs: make([]Instruction, 0, len(ins))}
	allocs := testing.AllocsPerRun(20, func() {
		l.Instrs = l.Instrs[:0]
		for _, in := range ins {
			l.Add(in)
		}
	})
	if allocs != 0 {
		t.Fatalf("Add allocated %.1f times per layer, want 0", allocs)
	}
}

// TestValidateErrors pins Validate's messages and the order it finds
// errors in: per instruction, qubit range and reuse come before the cbit,
// the condition bit and the layer-kind check.
func TestValidateErrors(t *testing.T) {
	h := func(q int) Instruction { return Instruction{Gate: gates.H, Qubits: []int{q}} }
	ecr := func(a, b int) Instruction { return Instruction{Gate: gates.ECR, Qubits: []int{a, b}} }
	meas := func(q, cb int) Instruction { return Instruction{Gate: gates.Measure, Qubits: []int{q}, CBit: cb} }
	cond := func(q, bit int) Instruction {
		return Instruction{Gate: gates.XGate, Qubits: []int{q}, Cond: &Condition{Bit: bit, Value: 1}}
	}
	type layer struct {
		kind   LayerKind
		instrs []Instruction
	}
	for _, tc := range []struct {
		name   string
		layers []layer
		want   string
	}{
		{"valid", []layer{
			{OneQubitLayer, []Instruction{h(0), h(1)}},
			{TwoQubitLayer, []Instruction{ecr(0, 1), {Gate: gates.XDD, Qubits: []int{2}, Tag: "dd"}, {Gate: gates.XDD, Qubits: []int{2}, Tag: "dd"}}},
			{OneQubitLayer, []Instruction{h(0), {Gate: gates.Delay, Qubits: []int{1}, Params: []float64{50}}, h(1)}},
			{MeasureLayer, []Instruction{meas(0, 0), meas(1, 1), meas(2, 1)}},
		}, ""},
		{"used twice", []layer{
			{OneQubitLayer, []Instruction{h(0)}},
			{TwoQubitLayer, []Instruction{ecr(0, 1), ecr(2, 1)}},
		}, "circuit: layer 1: qubit 1 used twice"},
		{"qubit out of range", []layer{
			{OneQubitLayer, []Instruction{h(1), h(3)}},
		}, "circuit: layer 0: qubit 3 out of range"},
		{"negative qubit", []layer{
			{TwoQubitLayer, []Instruction{ecr(0, -1)}},
		}, "circuit: layer 0: qubit -1 out of range"},
		{"qubit range before cbit", []layer{
			{MeasureLayer, []Instruction{meas(5, 9)}},
		}, "circuit: layer 0: qubit 5 out of range"},
		{"reuse before cbit", []layer{
			{MeasureLayer, []Instruction{meas(0, 0), meas(0, 9)}},
		}, "circuit: layer 0: qubit 0 used twice"},
		{"cbit out of range", []layer{
			{MeasureLayer, []Instruction{meas(0, 0), meas(1, 2)}},
		}, "circuit: layer 0: cbit 2 out of range"},
		{"condition out of range", []layer{
			{OneQubitLayer, []Instruction{h(0)}},
			{OneQubitLayer, []Instruction{cond(1, 4)}},
		}, "circuit: layer 1: condition bit 4 out of range"},
		{"1q in 2q layer", []layer{
			{TwoQubitLayer, []Instruction{ecr(0, 1), h(2)}},
		}, "circuit: layer 0: 1q gate h in 2q layer without dd tag"},
		{"first layer wins", []layer{
			{TwoQubitLayer, []Instruction{h(2)}},
			{OneQubitLayer, []Instruction{h(7)}},
		}, "circuit: layer 0: 1q gate h in 2q layer without dd tag"},
	} {
		c := New(3, 2)
		for _, l := range tc.layers {
			c.Layers = append(c.Layers, Layer{Kind: l.kind, Instrs: l.instrs})
		}
		err := c.Validate()
		switch {
		case tc.want == "" && err != nil:
			t.Errorf("%s: unexpected error %v", tc.name, err)
		case tc.want != "" && (err == nil || err.Error() != tc.want):
			t.Errorf("%s: got %v, want %q", tc.name, err, tc.want)
		}
	}
}

// TestValidateAllocs pins Validate's occupancy bookkeeping to one slice per
// call, however many layers the circuit has, held on the stack up to 128
// qubits.
func TestValidateAllocs(t *testing.T) {
	for _, tc := range []struct{ n, max int }{{6, 0}, {127, 0}, {300, 1}} {
		n := tc.n
		c := New(n, n)
		for d := 0; d < 8; d++ {
			l := c.AddLayer(OneQubitLayer)
			for q := 0; q < n; q++ {
				l.H(q)
			}
			l2 := c.AddLayer(TwoQubitLayer)
			for q := 0; q+1 < n; q += 2 {
				l2.ECR(q, q+1)
			}
		}
		ml := c.AddLayer(MeasureLayer)
		for q := 0; q < n; q++ {
			ml.Measure(q, q)
		}
		allocs := testing.AllocsPerRun(20, func() {
			if err := c.Validate(); err != nil {
				t.Fatal(err)
			}
		})
		if allocs > float64(tc.max) {
			t.Errorf("%d qubits: Validate allocated %.1f times per call, want <= %d", n, allocs, tc.max)
		}
	}
}
