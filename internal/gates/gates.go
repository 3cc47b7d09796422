// Package gates defines the gate set of the casq compiler: matrices for the
// hardware-native basis (RZ, SX, X, ECR) and for the logical gates used by
// the paper's applications (CNOT, RZZ, the canonical gate Ucan of Eq. 5),
// plus the Euler ZXZXZ decomposition and the angle-absorption rules that
// CA-EC uses to compensate coherent errors at zero cost (paper Fig. 1c,d).
package gates

import (
	"fmt"
	"math"
	"math/cmplx"

	"casq/internal/linalg"
)

// Kind names a gate or scheduling pseudo-op in the circuit IR.
type Kind string

// Gate kinds. One- and two-qubit unitaries, plus pseudo-ops used by the
// scheduler and the measurement model.
const (
	ID      Kind = "id"
	XGate   Kind = "x"
	YGate   Kind = "y"
	ZGate   Kind = "z"
	H       Kind = "h"
	S       Kind = "s"
	Sdg     Kind = "sdg"
	SX      Kind = "sx"
	SXdg    Kind = "sxdg"
	RZ      Kind = "rz" // params: theta
	RX      Kind = "rx" // params: theta
	RY      Kind = "ry" // params: theta
	U3      Kind = "u"  // params: theta, phi, lambda
	CX      Kind = "cx"
	ECR     Kind = "ecr"
	RZZ     Kind = "rzz"  // params: theta
	Ucan    Kind = "ucan" // params: alpha, beta, gamma (Eq. 5)
	ZX      Kind = "zx"   // params: theta; exp(-i theta/2 Z(x)X)
	SWAP    Kind = "swap"
	XDD     Kind = "xdd"   // an X pulse inserted by a DD pass (same matrix as X)
	Delay   Kind = "delay" // params: duration in ns
	Barrier Kind = "barrier"
	Measure Kind = "measure"
	Reset   Kind = "reset"
)

// NumQubits returns how many qubits a gate kind acts on, or 0 for pseudo-ops
// that apply per-qubit (delay, measure, reset, barrier).
func NumQubits(k Kind) int {
	switch k {
	case CX, ECR, RZZ, Ucan, ZX, SWAP:
		return 2
	case Delay, Barrier, Measure, Reset:
		return 0
	default:
		return 1
	}
}

// IsUnitaryGate reports whether k denotes a unitary gate (not a pseudo-op).
func IsUnitaryGate(k Kind) bool {
	switch k {
	case Delay, Barrier, Measure, Reset:
		return false
	}
	return true
}

// Matrix1Q returns the 2x2 matrix for a one-qubit gate kind.
func Matrix1Q(k Kind, params ...float64) linalg.Matrix {
	need := func(n int) {
		if len(params) != n {
			panic(fmt.Sprintf("gates: %s needs %d params, got %d", k, n, len(params)))
		}
	}
	switch k {
	case ID:
		return linalg.Identity(2)
	case XGate, XDD:
		return linalg.FromRows([][]complex128{{0, 1}, {1, 0}})
	case YGate:
		return linalg.FromRows([][]complex128{{0, -1i}, {1i, 0}})
	case ZGate:
		return linalg.FromRows([][]complex128{{1, 0}, {0, -1}})
	case H:
		s := complex(1/math.Sqrt2, 0)
		return linalg.FromRows([][]complex128{{s, s}, {s, -s}})
	case S:
		return linalg.FromRows([][]complex128{{1, 0}, {0, 1i}})
	case Sdg:
		return linalg.FromRows([][]complex128{{1, 0}, {0, -1i}})
	case SX:
		return linalg.FromRows([][]complex128{
			{0.5 + 0.5i, 0.5 - 0.5i},
			{0.5 - 0.5i, 0.5 + 0.5i},
		})
	case SXdg:
		return linalg.FromRows([][]complex128{
			{0.5 - 0.5i, 0.5 + 0.5i},
			{0.5 + 0.5i, 0.5 - 0.5i},
		})
	case RZ:
		need(1)
		t := params[0]
		return linalg.FromRows([][]complex128{
			{cmplx.Exp(complex(0, -t/2)), 0},
			{0, cmplx.Exp(complex(0, t/2))},
		})
	case RX:
		need(1)
		t := params[0]
		c, s := complex(math.Cos(t/2), 0), complex(0, -math.Sin(t/2))
		return linalg.FromRows([][]complex128{{c, s}, {s, c}})
	case RY:
		need(1)
		t := params[0]
		c, s := complex(math.Cos(t/2), 0), complex(math.Sin(t/2), 0)
		return linalg.FromRows([][]complex128{{c, -s}, {s, c}})
	case U3:
		need(3)
		return U3Matrix(params[0], params[1], params[2])
	}
	panic(fmt.Sprintf("gates: %s is not a one-qubit gate", k))
}

// U3Matrix returns the standard U(theta, phi, lambda) matrix.
func U3Matrix(theta, phi, lambda float64) linalg.Matrix {
	c := math.Cos(theta / 2)
	s := math.Sin(theta / 2)
	return linalg.FromRows([][]complex128{
		{complex(c, 0), -cmplx.Exp(complex(0, lambda)) * complex(s, 0)},
		{cmplx.Exp(complex(0, phi)) * complex(s, 0), cmplx.Exp(complex(0, phi+lambda)) * complex(c, 0)},
	})
}

// Matrix2Q returns the 4x4 matrix for a two-qubit gate kind in the
// |q_first q_second> basis, where q_first is the first operand of the gate
// (the control for CX/ECR/ZX).
func Matrix2Q(k Kind, params ...float64) linalg.Matrix {
	need := func(n int) {
		if len(params) != n {
			panic(fmt.Sprintf("gates: %s needs %d params, got %d", k, n, len(params)))
		}
	}
	switch k {
	case CX:
		return linalg.FromRows([][]complex128{
			{1, 0, 0, 0},
			{0, 1, 0, 0},
			{0, 0, 0, 1},
			{0, 0, 1, 0},
		})
	case SWAP:
		return linalg.FromRows([][]complex128{
			{1, 0, 0, 0},
			{0, 0, 1, 0},
			{0, 1, 0, 0},
			{0, 0, 0, 1},
		})
	case ZX:
		need(1)
		return ZXMatrix(params[0])
	case ECR:
		return ECRMatrix()
	case RZZ:
		need(1)
		t := params[0]
		em := cmplx.Exp(complex(0, -t/2))
		ep := cmplx.Exp(complex(0, t/2))
		return linalg.FromRows([][]complex128{
			{em, 0, 0, 0},
			{0, ep, 0, 0},
			{0, 0, ep, 0},
			{0, 0, 0, em},
		})
	case Ucan:
		need(3)
		return UcanMatrix(params[0], params[1], params[2])
	}
	panic(fmt.Sprintf("gates: %s is not a two-qubit gate", k))
}

// ZXMatrix returns exp(-i theta/2 Z(x)X) with Z acting on the first operand
// (control) and X on the second (target).
func ZXMatrix(theta float64) linalg.Matrix {
	c := complex(math.Cos(theta/2), 0)
	s := complex(0, -math.Sin(theta/2))
	// Block diagonal: control |0> -> Rx(theta), control |1> -> Rx(-theta).
	return linalg.FromRows([][]complex128{
		{c, s, 0, 0},
		{s, c, 0, 0},
		{0, 0, c, -s},
		{0, 0, -s, c},
	})
}

// ECRMatrix returns the echoed cross-resonance gate used throughout the
// paper. It is defined by its physical pulse sequence
//
//	ECR = ZX(-pi/4) . X(ctrl) . ZX(+pi/4)
//
// executed over the gate duration, which composes to X(ctrl) . ZX(pi/2).
// It is a Clifford entangler locally equivalent to CNOT. The mid-gate echo
// X on the control is what cancels control-spectator ZZ during the gate
// (paper Sec. III B, cases II-IV).
func ECRMatrix() linalg.Matrix {
	xc := linalg.Kron(Matrix1Q(XGate), linalg.Identity(2)) // X on control (high bit)
	return linalg.Mul(xc, ZXMatrix(math.Pi/2))
}

// UcanMatrix returns Ucan = exp[i(alpha XX + beta YY + gamma ZZ)] (paper
// Eq. 5). XX, YY and ZZ commute, so the exponential factors exactly.
func UcanMatrix(alpha, beta, gamma float64) linalg.Matrix {
	xx := linalg.Kron(Matrix1Q(XGate), Matrix1Q(XGate))
	yy := linalg.Kron(Matrix1Q(YGate), Matrix1Q(YGate))
	zz := linalg.Kron(Matrix1Q(ZGate), Matrix1Q(ZGate))
	expP := func(a float64, p linalg.Matrix) linalg.Matrix {
		// exp(i a P) = cos(a) I + i sin(a) P for P^2 = I.
		m := linalg.Scale(complex(math.Cos(a), 0), linalg.Identity(4))
		return linalg.Add(m, linalg.Scale(complex(0, math.Sin(a)), p))
	}
	return linalg.MulChain(expP(alpha, xx), expP(beta, yy), expP(gamma, zz))
}

// EulerZXZXZ holds the three Rz angles of the hardware-native decomposition
// U = e^{i phase} Rz(phi+pi) SX Rz(theta+pi) SX Rz(lambda)  (paper Eq. 4;
// the rightmost factor acts first).
type EulerZXZXZ struct {
	Theta, Phi, Lambda float64
	Phase              float64
}

// Decompose1Q extracts U3 angles (and global phase) from an arbitrary 2x2
// unitary. The result satisfies U = e^{i phase} U3(theta, phi, lambda).
func Decompose1Q(u linalg.Matrix) EulerZXZXZ {
	if u.N != 2 {
		panic("gates: Decompose1Q needs a 2x2 matrix")
	}
	u00, u01 := u.At(0, 0), u.At(0, 1)
	u10, u11 := u.At(1, 0), u.At(1, 1)
	a00, a10 := cmplx.Abs(u00), cmplx.Abs(u10)
	theta := 2 * math.Atan2(a10, a00)
	var phi, lambda, phase float64
	const eps = 1e-12
	switch {
	case a10 < eps: // diagonal: theta = 0
		theta = 0
		phi = 0
		phase = cmplx.Phase(u00)
		lambda = cmplx.Phase(u11) - phase
	case a00 < eps: // anti-diagonal: theta = pi
		theta = math.Pi
		lambda = 0
		phase = cmplx.Phase(-u01)
		phi = cmplx.Phase(u10) - phase
	default:
		phase = cmplx.Phase(u00)
		phi = cmplx.Phase(u10) - phase
		lambda = cmplx.Phase(-u01) - phase
	}
	return EulerZXZXZ{Theta: theta, Phi: phi, Lambda: lambda, Phase: phase}
}

// Matrix reconstructs the unitary including global phase.
func (e EulerZXZXZ) Matrix() linalg.Matrix {
	m := U3Matrix(e.Theta, e.Phi, e.Lambda)
	return linalg.Scale(cmplx.Exp(complex(0, e.Phase)), m)
}

// ZXZXZMatrix reconstructs the unitary from the native-gate sequence
// Rz(phi+pi) SX Rz(theta+pi) SX Rz(lambda), up to global phase. It is used
// in tests to validate the hardware decomposition identity.
func (e EulerZXZXZ) ZXZXZMatrix() linalg.Matrix {
	return linalg.MulChain(
		Matrix1Q(RZ, e.Phi+math.Pi),
		Matrix1Q(SX),
		Matrix1Q(RZ, e.Theta+math.Pi),
		Matrix1Q(SX),
		Matrix1Q(RZ, e.Lambda),
	)
}

// AbsorbRzBefore returns the Euler angles of U' = U . Rz(-delta): it
// compensates a coherent Rz(delta) error that occurred immediately before U
// (paper Fig. 1c). The absorption is free: only the virtual Rz angle
// changes.
func (e EulerZXZXZ) AbsorbRzBefore(delta float64) EulerZXZXZ {
	e.Lambda -= delta
	return e
}

// AbsorbRzAfter returns the Euler angles of U' = Rz(-delta) . U,
// compensating an Rz(delta) error occurring immediately after U.
func (e EulerZXZXZ) AbsorbRzAfter(delta float64) EulerZXZXZ {
	e.Phi -= delta
	return e
}

// AbsorbRzzIntoUcan compensates an Rzz(delta) error adjacent to a Ucan gate
// by shifting the gamma angle (paper Sec. II C, where the shift is written
// gamma -> gamma - theta/2 in the paper's Rzz sign convention). With this
// package's conventions, Ucan contains exp(+i gamma ZZ) while
// Rzz(delta) = exp(-i delta/2 ZZ), so cancelling the error requires
// gamma -> gamma + delta/2: Ucan(a, b, g + d/2) = Ucan(a, b, g) Rzz(-d).
// Works on either side since ZZ commutes with Ucan.
func AbsorbRzzIntoUcan(alpha, beta, gamma, delta float64) (a, b, g float64) {
	return alpha, beta, gamma + delta/2
}

// AbsorbRzzIntoRzz merges the compensation of an Rzz(delta) error into an
// adjacent Rzz(theta) gate: the combined gate is Rzz(theta - delta).
func AbsorbRzzIntoRzz(theta, delta float64) float64 { return theta - delta }

// Key identifies a gate kind with its parameters, for memoizing per-gate
// tables (matrices, Clifford conjugations) across instructions.
type Key struct {
	Kind Kind
	N    int        // number of parameters
	P    [3]float64 // the parameters, zero-padded
}

// KeyOf returns the memo key of gate g with params; ok is false for more
// than three parameters, which have no key.
func KeyOf(g Kind, params []float64) (k Key, ok bool) {
	if len(params) > len(k.P) {
		return k, false
	}
	k.Kind, k.N = g, len(params)
	copy(k.P[:], params)
	return k, true
}
