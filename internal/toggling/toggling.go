// Package toggling computes the coherent Z/ZZ error angles that survive a
// circuit layer given its pulse schedule — the toggling-frame integrals that
// both the CA-EC pass (to know what to compensate) and the tests (to predict
// the simulator's exact coherent evolution) rely on. Integrator evaluates
// them per layer in closed form for the passes; Walker is the piecewise
// schedule walk the two noisy engines (internal/sim, internal/stab) share.
//
// For a layer spanning [0, T], each qubit carries a sign function s_q(t)
// that flips at every pi pulse on q (DD pulses, twirl X/Y Paulis, and the
// internal echo of an ECR control at T/2). Using the suffix convention
// (s_q(t) = parity of the pulses in (t, T]), the error unitary that acts
// after the layer's ideal gates is
//
//	E = Rzz(phiZZ) * prod_q Rz(phiZ_q),
//	phiZZ(a,b) =  omega_ab * Int s_a s_b dt,
//	phiZ(q)    = -sum_b omega_qb * Int s_q dt  (+ Stark and other Z terms),
//
// matching the idle-pair Hamiltonian H11 = nu/2 (ZZ - ZI - IZ) of paper
// Eq. 1. Terms involving a rotary-echoed ECR target are suppressed to zero
// (the compiler's ideal model; the simulator keeps a small configurable
// residual).
package toggling

// signIntegral returns Int_0^T s(t) dt for the suffix-convention sign
// function of the given pulse times.
func signIntegral(pulses []float64, T float64) float64 {
	// Prefix integral first, then convert: s_suffix = s_prefix * parity(all).
	integral := 0.0
	sign := 1.0
	prev := 0.0
	for _, p := range pulses {
		integral += sign * (p - prev)
		sign = -sign
		prev = p
	}
	integral += sign * (T - prev)
	parity := 1.0
	if len(pulses)%2 == 1 {
		parity = -1
	}
	return integral * parity
}
