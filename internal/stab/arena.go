package stab

import (
	"math/rand"
	"sync"

	"casq/internal/sim"
)

// arena holds every buffer one compile builds: the schedule walker's
// edge tables, per-layer flags and events, the phase accumulators, the op
// stream, the reference tableau and its measurement records, the
// bit-plane plan and its expectation sums. The executor compiles one
// program per twirl instance, so reusing these buffers across compiles
// takes the channel derivation off the allocator.
//
// An arena serves exactly one Engine call: the call takes it from
// arenaPool when it compiles and puts it back when it returns (see
// program.release). Nothing an Engine call hands to its caller may alias
// arena memory.
type arena struct {
	cp compiler

	tab *Tableau
	src sim.ShotSource
	rng *rand.Rand // draws from src

	meas  []measInfo
	flips []uint64 // backing words of the measurement records' fx/fz

	bp blockProgram
	qs []int32 // backing qubit lists of the plan's fxQ/fzQ

	sums []float64 // bit-plane Expectations: per-unit partial sums
}

var arenaPool = sync.Pool{New: func() any { return new(arena) }}

// resized returns s with length n and every element zero, reusing its
// backing array when it is large enough. A new array gets a quarter of
// headroom, so that sizes creeping up across compiles reallocate rarely.
func resized[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n, max(n, cap(s)+cap(s)/4))
	}
	s = s[:n]
	clear(s)
	return s
}

// tableau returns the arena's tableau reset to |0...0> on n qubits.
func (ar *arena) tableau(n int) *Tableau {
	if ar.tab == nil || ar.tab.n != n {
		ar.tab = NewTableau(n)
	} else {
		ar.tab.reset()
	}
	return ar.tab
}

// release returns the program's arena to the pool. The program must not be
// used afterwards: release clears it, so a stale use fails loudly instead
// of reading buffers another call now owns. Programs without an arena
// (released ones, hand-built test programs) are left alone.
func (p *program) release() {
	ar := p.ar
	if ar == nil {
		return
	}
	*p = program{}
	ar.put()
}

// put returns the arena to the pool, dropping its engine and its events'
// instruction pointers so that a pooled arena keeps no device or circuit
// alive.
func (ar *arena) put() {
	ar.cp.e = nil
	evs := ar.cp.lc.Events
	clear(evs[:cap(evs)])
	arenaPool.Put(ar)
}
