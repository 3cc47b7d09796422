package sweep

import "casq/internal/obs"

// Process-wide sweep metrics on the obs default registry, exposed by
// `casq serve` on GET /metrics. Cell-state transitions are counted per
// terminal (and leased) state, so a dashboard distinguishes cache hits
// from fresh computes from failures at a glance.
var (
	mRuns  = obs.Default().Counter("casq_sweep_runs_total", "Sweeps submitted.")
	mCells = obs.Default().CounterVec("casq_sweep_cells_total", "Sweep cells entering each lifecycle state.", "state")
)

// RecordCellState counts one cell-state transition on the
// casq_sweep_cells_total family; the fabric coordinator records every
// transition, wherever the cell ran.
func RecordCellState(st CellState) { mCells.With(string(st)).Inc() }

// RecordRun counts one sweep submission.
func RecordRun() { mRuns.Inc() }
