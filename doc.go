// Package casq (Context-Aware Suppression of correlated noise in Quantum
// circuits) is a Go reproduction of "Suppressing Correlated Noise in Quantum
// Computers via Context-Aware Compiling" (Seif et al., ISCA 2024,
// arXiv:2403.06852).
//
// The public API is built around four composable subsystems:
//
//   - a pass pipeline: every compiler transformation (Pauli twirling,
//     scheduling, Context-Aware Dynamical Decoupling — Algorithm 1 — and
//     Context-Aware Error Compensation — Algorithm 2) is a Pass, and a
//     Pipeline composes them in any order. The paper's six benchmarked
//     strategies (Bare … Combined) are canned pipelines via Build; custom
//     orderings (EC before DD, twirl-free DD ablations, user-defined
//     passes) compose with NewPipeline;
//   - a concurrent executor: NewExecutor fans the twirl instances of a job
//     out across a worker pool with per-instance derived seeds and
//     aggregates in instance order, so results are bit-identical for any
//     worker count and the full shot budget is preserved. The
//     ExecOptions.Workers budget is shared between instance-level fan-out
//     and the simulator's shot-level fan-out (a single-instance job
//     parallelizes over shots instead of running serially; see DESIGN.md,
//     "Unified worker budget");
//   - a backend registry with context-aware placement: Backends names
//     full-scale calibrated devices (line/ring/grid families and the
//     parametric heavy-hex lattice up to the 127-qubit Eagle geometry),
//     each exportable as a bit-stable JSON snapshot (SnapshotDevice /
//     DeviceFromSnapshot) and driftable for scenario sweeps
//     (PerturbDevice). ChooseLayout embeds a circuit into a backend on
//     the subregion with the least predicted coherent error — scored by
//     the same toggling-frame integrals CA-EC compensates — and
//     LayoutPass/RoutePass compose the placement and SWAP-routing stages
//     into any pipeline;
//   - a pluggable engine axis: every execution can run on the exact noisy
//     statevector kernel or on the stabilizer/Pauli-frame engine
//     (NewStabEngine), which derives stochastic Pauli channels from the
//     device calibration via the Pauli-twirling approximation and
//     simulates full-scale twirled circuits — the entire 127-qubit Eagle
//     lattice — in O(shots * gates * n). ExecOptions.Engine selects
//     statevector | stab | auto (auto dispatches per instance when the
//     compiled circuit is twirl-representable, see StabSupports);
//   - an experiment service: every paper figure is declared in a catalog
//     (ExperimentCatalog) with its parameter axes; OpenResultStore +
//     NewFigureCache answer repeated figure requests from a
//     content-addressed two-tier cache, NewLocalCoordinator runs option
//     grids as checkpointed sweeps on in-process worker slots (the same
//     coordinator a worker fleet claims from) that resume after
//     interruption, and NewServer exposes catalog, figures, and sweeps
//     over HTTP (the `casq serve` subcommand).
//
// A minimal end-to-end run:
//
//	dev := casq.NewLineDevice("dev", 4, casq.DefaultDeviceOptions())
//	pl := casq.Build(casq.Combined())
//	ex := casq.NewExecutor(dev, pl)
//	vals, err := ex.Expectations(context.Background(), circ,
//	    []casq.Observable{{0: 'X'}},
//	    casq.ExecOptions{Instances: 8, Seed: 7, Cfg: casq.DefaultSimConfig()})
//
// And a minimal cached figure service:
//
//	st, _ := casq.OpenResultStore("casq-store", 0)
//	cache := casq.NewFigureCache(st)
//	data, hit, err := cache.Figure(casq.SweepCell{ID: "fig6",
//	    Opts: casq.FastExperimentOptions()}) // repeats: hit == true, same bytes
//
// Beneath the API sit, from scratch and stdlib-only: a layered
// quantum-circuit IR with scheduling and a gate library (ECR, CX, RZZ, the
// canonical gate Ucan, ZXZXZ Euler decomposition); a device model with the
// calibration data the paper's passes consume (always-on ZZ, Stark shifts,
// charge parity, NNN collision edges, coherence times, gate
// errors/durations); a trajectory statevector simulator substituting for
// the paper's IBM hardware, with the echoed-CR pulse context modeled so DD
// alignment effects emerge from the dynamics; and experiment harnesses
// regenerating every figure and table of the paper's evaluation
// (internal/experiments, cmd/experiments).
//
// The pre-redesign compiler API (NewCompiler, Compiler.Expectations,
// Compiler.Counts) remains as thin wrappers over the pipeline + executor.
package casq
