// Package dtrain is the live distributed-training runtime of the
// reproduction: a DP×PP grid of executor goroutines trains a real (small)
// model by interpreting compiled Programs, which lets the tests prove the
// paper's central invariant — adapted execution computes exactly the same
// gradients as fault-free execution.
//
// The Runtime is the in-process counterpart of the paper's Coordinator +
// Executors (§4.1). The coordinator half fetches compiled Programs for
// the current failure set from the plan service (internal/engine) and
// owns failure handling, straggler demotion, validation and rollback; the
// executor half runs one goroutine per live worker, interpreting its
// Program instruction stream — activations and gradients move through a
// message router, cross-worker ordering comes exclusively from the
// Program's dependency edges (awaited on a dep board), and each
// instruction's logical slot span is propagated along those edges during
// execution, so the executed timeline is directly comparable (and, by
// construction, equal) to the discrete-event simulator's prediction.
//
// It implements the paper's §5 mechanisms — ReRouteAct / ReRouteGrad
// (micro-batch rerouting to data-parallel peers), the WeightGradStore
// (deferred weight gradients), per-stage optimizer steps with post-step
// validation and rollback — plus the §5 heartbeat Detector, which flags
// both hard failures (lapsed heartbeats) and gray failures: per-op timing
// observations feed per-worker EWMAs compared against the fleet median,
// with clear-and-reflag hysteresis so the straggler callback (feeding
// MarkStraggler, which retunes the plan service's cost model) fires only
// when the observed factor moves enough to change the routing.
//
// A repaired worker can re-join a running iteration: RunIterationCascade
// cuts the in-flight Program at a logical slot, executes the prefix the
// DES predicts completed (agreement by construction makes that the
// runtime's own prefix), restores the worker's parameters at the splice
// instant, and interprets the suffix of the replay.Splice Program — the
// same suffix-re-plan implementation the trace replayer uses.
package dtrain
