// Package sim is the training simulator of §6.3, with two backends at two
// levels of abstraction.
//
// The scalar backend (Run) replays an availability trace against a
// steady-state model of a fault-tolerant training system (System) and
// reports instantaneous and average throughput, charging each system its
// own reconfiguration stalls at failure and re-join events. Only the
// baselines (internal/baselines) are Systems: ReCycle is always replayed
// at op granularity by internal/replay, on top of the discrete-event
// backend below.
//
// The discrete-event backend (ExecuteProgram) drops below steady-state
// scalars to the op level: it executes a compiled schedule.Program — the
// same artifact the live runtime interprets — in virtual time, each
// instruction starting as soon as its worker is free and its dependency
// edges are satisfied. Durations default to the per-instruction values
// Compile stamped from the Planner's cost model, and can be overridden
// homogeneously (ProgramOptions.Durations), per worker
// (ProgramOptions.Scale, straggler injection) or per op
// (ProgramOptions.OpDuration); mid-iteration failures are injected with
// FailAt, reporting lost and blocked instruction sets. The splice hooks
// serve internal/replay: CutAt freezes the clock at a membership-event
// instant, Done resumes a spliced Program past its frozen prefix, and
// ReleaseAt floors re-planned work (detection and parameter-copy
// latencies surface as idle time, not subtracted stalls).
//
// The paper validates this style of simulator against its real 32-GPU
// cluster within 5.98% (Table 2); here the simulator is the primary
// experimental substrate, and internal/dtrain's live runtime provides the
// corresponding fidelity check — exact, by construction, because both
// executors walk the same Program.
package sim
