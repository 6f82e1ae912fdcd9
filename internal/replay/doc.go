// Package replay is the trace-driven replayer: the layer between the plan
// service (internal/engine) and the executors that chains compiled Program
// executions across an entire availability trace, the way a pipeline
// runtime must re-form the pipeline across membership changes.
//
// Two pieces make it up:
//
//   - Splice takes an in-flight Program plus the executed spans at a
//     membership-event instant and produces a new, fully validated Program
//     covering the same iteration: the executed prefix is frozen at its
//     recorded times, work whose provenance died with a failed worker is
//     re-executed on live peers, the unexecuted suffix is re-planned
//     against the new worker set (re-routing whole micro-batch triples,
//     adding the optimizer step of a re-joining worker), and the spliced
//     artifact passes both schedule.Validate and Program.Validate. The
//     same splice path serves the discrete-event replayer here and the
//     live interpreter (dtrain.Runtime.RunIterationCascade), so suffix
//     re-planning has exactly one implementation.
//
//   - Replay walks a failure.Trace window by window (Trace.Windows),
//     fetches the compiled Program for each membership state from the
//     engine, executes it on the DES virtual clock, and on a mid-iteration
//     failure or re-join splices the in-flight Program and resumes without
//     waiting for the iteration boundary. Reconfiguration stalls, catch-up
//     bubbles and re-join warm-up all emerge from lost and re-planned
//     instructions — there is no analytic stall formula anywhere in the
//     path.
package replay
