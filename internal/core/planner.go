// Package core implements ReCycle's primary contribution: the Planner
// (§4.2). Given a training job configuration and profiled statistics, the
// Planner precomputes an adaptive pipeline schedule for every tolerated
// failure count. It runs in two phases:
//
//  1. Failure Normalization (§4.2.1, Algorithm 1): a dynamic program that
//     decides how many failures to migrate to each pipeline stage so that
//     rerouting overhead is minimized — avoiding a combinatorial solve per
//     concrete failure location. Applying a plan to concrete failures then
//     needs only a point-to-point parameter copy per failed worker.
//  2. Adaptive Schedule Generation (§4.2.2): a makespan-minimizing solve
//     (internal/solver) that integrates Adaptive Pipelining, Decoupled
//     BackProp and the Staggered Optimizer under memory constraints.
//
// Plans are stored in a PlanStore (one per failure count) and fetched by
// the runtime Coordinator when failures are detected.
package core

import (
	"fmt"
	"time"

	"recycle/internal/config"
	"recycle/internal/profile"
	"recycle/internal/schedule"
	"recycle/internal/solver"
)

// Techniques toggles the three ReCycle optimizations — the knobs of the
// Fig 11 ablation. The zero value disables everything except basic
// re-routing.
type Techniques struct {
	AdaptivePipelining bool // re-route micro-batches to data-parallel peers
	DecoupledBackProp  bool // split backward into BInput + BWeight
	StaggeredOptimizer bool // per-stage optimizer barriers
}

// AllTechniques is the full ReCycle configuration.
var AllTechniques = Techniques{AdaptivePipelining: true, DecoupledBackProp: true, StaggeredOptimizer: true}

// Plan is one precomputed adaptive schedule for a normalized failure count.
type Plan struct {
	Failures   int               // simultaneous worker failures this plan handles
	Assignment []int             // failures per stage (Algorithm 1's A)
	Failed     []schedule.Worker // the normalized failed-worker set
	Schedule   *schedule.Schedule
	// PeriodSlots is the steady-state iteration interval in duration units.
	PeriodSlots int64
	// PlanTime is how long the Planner spent generating this plan.
	PlanTime time.Duration
	// Hint is the solver's warm-start package for this plan's instance —
	// the schedule plus the routing and toggles it was solved under. It
	// lives only in memory (the engine codec does not serialize it, so
	// store-decoded plans carry nil) and feeds PlanForHinted /
	// PlanConcreteHinted on the next solve of the same configuration.
	Hint *solver.Hint `json:"-"`
	// SolveKind records how the schedule was derived: SolveScratch,
	// SolveWarmIdentical or SolveWarmReplay.
	SolveKind string `json:"-"`
}

// SolveKind values stamped into Plan.SolveKind (solver.SolveKind.String()).
const (
	SolveScratch       = "scratch"
	SolveWarmIdentical = "warm-identical"
	SolveWarmReplay    = "warm-replay"
)

// Planner generates and caches adaptive schedules for one job.
type Planner struct {
	Job        config.Job
	Stats      profile.Stats
	Techniques Techniques
	// Costs is the heterogeneous cost model: per-(stage, op, worker)
	// durations built from Stats plus straggler/stage multipliers. Nil
	// plans with the homogeneous Stats durations. The model is treated as
	// immutable — straggler updates install a fresh copy (copy-on-write),
	// so snapshotting the Planner by value is always safe.
	Costs *profile.CostModel
	// UnrollIterations controls the steady-state measurement window
	// (>= 1; 0 defaults to 3). The live runtime plans one iteration at a
	// time; throughput analyses unroll 2+ iterations so SteadyPeriod can
	// difference consecutive makespans.
	UnrollIterations int
}

// New returns a Planner for the job with full ReCycle techniques.
func New(job config.Job, stats profile.Stats) *Planner {
	return &Planner{Job: job, Stats: stats, Techniques: AllTechniques, UnrollIterations: 3}
}

// shape derives the schedule shape from the job.
func (p *Planner) shape() schedule.Shape {
	iters := p.UnrollIterations
	if iters < 1 {
		iters = 3
	}
	return schedule.Shape{
		DP:   p.Job.Parallel.DP,
		PP:   p.Job.Parallel.PP,
		MB:   p.Job.Batch.MicroBatchesPerPipeline(p.Job.Parallel),
		Iter: iters,
	}
}

// PlanFor generates the adaptive plan for the given number of simultaneous
// failures. Failure locations are normalized (Algorithm 1), so one plan
// serves any concrete failure set of that size.
func (p *Planner) PlanFor(failures int) (*Plan, error) {
	return p.PlanForHinted(failures, nil)
}

// PlanForHinted is PlanFor warm-started by a previous plan of the same
// failure count. Normalization is deterministic, so the previous plan's
// failed set matches the new one exactly; the solver then validates or
// replays the previous schedule instead of re-deriving it, unless the
// planner's configuration drifted incompatibly (in which case the hint is
// ignored and the solve falls back to scratch — passing a stale plan is
// always safe and never yields a worse makespan).
func (p *Planner) PlanForHinted(failures int, prev *Plan) (*Plan, error) {
	if failures < 0 {
		return nil, fmt.Errorf("core: negative failure count %d", failures)
	}
	sh := p.shape()
	if failures >= sh.DP*sh.PP {
		return nil, fmt.Errorf("core: %d failures exceed the %d-worker job", failures, sh.DP*sh.PP)
	}
	start := time.Now()
	assign, err := NormalizeFailures(sh.DP, sh.PP, sh.MB, failures)
	if err != nil {
		return nil, err
	}
	return p.solve(sh, assign, AssignmentWorkers(assign, sh.DP), start, hintOf(prev))
}

// PlanConcrete generates the adaptive plan for a specific failed-worker
// set, skipping Failure Normalization. The live runtime Coordinator uses
// this when a stored normalized plan does not match the concrete failure
// locations and migrating parameters is not worth it (or, in-process, not
// meaningful); the figure gallery uses it to reproduce the paper's running
// example with worker W1_2 failed.
func (p *Planner) PlanConcrete(failed []schedule.Worker) (*Plan, error) {
	return p.PlanConcreteHinted(failed, nil)
}

// PlanConcreteHinted is PlanConcrete warm-started by a previous plan for
// the same failed-worker set (same hint semantics as PlanForHinted).
func (p *Planner) PlanConcreteHinted(failed []schedule.Worker, prev *Plan) (*Plan, error) {
	sh := p.shape()
	assign := make([]int, sh.PP)
	seen := make(map[schedule.Worker]bool, len(failed))
	for _, w := range failed {
		if w.Stage < 0 || w.Stage >= sh.PP || w.Pipeline < 0 || w.Pipeline >= sh.DP {
			return nil, fmt.Errorf("core: failed worker %s outside the %dx%d job", w, sh.DP, sh.PP)
		}
		if seen[w] {
			return nil, fmt.Errorf("core: duplicate failed worker %s", w)
		}
		seen[w] = true
		assign[w.Stage]++
	}
	ws := append([]schedule.Worker(nil), failed...)
	SortWorkers(ws)
	return p.solve(sh, assign, ws, time.Now(), hintOf(prev))
}

// hintOf extracts a plan's warm-start hint (nil-safe; store-decoded plans
// carry no hint and degrade to scratch solves).
func hintOf(prev *Plan) *solver.Hint {
	if prev == nil {
		return nil
	}
	return prev.Hint
}

// Shape returns the schedule shape the planner solves at: the job geometry
// plus the unroll window. The engine uses it to canonicalize victim sets
// before keying its caches.
func (p *Planner) Shape() schedule.Shape { return p.shape() }

// SortWorkers orders workers canonically by (stage, pipeline). It
// delegates to schedule.SortWorkers, the single definition of the order;
// the alias survives for the engine's re-export and existing callers.
func SortWorkers(ws []schedule.Worker) { schedule.SortWorkers(ws) }

// solve runs the schedule generation phase shared by PlanFor and
// PlanConcrete: the failed-worker set is fixed, the techniques translate
// into solver toggles, and the result is wrapped into a Plan.
func (p *Planner) solve(sh schedule.Shape, assign []int, failed []schedule.Worker, start time.Time, hint *solver.Hint) (*Plan, error) {
	if !p.Techniques.AdaptivePipelining && len(failed) > 0 {
		return nil, fmt.Errorf("core: %d failures but Adaptive Pipelining disabled — no recovery path without spares", len(failed))
	}
	failedSet := make(map[schedule.Worker]bool, len(failed))
	for _, w := range failed {
		failedSet[w] = true
	}
	var costs schedule.CostFunc
	if p.Costs != nil {
		costs = p.Costs.Fn()
	}
	in := solver.Input{
		Shape:          sh,
		Durations:      p.Stats.Durations(),
		Costs:          costs,
		Failed:         failedSet,
		MemCapPerStage: p.Stats.MemCapPerStage,
		Decoupled:      p.Techniques.DecoupledBackProp,
		Staggered:      p.Techniques.StaggeredOptimizer,
		// Without Decoupled BackProp the execution engine lacks the split
		// backward instructions, so rerouted work can only be inserted
		// naively into the 1F1B skeleton (the Fig 3b behavior the Fig 11
		// ablation measures as "Adaptive Pipelining" alone).
		Naive: !p.Techniques.DecoupledBackProp,
		Hint:  hint,
	}
	s, info, err := solver.SolveInstrumented(in)
	if err != nil {
		return nil, err
	}
	return &Plan{
		Failures:    len(failed),
		Assignment:  assign,
		Failed:      failed,
		Schedule:    s,
		PeriodSlots: s.SteadyPeriod(),
		PlanTime:    time.Since(start),
		Hint:        info.Hint,
		SolveKind:   info.Kind.String(),
	}, nil
}

// IterationSeconds converts a plan's steady-state period into wall-clock
// seconds using the profile's duration unit.
func (p *Planner) IterationSeconds(plan *Plan) float64 {
	return float64(plan.PeriodSlots) * p.Stats.UnitSeconds
}

// ThroughputSamplesPerSec returns the steady-state training throughput
// under the plan: global batch size divided by iteration time.
func (p *Planner) ThroughputSamplesPerSec(plan *Plan) float64 {
	it := p.IterationSeconds(plan)
	if it <= 0 {
		return 0
	}
	return float64(p.Job.Batch.GlobalBatch) / it
}
