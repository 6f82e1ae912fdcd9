package engine

import (
	"recycle/internal/config"
	"recycle/internal/core"
	"recycle/internal/profile"
	"recycle/internal/schedule"
)

// The engine is the single planning entry point: consumers (runtime,
// simulator, experiments, CLIs, benches) reach the planning core's types
// and helpers through these re-exports and never import internal/core
// directly. Keeping the imports funneled here lets the core evolve behind
// one façade — the invariant PR 1 established for the solver, extended to
// the planner.

type (
	// Techniques toggles the three ReCycle optimizations (Fig 11 ablation).
	Techniques = core.Techniques
	// Plan is one precomputed adaptive schedule plus its metadata.
	Plan = core.Plan
	// Planner is the plan-generation core (normalization + solve).
	Planner = core.Planner
)

// AllTechniques is the full ReCycle configuration.
var AllTechniques = core.AllTechniques

// NewPlanner builds a bare planning core for a job — the sequential
// baseline benchmarks and tests use it; production consumers construct a
// full Engine instead.
func NewPlanner(job config.Job, stats profile.Stats) *Planner {
	return core.New(job, stats)
}

// NormalizeFailures runs Failure Normalization (Algorithm 1): how many
// failures to migrate to each pipeline stage.
func NormalizeFailures(dp, pp, mb, failures int) ([]int, error) {
	return core.NormalizeFailures(dp, pp, mb, failures)
}

// SortWorkers orders workers canonically by (stage, pipeline).
func SortWorkers(ws []schedule.Worker) { core.SortWorkers(ws) }
