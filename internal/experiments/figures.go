package experiments

import (
	"fmt"
	"strings"
	"time"

	"recycle/internal/config"
	"recycle/internal/engine"
	"recycle/internal/failure"
	"recycle/internal/profile"
	"recycle/internal/replay"
	"recycle/internal/schedule"
	"recycle/internal/sim"
)

// GallerySlots reproduces the running example's slot counts (Figs 3a, 3b,
// 5 and 6): fault-free 27, naive adaptive insertion 36, decoupled 29,
// staggered steady-state == fault-free.
type GallerySlots struct {
	FaultFree       int64
	AdaptiveNaive   int64
	Decoupled       int64
	StaggeredPeriod int64
	FaultFreePeriod int64
}

// Gallery computes the Figs 3/5/6 slot counts via the plan service, one
// engine per technique configuration of the ablation ladder, with the
// paper's concrete failed worker W1_2.
func Gallery() (GallerySlots, error) {
	job, stats := engine.ShapeJob(3, 4, 6)
	failed := []schedule.Worker{{Stage: 2, Pipeline: 1}}
	adaptive := engine.Techniques{AdaptivePipelining: true}
	decoupled := engine.Techniques{AdaptivePipelining: true, DecoupledBackProp: true}
	mk := func(t engine.Techniques, unroll int) *engine.Engine {
		return engine.New(job, stats, engine.Options{Techniques: &t, UnrollIterations: unroll})
	}
	var g GallerySlots
	ff, err := mk(engine.AllTechniques, 1).Plan(0)
	if err != nil {
		return g, err
	}
	g.FaultFree = ff.Schedule.ComputeMakespan(0)
	naive, err := mk(adaptive, 1).PlanConcrete(failed)
	if err != nil {
		return g, err
	}
	g.AdaptiveNaive = naive.Schedule.ComputeMakespan(0)
	dec, err := mk(decoupled, 1).PlanConcrete(failed)
	if err != nil {
		return g, err
	}
	g.Decoupled = dec.Schedule.ComputeMakespan(0)
	st, err := mk(engine.AllTechniques, 4).PlanConcrete(failed)
	if err != nil {
		return g, err
	}
	g.StaggeredPeriod = st.PeriodSlots
	ffu, err := mk(engine.AllTechniques, 4).Plan(0)
	if err != nil {
		return g, err
	}
	g.FaultFreePeriod = ffu.PeriodSlots
	return g, nil
}

// Figure9Result is the trace-replay outcome for one model: ReCycle at op
// granularity via internal/replay, the baselines under their scalar
// system models.
type Figure9Result struct {
	Model     string
	FaultFree float64
	// Replay is ReCycle's chained-Program replay of the trace: every
	// stall in it is the makespan of real lost or re-planned
	// instructions, no analytic stall formula anywhere.
	Replay *replay.Result
	// Baselines holds the comparison systems' scalar-model averages
	// (samples/sec); OOM marks systems that cannot run the model.
	Baselines map[string]float64
	OOM       map[string]bool
}

// Figure9Jobs returns the two 24-worker jobs of the Fig 9 trace replay:
// GPT-3 Medium (PP=2, DP=12) and GPT-3 6.7B (PP=8, DP=3).
func Figure9Jobs() []config.Job {
	return []config.Job{
		{Model: config.GPT3Medium, Parallel: config.Parallelism{DP: 12, PP: 2, TP: 1}, Batch: config.Batch{GlobalBatch: 8160, MicroBatch: 8}, Hardware: config.A100x1},
		{Model: config.GPT3_6_7B, Parallel: config.Parallelism{DP: 3, PP: 8, TP: 1}, Batch: config.Batch{GlobalBatch: 1023, MicroBatch: 1}, Hardware: config.A100x1},
	}
}

// ReplayEngine assembles the op-granularity replay engine for a job: a
// single-iteration planner (the chaining granularity) over the calibrated
// cost model, so uneven layer splits replay with real stage imbalance.
// techniques selects a subset of the ReCycle techniques for ablations
// (nil plans with all of them) — every replay-driven experiment (Table 1,
// Fig 9, Fig 11) goes through here.
func ReplayEngine(job config.Job, techniques *engine.Techniques) (*engine.Engine, profile.Stats, error) {
	stats, err := profile.Analytic(job)
	if err != nil {
		return nil, profile.Stats{}, err
	}
	cm, err := profile.CalibratedCost(job, stats)
	if err != nil {
		return nil, profile.Stats{}, err
	}
	opts := engine.Options{UnrollIterations: 1, CostModel: cm, Techniques: techniques}
	return engine.New(job, stats, opts), stats, nil
}

// ReplayOptions derives the replay event latencies: a 5s detection delay
// per failure, and one stage-parameter copy per re-join. Both
// surface as release floors whose cost emerges as idle instructions in
// the spliced schedules.
func ReplayOptions(job config.Job, stats profile.Stats) replay.Options {
	copySec := stageCopySeconds(stats, job.Hardware)
	return replay.Options{
		Horizon:     Horizon,
		DetectDelay: 5 * time.Second,
		RejoinDelay: time.Duration(copySec * float64(time.Second)),
	}
}

// Figure9 replays the GCP availability trace (Fig 9a) on the GPT-3 Medium
// and 6.7B jobs (Figs 9b, 9c). ReCycle's row is computed by
// internal/replay: the whole trace drives chained Program executions, and
// mid-iteration failures and re-joins splice the in-flight Program, so
// reconfiguration stalls, catch-up bubbles and re-join warm-up emerge
// from lost and re-planned instructions. The baselines remain scalar
// system models — their published reconfiguration behavior, not ours.
func Figure9() ([]Figure9Result, string, error) {
	tr := failure.GCP()
	var out []Figure9Result
	var b strings.Builder
	fmt.Fprintf(&b, "Fig 9: GCP trace replay at op granularity (%d workers, min availability %d, avg %.1f)\n",
		tr.Total, tr.MinAvailable(), tr.Average(Horizon))
	for _, job := range Figure9Jobs() {
		systems, ff, err := systemsFor(job)
		if err != nil {
			return nil, "", err
		}
		eng, stats, err := ReplayEngine(job, nil)
		if err != nil {
			return nil, "", err
		}
		rep, err := replay.Replay(eng, tr, ReplayOptions(job, stats))
		if err != nil {
			return nil, "", fmt.Errorf("figure9: %s: %w", job.Model.Name, err)
		}
		r := Figure9Result{
			Model: job.Model.Name, FaultFree: ff, Replay: rep,
			Baselines: map[string]float64{}, OOM: map[string]bool{},
		}
		fmt.Fprintf(&b, "\n%s (fault-free %.2f samples/s)\n", job.Model.Name, ff)
		fmt.Fprintf(&b, "  %-12s avg %.2f samples/s  (%d iterations, %d events, %d spliced mid-iteration,\n",
			"ReCycle", rep.Average, rep.Iterations, len(rep.Events), rep.SplicedCount())
		fmt.Fprintf(&b, "  %-12s  emergent stall %.1fs, %d slots of completed work re-executed)\n",
			"", rep.StallSeconds, rep.LostSlots)
		for _, s := range systems {
			res := sim.Run(s, tr, Horizon)
			if res.OOM {
				r.OOM[s.Name()] = true
				fmt.Fprintf(&b, "  %-12s OOM\n", s.Name())
				continue
			}
			r.Baselines[s.Name()] = res.Average
			fmt.Fprintf(&b, "  %-12s avg %.2f samples/s\n", s.Name(), res.Average)
		}
		out = append(out, r)
	}
	return out, b.String(), nil
}

// Fig10Row is one bar of Fig 10: normalized throughput at a failure rate.
type Fig10Row struct {
	Model       string
	GPUs        int
	FailurePct  float64
	Failures    int
	FaultScaled float64 // (N-f)/N
	ReCycle     float64 // plan period ratio, normalized to fault-free
}

// Fig10 reproduces the simulated scaling study: normalized steady-state
// throughput of ReCycle at 1%, 5% and 10% worker failures for the four
// large GPT-3 models, against the fault-scaled ideal.
func Fig10() ([]Fig10Row, string, error) {
	var rows []Fig10Row
	var b strings.Builder
	fmt.Fprintf(&b, "Fig 10: normalized steady-state throughput vs failure rate\n")
	fmt.Fprintf(&b, "%-14s %6s %5s %9s %12s %9s\n", "model", "GPUs", "f%", "failures", "fault-scaled", "ReCycle")
	for _, job := range config.Fig10Jobs() {
		stats, err := profile.Analytic(job)
		if err != nil {
			return nil, "", fmt.Errorf("fig10: %s: %w", job.Model.Name, err)
		}
		eng := engine.New(job, stats, engine.Options{UnrollIterations: 2})
		ffPlan, err := eng.Plan(0)
		if err != nil {
			return nil, "", err
		}
		total := job.Parallel.Workers()
		for _, pct := range []float64{1, 5, 10} {
			f := failure.FailureRate(total, pct)
			plan, err := eng.Plan(f)
			if err != nil {
				return nil, "", fmt.Errorf("fig10: %s f=%d: %w", job.Model.Name, f, err)
			}
			row := Fig10Row{
				Model: job.Model.Name, GPUs: job.Parallel.GPUs(), FailurePct: pct, Failures: f,
				FaultScaled: float64(total-f) / float64(total),
				ReCycle:     float64(ffPlan.PeriodSlots) / float64(plan.PeriodSlots),
			}
			rows = append(rows, row)
			fmt.Fprintf(&b, "%-14s %6d %5.0f %9d %12.3f %9.3f\n",
				row.Model, row.GPUs, pct, f, row.FaultScaled, row.ReCycle)
		}
	}
	return rows, b.String(), nil
}

// Fig11Row is one ablation bar: normalized throughput with a technique set.
type Fig11Row struct {
	Model     string
	Adaptive  float64 // Adaptive Pipelining only
	Decoupled float64 // + Decoupled BackProp
	Staggered float64 // + Staggered Optimizer
}

// Fig11 reproduces the technique ablation: average normalized throughput
// under 30-minute failures with techniques enabled cumulatively. Every
// bar is computed at op granularity — the fault-free denominator is one
// compiled Program executed on the DES virtual clock, and the faulted
// numerator replays the monotonic trace through internal/replay under
// the same technique subset, so the ablation gap is made of real
// schedule slots, not stall formulas.
func Fig11() ([]Fig11Row, string, error) {
	var rows []Fig11Row
	var b strings.Builder
	fmt.Fprintf(&b, "Fig 11: ablation, normalized avg throughput under 30m failures (op-granularity replay)\n")
	fmt.Fprintf(&b, "%-14s %10s %11s %11s\n", "model", "adaptive", "+decoupled", "+staggered")
	for _, job := range config.Table1Jobs() {
		avg := func(t engine.Techniques) (float64, error) {
			eng, stats, err := ReplayEngine(job, &t)
			if err != nil {
				return 0, err
			}
			prog, err := eng.ProgramFor(nil)
			if err != nil {
				return 0, err
			}
			ex, err := sim.ExecuteProgram(prog, sim.ProgramOptions{})
			if err != nil {
				return 0, err
			}
			ff := float64(job.Batch.GlobalBatch) / (float64(ex.Makespan) * stats.UnitSeconds)
			tr := failure.Monotonic(job.Parallel.Workers(), 30*time.Minute, Horizon)
			rep, err := replay.Replay(eng, tr, ReplayOptions(job, stats))
			if err != nil {
				return 0, err
			}
			return rep.Average / ff, nil
		}
		a, err := avg(engine.Techniques{AdaptivePipelining: true})
		if err != nil {
			return nil, "", err
		}
		d, err := avg(engine.Techniques{AdaptivePipelining: true, DecoupledBackProp: true})
		if err != nil {
			return nil, "", err
		}
		s, err := avg(engine.AllTechniques)
		if err != nil {
			return nil, "", err
		}
		row := Fig11Row{Model: job.Model.Name, Adaptive: a, Decoupled: d, Staggered: s}
		rows = append(rows, row)
		fmt.Fprintf(&b, "%-14s %10.3f %11.3f %11.3f\n", row.Model, a, d, s)
	}
	return rows, b.String(), nil
}
