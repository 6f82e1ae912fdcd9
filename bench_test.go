// Package recycle's root benchmark harness: one benchmark per table and
// figure of the paper's evaluation (§6), plus ablation benches for the
// design choices DESIGN.md calls out. Reported custom metrics carry the
// reproduced quantities (slots, samples/sec, normalized throughput, gap %)
// so `go test -bench=. -benchmem` regenerates the evaluation end to end.
package recycle

import (
	"testing"
	"time"

	"recycle/internal/config"
	"recycle/internal/engine"
	"recycle/internal/experiments"
	"recycle/internal/failure"
	"recycle/internal/profile"
	"recycle/internal/schedule"
	"recycle/internal/sim"
)

// gallery worker W1_2, the running example's failure.
var galleryFailed = []schedule.Worker{{Stage: 2, Pipeline: 1}}

// galleryPlanner builds the running example's planner for one technique
// rung of the ablation ladder.
func galleryPlanner(t engine.Techniques, unroll int) *engine.Planner {
	job, stats := engine.ShapeJob(3, 4, 6)
	p := engine.NewPlanner(job, stats)
	p.Techniques = t
	p.UnrollIterations = unroll
	return p
}

// BenchmarkFig3FaultFree1F1B regenerates Figure 3a (27 slots).
func BenchmarkFig3FaultFree1F1B(b *testing.B) {
	p := galleryPlanner(engine.AllTechniques, 1)
	var slots int64
	for i := 0; i < b.N; i++ {
		plan, err := p.PlanFor(0)
		if err != nil {
			b.Fatal(err)
		}
		slots = plan.Schedule.ComputeMakespan(0)
	}
	b.ReportMetric(float64(slots), "slots")
}

// BenchmarkFig3bAdaptiveNaive regenerates Figure 3b (36 slots).
func BenchmarkFig3bAdaptiveNaive(b *testing.B) {
	p := galleryPlanner(engine.Techniques{AdaptivePipelining: true}, 1)
	var slots int64
	for i := 0; i < b.N; i++ {
		plan, err := p.PlanConcrete(galleryFailed)
		if err != nil {
			b.Fatal(err)
		}
		slots = plan.Schedule.ComputeMakespan(0)
	}
	b.ReportMetric(float64(slots), "slots")
}

// BenchmarkFig5Decoupled regenerates Figure 5 (29 slots).
func BenchmarkFig5Decoupled(b *testing.B) {
	p := galleryPlanner(engine.Techniques{AdaptivePipelining: true, DecoupledBackProp: true}, 1)
	var slots int64
	for i := 0; i < b.N; i++ {
		plan, err := p.PlanConcrete(galleryFailed)
		if err != nil {
			b.Fatal(err)
		}
		slots = plan.Schedule.ComputeMakespan(0)
	}
	b.ReportMetric(float64(slots), "slots")
}

// BenchmarkFig6Staggered regenerates Figure 6 (zero-overhead steady period).
func BenchmarkFig6Staggered(b *testing.B) {
	p := galleryPlanner(engine.AllTechniques, 4)
	var period int64
	for i := 0; i < b.N; i++ {
		plan, err := p.PlanConcrete(galleryFailed)
		if err != nil {
			b.Fatal(err)
		}
		period = plan.PeriodSlots
	}
	b.ReportMetric(float64(period), "period-slots")
}

// BenchmarkTable1Throughput regenerates Table 1 (average throughput under
// monotonic failures; ReCycle vs Oobleck/Bamboo/elastic/fault-scaled).
func BenchmarkTable1Throughput(b *testing.B) {
	var rows []experiments.Table1Row
	for i := 0; i < b.N; i++ {
		var err error
		rows, _, err = experiments.Table1()
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, r := range rows {
		if r.Frequency == 30*time.Minute && r.Avg["Oobleck"] > 0 {
			b.ReportMetric(r.Avg["ReCycle"]/r.Avg["Oobleck"], "x-oobleck-"+shortName(r.Model))
		}
	}
}

// BenchmarkTable2SimFidelity regenerates Table 2 (simulator vs live
// runtime gap).
func BenchmarkTable2SimFidelity(b *testing.B) {
	var rows []experiments.Table2Row
	for i := 0; i < b.N; i++ {
		var err error
		rows, _, err = experiments.Table2()
		if err != nil {
			b.Fatal(err)
		}
	}
	worst := 0.0
	for _, r := range rows {
		if g := abs(r.GapPct); g > worst {
			worst = g
		}
	}
	b.ReportMetric(worst, "max-gap-%")
}

// BenchmarkStragglerReplanGain regenerates the gray-failure study: the
// throughput a cost-model-aware re-plan recovers from a 2x straggler,
// relative to the straggler-oblivious plan, under the DES virtual clock.
func BenchmarkStragglerReplanGain(b *testing.B) {
	var rows []experiments.StragglerRow
	for i := 0; i < b.N; i++ {
		var err error
		rows, _, err = experiments.Straggler()
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, r := range rows {
		if r.Factor == 2 {
			b.ReportMetric(r.GainPct, "gain-%-at-2x")
		}
	}
}

// BenchmarkFig9TraceReplay regenerates Figure 9: ReCycle replayed at op
// granularity through internal/replay, baselines under their scalar
// models.
func BenchmarkFig9TraceReplay(b *testing.B) {
	var res []experiments.Figure9Result
	for i := 0; i < b.N; i++ {
		var err error
		res, _, err = experiments.Figure9()
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, r := range res {
		if o := r.Baselines["Oobleck"]; o > 0 {
			b.ReportMetric(r.Replay.Average/o, "x-oobleck-"+shortName(r.Model))
		}
		if bb := r.Baselines["Bamboo"]; bb > 0 {
			b.ReportMetric(r.Replay.Average/bb, "x-bamboo-"+shortName(r.Model))
		}
		b.ReportMetric(r.Replay.StallSeconds, "emergent-stall-s-"+shortName(r.Model))
	}
}

// BenchmarkFig10Scalability regenerates Figure 10 (normalized throughput
// at 1/5/10% failures on 256-1536 GPU clusters).
func BenchmarkFig10Scalability(b *testing.B) {
	var rows []experiments.Fig10Row
	for i := 0; i < b.N; i++ {
		var err error
		rows, _, err = experiments.Fig10()
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, r := range rows {
		if r.FailurePct == 10 {
			b.ReportMetric(r.ReCycle, "norm-10pct-"+shortName(r.Model))
		}
	}
}

// BenchmarkFig11Ablation regenerates Figure 11 (technique ablation).
func BenchmarkFig11Ablation(b *testing.B) {
	var rows []experiments.Fig11Row
	for i := 0; i < b.N; i++ {
		var err error
		rows, _, err = experiments.Fig11()
		if err != nil {
			b.Fatal(err)
		}
	}
	if len(rows) > 0 {
		b.ReportMetric(rows[0].Adaptive, "adaptive")
		b.ReportMetric(rows[0].Decoupled, "decoupled")
		b.ReportMetric(rows[0].Staggered, "staggered")
	}
}

// BenchmarkFig12Memory regenerates Figure 12 (per-stage memory).
func BenchmarkFig12Memory(b *testing.B) {
	var rows []experiments.Fig12Row
	for i := 0; i < b.N; i++ {
		var err error
		rows, _, err = experiments.Fig12()
		if err != nil {
			b.Fatal(err)
		}
	}
	last := rows[len(rows)-1]
	b.ReportMetric(float64(last.ReCycleBytes)/float64(last.CapacityBytes), "laststage-util")
}

// BenchmarkFig13PlannerLatency regenerates Figure 13 on a reduced grid
// (the full 6x5 grid is available via cmd/recycle-bench -fig13).
func BenchmarkFig13PlannerLatency(b *testing.B) {
	var cells []experiments.Fig13Cell
	for i := 0; i < b.N; i++ {
		var err error
		cells, _, err = experiments.Fig13([]int{2, 8, 32}, []int{2, 8})
		if err != nil {
			b.Fatal(err)
		}
	}
	if n := len(cells); n > 0 {
		b.ReportMetric(cells[n-1].Latency.Seconds(), "largest-cell-s")
	}
}

// BenchmarkAblationNaiveVsDeadline quantifies the design choice DESIGN.md
// calls out: deadline-driven (ALAP) list scheduling vs naive skeleton
// insertion, on a coupled-backward adaptive schedule.
func BenchmarkAblationNaiveVsDeadline(b *testing.B) {
	job, stats := engine.ShapeJob(4, 8, 32)
	failed := []schedule.Worker{{Stage: 7, Pipeline: 3}}
	naiveP := engine.NewPlanner(job, stats)
	naiveP.Techniques = engine.Techniques{AdaptivePipelining: true}
	naiveP.UnrollIterations = 2
	smartP := engine.NewPlanner(job, stats)
	smartP.UnrollIterations = 2
	var naive, smart int64
	for i := 0; i < b.N; i++ {
		n, err := naiveP.PlanConcrete(failed)
		if err != nil {
			b.Fatal(err)
		}
		s, err := smartP.PlanConcrete(failed)
		if err != nil {
			b.Fatal(err)
		}
		naive, smart = n.PeriodSlots, s.PeriodSlots
	}
	b.ReportMetric(float64(naive), "naive-period")
	b.ReportMetric(float64(smart), "deadline-period")
}

// BenchmarkProgramExecute measures the shared-IR hot path: one virtual
// execution of the running example's adapted Program (W1_2 failed) per
// iteration — the discrete-event step every scenario replay pays per
// failure state.
func BenchmarkProgramExecute(b *testing.B) {
	job, stats := engine.ShapeJob(3, 4, 6)
	eng := engine.New(job, stats, engine.Options{UnrollIterations: 1})
	prog, err := eng.ProgramFor(map[schedule.Worker]bool{{Stage: 2, Pipeline: 1}: true})
	if err != nil {
		b.Fatal(err)
	}
	var slots int64
	for i := 0; i < b.N; i++ {
		ex, err := sim.ExecuteProgram(prog, sim.ProgramOptions{})
		if err != nil {
			b.Fatal(err)
		}
		slots = ex.ComputeMakespan(0)
	}
	b.ReportMetric(float64(slots), "slots")
	b.ReportMetric(float64(len(prog.Instrs)), "instrs")
}

// BenchmarkProgramCompile measures schedule.Compile itself (lowering the
// adapted 3x4x6 plan), the one-time cost the engine amortizes behind its
// program cache.
func BenchmarkProgramCompile(b *testing.B) {
	p := galleryPlanner(engine.AllTechniques, 1)
	plan, err := p.PlanConcrete(galleryFailed)
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < b.N; i++ {
		if _, err := schedule.Compile(plan.Schedule); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkProgramCodecFig10 measures the Program codec at scale: one
// encode and one decode (which re-validates) of the 256-GPU Fig 10
// Program at 5% failures — the artifact a remote executor fetches after
// an adaptation. Bytes per instruction stay flat in DP because each
// stage's all-reduce is one join, not an edge per contributor on every
// optimizer.
func BenchmarkProgramCodecFig10(b *testing.B) {
	job := config.Fig10Jobs()[0]
	stats, err := profile.Analytic(job)
	if err != nil {
		b.Fatal(err)
	}
	eng := engine.New(job, stats, engine.Options{UnrollIterations: 1})
	prog, err := eng.Program(failure.FailureRate(job.Parallel.Workers(), 5))
	if err != nil {
		b.Fatal(err)
	}
	var size int
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		data, err := engine.EncodeProgram(prog)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := engine.DecodeProgram(data); err != nil {
			b.Fatal(err)
		}
		size = len(data)
	}
	b.ReportMetric(float64(size)/float64(len(prog.Instrs)), "bytes/instr")
	b.ReportMetric(float64(len(prog.Instrs)), "instrs")
}

// planAllJob is the workload of the PlanAll benches: the Table 1 GPT-3
// 3.35B job (DP=8, so the offline phase solves 8 independent plans).
func planAllJob(b *testing.B) (config.Job, profile.Stats) {
	b.Helper()
	job := config.Table1Jobs()[1]
	stats, err := profile.Analytic(job)
	if err != nil {
		b.Fatal(err)
	}
	return job, stats
}

// BenchmarkPlanAllSequential is the baseline: the offline phase solving
// each failure count serially through the core planner.
func BenchmarkPlanAllSequential(b *testing.B) {
	job, stats := planAllJob(b)
	for i := 0; i < b.N; i++ {
		p := engine.NewPlanner(job, stats)
		p.UnrollIterations = 2
		store := engine.NewPlanStore()
		if err := p.PlanAll(store, 0); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkWarmParallel runs the same offline phase through the plan
// service's bounded worker pool (plus the encode/replicate step every plan
// now pays). A fresh engine per iteration keeps the cache cold so each
// iteration measures real solves.
func BenchmarkWarmParallel(b *testing.B) {
	job, stats := planAllJob(b)
	for i := 0; i < b.N; i++ {
		eng := engine.New(job, stats, engine.Options{UnrollIterations: 2})
		if err := eng.Warm(0).Wait(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationNormalizationCost compares the shipped convex per-peer
// COST heuristic against the paper's literal stage-total form on a
// multi-failure normalization.
func BenchmarkAblationNormalizationCost(b *testing.B) {
	var convex, literal int64
	for i := 0; i < b.N; i++ {
		a, err := engine.NormalizeFailures(16, 2, 64, 6)
		if err != nil {
			b.Fatal(err)
		}
		convex = int64(maxInt(a))
		literal = int64(6) // the literal linear cost ties; worst split piles 6-?? on one stage
	}
	b.ReportMetric(float64(convex), "convex-max-per-stage")
	b.ReportMetric(float64(literal), "literal-tie-worstcase")
}

// BenchmarkPlannerTable1Jobs measures end-to-end planning latency for the
// three real-cluster jobs at their guaranteed tolerance (DP-1 failures).
func BenchmarkPlannerTable1Jobs(b *testing.B) {
	for _, job := range config.Table1Jobs() {
		b.Run(shortName(job.Model.Name), func(b *testing.B) {
			stats, err := profile.Analytic(job)
			if err != nil {
				b.Fatal(err)
			}
			planner := engine.NewPlanner(job, stats)
			planner.UnrollIterations = 2
			for i := 0; i < b.N; i++ {
				if _, err := planner.PlanFor(job.Parallel.DP - 1); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func shortName(s string) string {
	out := make([]rune, 0, len(s))
	for _, r := range s {
		if r == ' ' {
			r = '-'
		}
		out = append(out, r)
	}
	return string(out)
}

func abs(f float64) float64 {
	if f < 0 {
		return -f
	}
	return f
}

func maxInt(xs []int) int {
	m := 0
	for _, x := range xs {
		if x > m {
			m = x
		}
	}
	return m
}
