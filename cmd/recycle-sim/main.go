// Command recycle-sim runs the training simulator (§6.3) against a
// failure workload: a monotonic failure frequency, the GCP trace of
// Fig 9a, or per-machine Poisson failures.
//
// ReCycle (-system recycle, the default) is replayed at op granularity
// by internal/replay: chained compiled-Program executions whose
// mid-iteration failures and re-joins splice the in-flight Program. The
// baselines (oobleck | bamboo | elastic | scaled) are steady-state system
// models driven by sim.Run, and print their throughput timeline.
//
// With -des N the simulator executes the compiled Program for N failures
// op-by-op in virtual time instead, optionally with a straggler
// (-straggle), and prints the per-iteration compute makespans and
// per-worker utilization.
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"recycle/internal/baselines"
	"recycle/internal/config"
	"recycle/internal/engine"
	"recycle/internal/experiments"
	"recycle/internal/failure"
	"recycle/internal/obs"
	"recycle/internal/profile"
	"recycle/internal/replay"
	"recycle/internal/schedule"
	"recycle/internal/sim"
)

func main() {
	model := flag.String("model", "medium", "model preset: medium | 3.35b | 6.7b")
	system := flag.String("system", "recycle", "system: recycle | oobleck | bamboo | elastic | scaled")
	freq := flag.Duration("freq", 30*time.Minute, "monotonic failure frequency")
	gcp := flag.Bool("gcp", false, "replay the GCP availability trace instead (24-worker Fig 9 job: medium | 6.7b)")
	horizon := flag.Duration("horizon", 6*time.Hour, "simulated duration")
	des := flag.Int("des", -1, "execute the compiled Program for this failure count op-by-op in virtual time instead of replaying a trace")
	straggle := flag.Float64("straggle", 1, "with -des: duration multiplier applied to worker W0_0 (straggler injection)")
	aware := flag.Bool("aware", true, "with -des and -straggle != 1: also solve a straggler-aware plan (cost model carries the slowdown) and compare makespans")
	events := flag.Bool("events", false, "with -system recycle: print the recorded lifecycle-event log (membership changes, kills, cuts)")
	tracePath := flag.String("trace", "", "with -des or -system recycle: record every executed Program and write a Chrome/Perfetto trace to this file (critical path audited first)")
	mtbf := flag.Duration("mtbf", 0, "per-machine Poisson failure trace: mean time between failures of each machine (0 keeps the monotonic workload)")
	mttr := flag.Duration("mttr", 30*time.Minute, "with -mtbf: mean repair time of a failed machine (0 makes failures permanent)")
	seed := flag.Int64("seed", 1, "with -mtbf: seed of the per-machine failure processes")
	flag.Parse()

	var set []string
	flag.Visit(func(f *flag.Flag) { set = append(set, f.Name) })
	if err := checkFlags(*system, *des >= 0, set); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	if *des >= 0 {
		job, ok := table1Jobs[*model]
		if !ok {
			fmt.Fprintf(os.Stderr, "unknown model %q\n", *model)
			os.Exit(2)
		}
		if err := desTimeline(job, *des, *straggle, *aware, *tracePath); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		return
	}
	job, tr, err := workload(*model, *gcp, *freq, *horizon, *mtbf, *mttr, *seed)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	if *system == "recycle" {
		err = opReplay(job, tr, *horizon, *events, *tracePath)
	} else {
		err = scalarRun(job, *system, tr, *horizon)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}

// table1Jobs maps each -model preset to its 32-worker Table 1 job.
var table1Jobs = map[string]config.Job{
	"medium": config.Table1Jobs()[0],
	"3.35b":  config.Table1Jobs()[1],
	"6.7b":   config.Table1Jobs()[2],
}

// modeFlags lists the flags each mode reads besides -model. A flag set
// explicitly outside its mode is an error rather than silently ignored.
var modeFlags = map[string][]string{
	"des":      {"des", "straggle", "aware", "trace"},
	"recycle":  {"system", "freq", "gcp", "horizon", "mtbf", "mttr", "seed", "events", "trace"},
	"baseline": {"system", "freq", "gcp", "horizon", "mtbf", "mttr", "seed"},
}

// checkFlags rejects an unknown -system and any of the explicitly set
// flags that the selected mode does not read.
func checkFlags(system string, des bool, set []string) error {
	mode := "recycle"
	switch {
	case des:
		mode = "des"
	case system == "oobleck" || system == "bamboo" || system == "elastic" || system == "scaled":
		mode = "baseline"
	case system != "recycle":
		return fmt.Errorf("unknown system %q", system)
	}
	reads := map[string]bool{"model": true}
	for _, f := range modeFlags[mode] {
		reads[f] = true
	}
	for _, f := range set {
		if reads[f] {
			continue
		}
		if mode == "des" {
			return fmt.Errorf("-%s has no effect with -des", f)
		}
		if f == "des" || f == "straggle" || f == "aware" {
			return fmt.Errorf("-%s has no effect without -des", f)
		}
		return fmt.Errorf("-%s has no effect with -system %s", f, system)
	}
	return nil
}

// workload returns the failure trace the flags select and the job it
// runs against. The GCP trace is sized for 24 workers, so -gcp selects
// the Fig 9 24-worker variant of the model; -mtbf replaces the monotonic
// workload with per-machine Poisson failure processes; monotonic traces
// run the 32-worker Table 1 job.
func workload(model string, gcp bool, freq, horizon, mtbf, mttr time.Duration, seed int64) (config.Job, failure.Trace, error) {
	job, ok := table1Jobs[model]
	if !ok {
		return config.Job{}, failure.Trace{}, fmt.Errorf("unknown model %q", model)
	}
	switch {
	case gcp:
		switch model {
		case "medium":
			job = experiments.Figure9Jobs()[0]
		case "6.7b":
			job = experiments.Figure9Jobs()[1]
		default:
			return config.Job{}, failure.Trace{}, fmt.Errorf("-gcp needs a 24-worker Fig 9 preset (medium | 6.7b), not %q", model)
		}
		return job, failure.GCP(), nil
	case mtbf > 0:
		return job, failure.PoissonMachines(job.Parallel.Workers(), mtbf, mttr, horizon, seed), nil
	default:
		return job, failure.Monotonic(job.Parallel.Workers(), freq, horizon), nil
	}
}

// scalarRun replays the trace against a baseline's steady-state model,
// normalized to the throughput of ReCycle's fault-free plan.
func scalarRun(job config.Job, system string, tr failure.Trace, horizon time.Duration) error {
	stats, err := profile.Analytic(job)
	if err != nil {
		return err
	}
	eng := engine.New(job, stats, engine.Options{})
	plan0, err := eng.Plan(0)
	if err != nil {
		return err
	}
	ff := eng.ThroughputSamplesPerSec(plan0)
	common, err := baselines.NewCommon(job, stats, ff)
	if err != nil {
		return err
	}
	sys := map[string]sim.System{
		"oobleck": baselines.Oobleck{C: common},
		"bamboo":  baselines.Bamboo{C: common},
		"elastic": baselines.Elastic{C: common},
		"scaled":  baselines.FaultScaled{C: common},
	}[system]
	res := sim.Run(sys, tr, horizon)
	if res.OOM {
		return fmt.Errorf("%s cannot train %s: %v", sys.Name(), job.Model.Name, res.Err)
	}
	fmt.Printf("%s on %s over %s (%s):\n", sys.Name(), job.Model.Name, horizon, tr.Name)
	fmt.Printf("%10s %10s %8s %14s %10s\n", "from", "to", "failed", "samples/s", "stall")
	for _, p := range res.Timeline {
		fmt.Printf("%10s %10s %8d %14.2f %10s\n",
			p.Start.Round(time.Second), p.End.Round(time.Second), p.Failed, p.Throughput, p.Stall.Round(time.Millisecond))
	}
	fmt.Printf("\naverage throughput: %.2f samples/s (fault-free %.2f, ratio %.3f)\n", res.Average, ff, res.Average/ff)
	return nil
}

// opReplay drives the trace through internal/replay: chained
// compiled-Program executions, one per membership state, with
// mid-iteration failures and re-joins spliced into the in-flight Program.
// Victims come from the trace's machine identities.
func opReplay(job config.Job, tr failure.Trace, horizon time.Duration, events bool, tracePath string) error {
	eng, stats, err := experiments.ReplayEngine(job, nil)
	if err != nil {
		return err
	}
	opts := experiments.ReplayOptions(job, stats)
	opts.Horizon = horizon
	var rec *obs.Trace
	if events || tracePath != "" {
		rec = obs.NewTrace()
		opts.Recorder = rec
	}
	res, err := replay.Replay(eng, tr, opts)
	if err != nil {
		return err
	}
	if cm := eng.CostModel(); cm != nil {
		fmt.Printf("calibrated stage scales: %s\n", cm.Signature())
	}
	fmt.Printf("op-granularity replay of %s on %s over %s:\n", tr.Name, job.Model.Name, horizon)
	fmt.Printf("  %d iterations, %.0f samples, avg %.2f samples/s\n", res.Iterations, res.Samples, res.Average)
	fmt.Printf("  %d membership events (%d spliced mid-iteration)\n", len(res.Events), res.SplicedCount())
	fmt.Printf("  emergent stall %.1fs, %d slots of completed work re-executed\n", res.StallSeconds, res.LostSlots)
	fmt.Printf("  %d micro-batch triples migrated owners across splices\n", res.MigratedTriples)
	if events {
		fmt.Printf("\nrecorded lifecycle events:\n%s", obs.FormatEvents(rec.Events()))
	}
	if tracePath != "" {
		return exportTrace(rec, tracePath)
	}
	return nil
}

// exportTrace audits the recorded trace (the critical path must tile every
// segment's makespan exactly) and writes the Chrome/Perfetto JSON to path.
func exportTrace(rec *obs.Trace, path string) error {
	summary, err := obs.AuditCriticalPaths(rec)
	if summary != "" {
		fmt.Println("\n" + summary)
	}
	if err != nil {
		return fmt.Errorf("critical-path audit: %w", err)
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := obs.WriteChromeTrace(f, rec); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	c := rec.Counters()
	fmt.Printf("trace: %d segments, %d spans, %d events -> %s\n",
		c["segments"], c["spans"], c["events"], path)
	return nil
}

// desTimeline compiles the plan for n failures into a Program and executes
// it op-by-op in virtual time — the schedule-accurate view a steady-state
// throughput model cannot give. With a straggler injected, it additionally
// re-solves with the slowdown in the Planner's cost model and reports how
// much makespan the straggler-aware plan recovers.
func desTimeline(job config.Job, n int, straggle float64, aware bool, tracePath string) error {
	stats, err := profile.Analytic(job)
	if err != nil {
		return err
	}
	eng := engine.New(job, stats, engine.Options{})
	prog, err := eng.Program(n)
	if err != nil {
		return err
	}
	opts := sim.ProgramOptions{}
	var rec *obs.Trace
	if tracePath != "" {
		rec = obs.NewTrace()
		opts.Recorder = rec
		opts.TraceLabel = fmt.Sprintf("des/%df", n)
	}
	victim := schedule.Worker{Stage: 0, Pipeline: 0}
	if straggle != 1 {
		opts.Scale = map[schedule.Worker]float64{victim: straggle}
	}
	ex, err := sim.ExecuteProgram(prog, opts)
	if err != nil {
		return err
	}
	fmt.Printf("compiled Program for %d failures on %s: %d instructions over %d workers\n",
		n, job.Model.Name, len(prog.Instrs), len(prog.Workers()))
	if straggle != 1 {
		fmt.Printf("straggler: %s at %.2fx\n", victim, straggle)
	}
	for it := 0; it < prog.Shape.Iter; it++ {
		fmt.Printf("  iteration %d compute makespan: %d slots\n", it, ex.ComputeMakespan(it))
	}
	fmt.Printf("  total makespan (incl. optimizer): %d slots\n", ex.Makespan)
	busy := ex.WorkerBusy()
	var worst schedule.Worker
	var worstIdle float64 = -1
	for _, w := range prog.Workers() {
		idle := 1 - float64(busy[w])/float64(ex.Makespan)
		if idle > worstIdle {
			worst, worstIdle = w, idle
		}
	}
	fmt.Printf("  most idle worker: %s (%.1f%% idle)\n", worst, worstIdle*100)
	if straggle != 1 && aware {
		row, err := experiments.StragglerStudyJob(job, stats, n, victim, straggle)
		if err != nil {
			return err
		}
		fmt.Printf("\nstraggler-aware re-plan (cost model carries %s at %.2fx):\n", victim, straggle)
		fmt.Printf("  oblivious plan makespan: %d slots (victim executes %d compute ops)\n", row.ObliviousSlots, row.VictimOps)
		fmt.Printf("  aware plan makespan:     %d slots (victim executes %d compute ops)\n", row.AwareSlots, row.VictimOpsAware)
		fmt.Printf("  throughput gain from re-planning: %+.1f%%\n", row.GainPct)
	}
	m := eng.Metrics()
	fmt.Printf("plan service: %d solves, %d programs compiled\n", m.Solves, m.Compiles)
	if tracePath != "" {
		return exportTrace(rec, tracePath)
	}
	return nil
}
