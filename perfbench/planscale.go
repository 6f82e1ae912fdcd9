package main

import (
	"fmt"
	"math/rand"
	"time"

	"recycle/internal/config"
	"recycle/internal/engine"
	"recycle/internal/failure"
	"recycle/internal/obs"
	"recycle/internal/profile"
	"recycle/internal/schedule"
	"recycle/internal/sim"
)

// planRates are the Fig 10 failure rates, in percent of the fleet; each
// run draws setsPerRate concrete failure sets at each rate.
var planRates = []float64{1, 5, 10}

const setsPerRate = 2

// planOptions plan single-iteration programs, the granularity the live
// runtime and the replayer execute; a plan's period is then its
// iteration makespan.
var planOptions = engine.Options{UnrollIterations: 1}

type planSetup struct {
	job      config.Job
	stats    profile.Stats
	sets     [][]schedule.Worker // one seeded failure set per rate
	ffPeriod int64
}

// setupPlan profiles the 256-GPU job, draws the failure sets and solves
// the fault-free plan, the normalization base of the Fig 10 quantity.
func setupPlan(seed int64) (*planSetup, error) {
	job := config.Fig10Jobs()[0]
	stats, err := profile.Analytic(job)
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(seed))
	s := &planSetup{job: job, stats: stats}
	dp, pp := job.Parallel.DP, job.Parallel.PP
	for _, pct := range planRates {
		for k := 0; k < setsPerRate; k++ {
			ws, err := failureSet(rng, failure.FailureRate(dp*pp, pct), dp, pp)
			if err != nil {
				return nil, err
			}
			s.sets = append(s.sets, ws)
		}
	}
	ff, err := engine.New(job, stats, planOptions).Plan(0)
	if err != nil {
		return nil, err
	}
	s.ffPeriod = ff.PeriodSlots
	return s, nil
}

// planOutcome is one op's result.
type planOutcome struct {
	planS, wall time.Duration
	period      int64
	instrs      int
}

// key returns the figures set-up derives from the seed alone.
func (s *planSetup) key() string {
	return fmt.Sprintf("sets=%v fault-free period=%d", s.sets, s.ffPeriod)
}

// adaptOnce is one op: a cold coordinator engine plans and compiles the
// failure set, an executor-side client sharing its store fetches and
// decodes the Program, validates it and executes it on the DES; the
// coordinator's encoding must survive decode and re-encode byte for byte.
// A recorded or probed op attaches an obs.Trace to the coordinator; a
// probed one also opens spans (sp is nil otherwise) and takes the layer
// probes after the op.
func adaptOnce(s *planSetup, ws []schedule.Worker, m mode, sp *spans, probe *planeProbe) (planOutcome, error) {
	var out planOutcome
	t0 := time.Now()
	eng := engine.New(s.job, s.stats, planOptions)
	if m != bare {
		eng.SetRecorder(obs.NewTrace())
	}
	client := engine.NewClient(eng.Store(), s.job, s.stats, planOptions)
	failed := make(map[schedule.Worker]bool, len(ws))
	for _, w := range ws {
		failed[w] = true
	}
	var err error
	var prog, fetched *schedule.Program
	sp.do("plan", func() { prog, err = eng.ProgramConcrete(ws) })
	if err != nil {
		return out, err
	}
	sp.do("decode", func() { fetched, err = client.ProgramFor(failed) })
	if err != nil {
		return out, err
	}
	sp.do("validate", func() { err = fetched.Validate() })
	if err != nil {
		return out, err
	}
	out.planS = time.Since(t0)
	var ex *sim.Execution
	sp.do("des", func() { ex, err = sim.ExecuteProgram(fetched, sim.ProgramOptions{}) })
	if err != nil {
		return out, err
	}
	if ex.Completed != len(fetched.Instrs) {
		return out, fmt.Errorf("DES completed %d of %d instructions", ex.Completed, len(fetched.Instrs))
	}
	var b []byte
	sp.do("encode", func() { b, err = engine.EncodeProgram(prog) })
	if err != nil {
		return out, err
	}
	if err := reencodes(b, fetched); err != nil {
		return out, err
	}
	out.wall = time.Since(t0)
	em := eng.Metrics()
	plan, err := eng.PlanConcrete(ws) // cached: read the period and solve time
	if err != nil {
		return out, err
	}
	out.period, out.instrs = plan.PeriodSlots, len(fetched.Instrs)
	if m == probed {
		probe.ops++
		probe.events++
		probe.addEngine(em)
		probe.solveMs += ms(plan.PlanTime)
		probe.solveN++
		probe.addProgram(fetched, len(b))
		sp.do("compile", func() { _, err = schedule.Compile(plan.Schedule) })
	}
	return out, err
}

func runPlanScale(o opts) (*report, error) {
	rep := &report{}
	s, setupS, err := medianSetup(rep, func() (*planSetup, error) { return setupPlan(o.seed) }, (*planSetup).key)
	if err != nil {
		return nil, err
	}
	var sp *spans
	if o.trace {
		sp = newSpans()
	}
	probe := &planeProbe{}
	periods := make([]int64, len(s.sets))
	var planMs, opMs samples

	op := func(i int, m mode) (time.Duration, error) {
		ws := s.sets[i]
		var osp *spans // the probed ops' spans; nil otherwise
		if m == probed {
			osp = sp
			osp.beginOp()
		}
		out, err := adaptOnce(s, ws, m, osp, probe)
		rate := planRates[i/setsPerRate]
		if err != nil {
			return 0, fmt.Errorf("%g%% failure set (%d workers): %w", rate, len(ws), err)
		}
		if periods[i] == 0 {
			periods[i] = out.period
		} else if periods[i] != out.period {
			return 0, fmt.Errorf("%g%% failure set: period %d, earlier %d", rate, out.period, periods[i])
		}
		if m == bare {
			planMs.add(out.planS)
			opMs.add(out.wall)
		}
		fmt.Printf("op: %s %g%% failures=%d plan_s=%.3f op_s=%.3f instrs=%d\n", m, rate, len(ws), out.planS.Seconds(), out.wall.Seconds(), out.instrs)
		return out.wall, nil
	}
	st := runOps(o, rep, len(s.sets), true, op)

	var norm float64
	for i, p := range periods {
		if p == 0 {
			rep.fail("%g%% failure set never planned", planRates[i/setsPerRate])
			continue
		}
		norm += float64(s.ffPeriod) / float64(p) / float64(len(periods))
	}
	fmt.Printf("periods: fault-free %d, adapted %v\n", s.ffPeriod, periods)

	tailPct, tail := opMs.tail()
	rep.e2e = []metric{
		{"work_per_s", "", float64(st.n) / st.busy.Seconds(), fmt.Sprintf("plans/s: %d adaptations in %.2fs of ops", st.n, st.busy.Seconds())},
		{"op_ms_p50", "", opMs.median(), fmt.Sprintf("whole op (plan, decode, validate, DES, codec check), n=%d", len(opMs))},
		{"recovery_ms_p50", "", planMs.median(), fmt.Sprintf("plan_s in ms, n=%d", len(planMs))},
		{"modeled_norm_throughput", "", norm, fmt.Sprintf("fault-free/adapted period, mean of %v%% failures", planRates)},
		setupS,
		{"heap_peak_mb", "", st.heapMB.median(), fmt.Sprintf("per-op peak in-use heap, p50, n=%d", len(st.heapMB))},
	}
	rep.detail = []metric{
		{"plan_s", "s", planMs.median() / 1000, fmt.Sprintf("new failure set to decoded, validated Program at the executor, p50, n=%d", len(planMs))},
		{"op_ms_tail", "ms", tail, fmt.Sprintf("p%g, n=%d (no percentile has ten samples beyond it below n=100)", tailPct, len(opMs))},
		{"heap_max_mb", "MB", st.heapMB.quantile(1), "largest op peak"},
	}
	if o.trace {
		rep.sp = sp
		self, _ := sp.selfMs()
		rep.layer = probe.layers(self, st.overheadPct)
	}
	return rep, nil
}

// planeProbe accumulates the probed ops' control-plane counters on the
// workloads without tensors; an event is a membership change (one per
// plan-scale op).
type planeProbe struct {
	ops, events            float64
	hits, solves, compiles float64
	solveMs, solveN        float64
	bytes, instrs, deps    float64
}

func (p *planeProbe) addEngine(m engine.Metrics) {
	p.hits += float64(m.CacheHits + m.StoreHits + m.BestHits)
	p.solves += float64(m.Solves)
	p.compiles += float64(m.Compiles)
}

// addProgram counts one Program and its encoded size.
func (p *planeProbe) addProgram(prog *schedule.Program, encoded int) {
	p.bytes += float64(encoded)
	p.instrs += float64(len(prog.Instrs))
	for _, in := range prog.Instrs {
		p.deps += float64(len(in.Deps))
	}
}

// layers turns the counters and the spans' self times into the engine,
// solver, schedule, sim and obs layer metrics.
func (p *planeProbe) layers(self map[string]float64, overheadPct float64) map[string]float64 {
	return map[string]float64{
		"engine.fetch_hit_ratio":    ratio(p.hits, p.hits+p.solves),
		"engine.solves_per_event":   ratio(p.solves, p.events),
		"engine.compiles_per_event": ratio(p.compiles, p.events),
		"engine.encode_ms":          self["encode"],
		"engine.decode_ms":          self["decode"],
		"engine.bytes_per_instr":    ratio(p.bytes, p.instrs),
		"solver.solve_ms":           ratio(p.solveMs, p.solveN),
		"schedule.compile_ms":       self["compile"],
		"schedule.validate_ms":      self["validate"],
		"schedule.deps_per_instr":   ratio(p.deps, p.instrs),
		"schedule.instrs":           ratio(p.instrs, p.ops),
		"sim.ns_per_instr":          ratio(self["des"]*1e6*p.ops, p.instrs),
		"obs.overhead_pct":          overheadPct,
	}
}
