package main

import (
	"fmt"
	"math/rand"
	"time"

	"recycle/internal/config"
	"recycle/internal/engine"
	"recycle/internal/experiments"
	"recycle/internal/failure"
	"recycle/internal/obs"
	"recycle/internal/replay"
	"recycle/internal/schedule"
	"recycle/internal/sim"
)

// The replay-trace workload replays replayTraces seeded per-machine
// Poisson traces of the Table 1 GPT-3 3.35B job, each on a fresh engine;
// every trace holds replayEvents membership changes within the horizon.
const (
	replayTraces  = 16
	replayEvents  = 6
	replayMTBF    = 8 * time.Hour
	replayMTTR    = 30 * time.Minute
	replayHorizon = time.Hour
)

// replayOutcome is what must repeat exactly for one trace.
type replayOutcome struct {
	iterations, events, spliced, lostOps, replanned, migrated int
	average                                                   float64
}

func outcomeOf(r *replay.Result) replayOutcome {
	o := replayOutcome{iterations: r.Iterations, events: len(r.Events), spliced: r.SplicedCount(),
		migrated: r.MigratedTriples, average: r.Average}
	for _, ev := range r.Events {
		o.lostOps += ev.LostOps
		o.replanned += ev.ReplannedOps
	}
	return o
}

type replaySetup struct {
	job       config.Job
	traces    []failure.Trace
	ffAverage float64
}

// setupReplay draws the traces and replays a failure-free trace once,
// which solves, compiles and executes the fault-free plan: the
// normalization base of modeled_norm_throughput.
func setupReplay(seed int64) (*replaySetup, error) {
	job := config.Table1Jobs()[1]
	rng := rand.New(rand.NewSource(seed))
	s := &replaySetup{job: job}
	for i := 0; i < replayTraces; i++ {
		s.traces = append(s.traces, poissonTrace(rng, job.Parallel.DP, job.Parallel.PP,
			job.MaxPlannedFailures(), replayEvents, replayMTBF, replayMTTR, replayHorizon))
	}
	eng, stats, err := experiments.ReplayEngine(job, nil)
	if err != nil {
		return nil, err
	}
	ropts := experiments.ReplayOptions(job, stats)
	ropts.Horizon = replayHorizon
	total := job.Parallel.Workers()
	ff := failure.Trace{Name: "fault-free", Total: total, Steps: []failure.Step{{At: 0, Available: total}}}
	res, err := replay.Replay(eng, ff, ropts)
	if err != nil {
		return nil, err
	}
	s.ffAverage = res.Average
	return s, nil
}

// key returns the figures set-up derives from the seed alone.
func (s *replaySetup) key() string {
	return fmt.Sprintf("traces=%v fault-free=%v", s.traces, s.ffAverage)
}

// The replay op is one cold replay of one trace on a fresh engine. It
// first fetches the Program of every membership state the trace enters,
// in trace order, as the replayer would at each event: each fetch of a
// state not seen before is a cold re-plan (solve and compile), timed as
// one recovery. The replay that follows then finds every Program cached,
// and its own time is DES chaining and splicing.
func runReplay(o opts) (*report, error) {
	rep := &report{}
	s, setupS, err := medianSetup(rep, func() (*replaySetup, error) { return setupReplay(o.seed) }, (*replaySetup).key)
	if err != nil {
		return nil, err
	}
	var sp *spans
	if o.trace {
		sp = newSpans()
	}
	pp := s.job.Parallel.PP
	probe := &planeProbe{}
	first := make([]*replayOutcome, len(s.traces))
	var opMs, recoveryMs samples
	var events, iterations int

	op := func(i int, m mode) (time.Duration, error) {
		tr := s.traces[i]
		var osp *spans // the probed ops' spans; nil otherwise
		if m == probed {
			osp = sp
			osp.beginOp()
		}
		opID := osp.begin("op")
		t0 := time.Now()
		eng, stats, err := experiments.ReplayEngine(s.job, nil)
		if err != nil {
			return 0, err
		}
		ropts := experiments.ReplayOptions(s.job, stats)
		ropts.Horizon = replayHorizon
		if m != bare {
			rec := obs.NewTrace()
			ropts.Recorder = rec
			eng.SetRecorder(rec)
		}
		for k, ws := range failedSets(tr, replayHorizon, pp) {
			failed := make(map[schedule.Worker]bool, len(ws))
			for _, w := range ws {
				failed[w] = true
			}
			id := osp.begin("fetch")
			t := time.Now()
			_, err := eng.ProgramFor(failed)
			d := time.Since(t)
			osp.end(id)
			if err != nil {
				return 0, fmt.Errorf("program for %v: %w", ws, err)
			}
			if k > 0 && m == bare {
				recoveryMs.add(d)
			}
		}
		id := osp.begin("replay")
		res, err := replay.Replay(eng, tr, ropts)
		osp.end(id)
		d := time.Since(t0)
		osp.end(opID)
		if err != nil {
			return 0, fmt.Errorf("replay of trace %d: %w", i, err)
		}
		out := outcomeOf(res)
		if first[i] == nil {
			first[i] = &out
		} else if *first[i] != out {
			return 0, fmt.Errorf("trace %d replayed to %+v, earlier %+v", i, out, *first[i])
		}
		switch m {
		case bare:
			events += out.events
			iterations += out.iterations
			opMs.add(d)
		case probed:
			probeReplay(probe, osp, eng, tr, res, pp)
		}
		return d, nil
	}
	st := runOps(o, rep, len(s.traces), true, op)

	var tot replayOutcome
	var avg float64
	for i, f := range first {
		if f == nil {
			rep.fail("trace %d never replayed", i)
			continue
		}
		tot.events += f.events
		tot.spliced += f.spliced
		tot.lostOps += f.lostOps
		tot.replanned += f.replanned
		tot.iterations += f.iterations
		avg += f.average / float64(len(first))
	}
	norm := avg / s.ffAverage

	tailPct, tail := opMs.tail()
	rep.e2e = []metric{
		{"work_per_s", "", float64(events) / st.busy.Seconds(), fmt.Sprintf("events/s: %d membership events in %.2fs of ops", events, st.busy.Seconds())},
		{"op_ms_p50", "", opMs.median(), fmt.Sprintf("one cold trace replay, p50, n=%d", len(opMs))},
		{"recovery_ms_p50", "", recoveryMs.median(), fmt.Sprintf("cold re-plan of a membership state an event enters, p50, n=%d", len(recoveryMs))},
		{"modeled_norm_throughput", "", norm, fmt.Sprintf("mean Result.Average / fault-free, %d traces", len(first))},
		setupS,
		{"heap_peak_mb", "", st.heapMB.median(), fmt.Sprintf("per-op peak in-use heap, p50, n=%d", len(st.heapMB))},
	}
	rep.detail = []metric{
		{"replay_iters_per_s", "iters/s", float64(iterations) / st.busy.Seconds(), fmt.Sprintf("%d replayed iterations in %.2fs of ops", iterations, st.busy.Seconds())},
		{"modeled_samples_per_s", "samples/s", avg, fmt.Sprintf("mean Result.Average over %d traces, deterministic per seed", len(first))},
		{"fault_free_samples_per_s", "samples/s", s.ffAverage, "modeled, the normalization base"},
		{"trace_events", "count", float64(tot.events), fmt.Sprintf("%d spliced mid-iteration, %d lost ops, %d re-planned ops, %d iterations", tot.spliced, tot.lostOps, tot.replanned, tot.iterations)},
		{"op_ms_tail", "ms", tail, fmt.Sprintf("p%g, n=%d (no percentile has ten samples beyond it below n=100)", tailPct, len(opMs))},
		{"heap_max_mb", "MB", st.heapMB.quantile(1), "largest op peak"},
	}
	if o.trace {
		rep.sp = sp
		self, _ := sp.selfMs()
		rep.layer = probe.layers(self, st.overheadPct)
		rep.layer["replay.ms_per_event"] = ratio(self["replay"]*probe.ops, probe.events)
		rep.layer["replay.events"] = float64(tot.events)
		rep.layer["replay.spliced"] = float64(tot.spliced)
		rep.layer["replay.replanned_ops_per_event"] = ratio(float64(tot.replanned), float64(tot.events))
		rep.layer["replay.lost_ops"] = float64(tot.lostOps)
	}
	return rep, nil
}

// probeReplay measures the layers of one probed replay outside its wall
// time: the engine's counters, the solve time of every plan the trace
// needed, and timed codec, compile, validate and DES calls on the
// fault-free Program.
func probeReplay(probe *planeProbe, sp *spans, eng *engine.Engine, tr failure.Trace, res *replay.Result, pp int) {
	probe.ops++
	probe.events += float64(len(res.Events))
	probe.addEngine(eng.Metrics())
	for _, ws := range failedSets(tr, res.Horizon, pp) {
		if d, err := planTime(eng, ws); err == nil {
			probe.solveMs += ms(d)
			probe.solveN++
		}
	}
	ffPlan, err := eng.Plan(0)
	if err != nil {
		return
	}
	var prog *schedule.Program
	sp.do("compile", func() { prog, err = schedule.Compile(ffPlan.Schedule) })
	if err != nil {
		return
	}
	var b []byte
	sp.do("encode", func() { b, err = engine.EncodeProgram(prog) })
	if err != nil {
		return
	}
	// The replay already validated and executed this Program; these calls
	// only time the layers.
	sp.do("validate", func() { _ = prog.Validate() })
	sp.do("decode", func() { _, _ = engine.DecodeProgram(b) })
	sp.do("des", func() { _, _ = sim.ExecuteProgram(prog, sim.ProgramOptions{}) })
	probe.addProgram(prog, len(b))
}

// planTime returns the solve time of the plan the engine holds for a
// failed set (the fault-free plan for the empty set).
func planTime(eng *engine.Engine, ws []schedule.Worker) (time.Duration, error) {
	if len(ws) == 0 {
		p, err := eng.Plan(0)
		if err != nil {
			return 0, err
		}
		return p.PlanTime, nil
	}
	p, err := eng.PlanConcrete(ws)
	if err != nil {
		return 0, err
	}
	return p.PlanTime, nil
}

// failedSets lists the distinct failed-worker sets a trace passes through
// within the horizon.
func failedSets(tr failure.Trace, horizon time.Duration, pp int) [][]schedule.Worker {
	down := map[int]bool{}
	seen := map[string]bool{}
	var out [][]schedule.Worker
	for _, st := range tr.Steps {
		if st.At >= horizon {
			break
		}
		for _, id := range st.Failed {
			down[id] = true
		}
		for _, id := range st.Rejoined {
			delete(down, id)
		}
		var ws []schedule.Worker
		for id := range down {
			ws = append(ws, replay.MachineWorker(id, pp))
		}
		engine.SortWorkers(ws)
		key := fmt.Sprint(ws)
		if !seen[key] {
			seen[key] = true
			out = append(out, ws)
		}
	}
	return out
}
