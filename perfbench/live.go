package main

import (
	"bytes"
	"fmt"
	"math/rand"
	"runtime"
	"syscall"
	"time"

	"recycle/internal/dtrain"
	"recycle/internal/engine"
	"recycle/internal/obs"
	"recycle/internal/schedule"
	"recycle/internal/sim"
)

// liveShape is one live-training workload: the job the runtime trains.
type liveShape struct {
	name string
	cfg  dtrain.Config
}

// liveInterp is the ROADMAP's wide shape with tiny tensors: the
// interpreter's own CPU cost dominates.
var liveInterp = liveShape{"live-interp", dtrain.Config{
	DP: 8, PP: 4, MB: 16, InDim: 16, Hidden: 16, OutDim: 8, MicroBatchSize: 4, LR: 1e-3,
}}

// livePaced is the 3x4x6 running example with 4 ms emulated kernels (the
// Table 2 method): the compiled schedule's critical path sets wall time.
// Kernels this long keep the host's wake-up latency, which grows by
// tenths of a millisecond per hand-off when the machine is busy, a small
// share of each iteration.
var livePaced = liveShape{"live-paced", dtrain.Config{
	DP: 3, PP: 4, MB: 6, InDim: 16, Hidden: 16, OutDim: 8, MicroBatchSize: 4, LR: 1e-3,
	Delays: schedule.Durations{F: 4000, BInput: 4000, BWeight: 4000, Opt: 4000},
}}

// A cycle runs ffPerCycle fault-free iterations, one iteration a kill
// lands in, adaptedPerCycle iterations with the victim failed, and the
// victim's rejoin at the next boundary.
const (
	ffPerCycle      = 4
	adaptedPerCycle = 4
	itersPerCycle   = ffPerCycle + 1 + adaptedPerCycle
)

// cycleInput is one seeded failure: who dies and at which logical slot of
// the fault-free iteration.
type cycleInput struct {
	victim schedule.Worker
	cut    int64
}

// liveSetup is everything prepared before the timed window.
type liveSetup struct {
	rt       *dtrain.Runtime
	cycles   []cycleInput
	ff       *schedule.Program
	modeled  map[string]int64 // DES makespan per program ("" = fault-free)
	losses   []float64
	normThru float64
}

// setupLive builds the runtime, fills its plan caches for every failure
// set the run will use, checks those Programs, models them on the DES and
// runs the first, untimed iteration.
func setupLive(sh liveShape, seed int64) (*liveSetup, error) {
	cfg := sh.cfg
	cfg.Seed = seed
	rng := rand.New(rand.NewSource(seed))
	rt := dtrain.New(cfg)
	if err := rt.PrePlan(1); err != nil {
		return nil, err
	}
	ff, err := rt.Program()
	if err != nil {
		return nil, err
	}
	s := &liveSetup{rt: rt, ff: ff, modeled: map[string]int64{}}
	var durs *schedule.Durations
	if cfg.Delays != (schedule.Durations{}) {
		durs = &cfg.Delays
	}
	model := func(key string, p *schedule.Program) error {
		if err := p.Validate(); err != nil {
			return err
		}
		ex, err := sim.ExecuteProgram(p, sim.ProgramOptions{Durations: durs})
		if err != nil {
			return err
		}
		if ex.Completed != len(p.Instrs) {
			return fmt.Errorf("DES completed %d of %d instructions", ex.Completed, len(p.Instrs))
		}
		s.modeled[key] = ex.Makespan
		return nil
	}
	if err := model("", ff); err != nil {
		return nil, err
	}
	var norm float64
	for _, v := range drawVictims(rng, 2*cfg.PP, cfg.DP, cfg.PP) {
		cut, err := killCut(rng, ff, v)
		if err != nil {
			return nil, err
		}
		s.cycles = append(s.cycles, cycleInput{v, cut})
		if _, ok := s.modeled[v.String()]; !ok {
			rt.Fail(v)
			p, err := rt.Program()
			if err == nil {
				err = model(v.String(), p)
			}
			if err == nil {
				err = rt.Rejoin(v)
			}
			if err != nil {
				return nil, fmt.Errorf("failure set {%s}: %w", v, err)
			}
		}
		norm += float64(s.modeled[""]) / float64(s.modeled[v.String()])
	}
	s.normThru = norm / float64(len(s.cycles))
	loss, err := rt.RunIteration()
	if err != nil {
		return nil, err
	}
	s.losses = append(s.losses, loss)
	return s, nil
}

// key returns the figures set-up derives from the seed alone.
func (s *liveSetup) key() string {
	return fmt.Sprintf("cycles=%v modeled=%v norm=%v loss0=%v", s.cycles, s.modeled, s.normThru, s.losses[0])
}

// liveProbe accumulates the probed cycles' per-iteration layer counters.
type liveProbe struct {
	iters, failovers           int
	instrs, cpuUs, opUs        float64
	wallS, mallocs, allocBytes float64
	opUsByType                 map[string]float64
	wallOverModeled            float64
	resends                    int64
	hits, solves, compiles     float64
	dataUs                     samples
	codecBytes, codecInstrs    float64
}

func cpuNow() time.Duration {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

func opMicros(rt *dtrain.Runtime) map[string]float64 {
	out := map[string]float64{}
	for k, v := range rt.MetricsSnapshot().Groups["runtime"] {
		if len(k) > 8 && k[:8] == "OpMicros" {
			out[k[8:]] = float64(v)
		}
	}
	return out
}

// The live op is one cycle over one seeded (victim, kill instant) input.
func runLive(sh liveShape, o opts) (*report, error) {
	rep := &report{}
	s, setupS, err := medianSetup(rep, func() (*liveSetup, error) { return setupLive(sh, o.seed) }, (*liveSetup).key)
	if err != nil {
		return nil, err
	}
	rt, cfg := s.rt, sh.cfg
	var sp *spans
	if o.trace {
		sp = newSpans()
	}
	probe := &liveProbe{opUsByType: map[string]float64{}}
	var ffMs, adaptedMs, failoverMs, steadyMs samples
	var events []string

	run := func(loss float64, err error) error {
		if err == nil {
			s.losses = append(s.losses, loss)
		}
		return err
	}
	// iterate runs one plain iteration and returns its wall time; probed,
	// it brackets the call with the layer probes.
	iterate := func(m mode, key string) (time.Duration, error) {
		if m != probed {
			t := time.Now()
			loss, err := rt.RunIteration()
			d := time.Since(t)
			return d, run(loss, err)
		}
		id := sp.begin("fetch")
		prog, err := rt.Program()
		sp.end(id)
		if err != nil {
			return 0, fmt.Errorf("fetch: %w", err)
		}
		var m0, m1 runtime.MemStats
		op0 := opMicros(rt)
		runtime.ReadMemStats(&m0)
		c0 := cpuNow()
		id = sp.begin("iteration")
		t := time.Now()
		loss, err := rt.RunIteration()
		d := time.Since(t)
		sp.end(id)
		c1 := cpuNow()
		runtime.ReadMemStats(&m1)
		op1 := opMicros(rt)
		probe.iters++
		probe.instrs += float64(len(prog.Instrs))
		probe.cpuUs += float64((c1 - c0).Microseconds())
		probe.wallS += d.Seconds()
		probe.mallocs += float64(m1.Mallocs - m0.Mallocs)
		probe.allocBytes += float64(m1.TotalAlloc - m0.TotalAlloc)
		for k, v := range op1 {
			probe.opUsByType[k] += v - op0[k]
			probe.opUs += v - op0[k]
		}
		if cfg.Delays != (schedule.Durations{}) {
			probe.wallOverModeled += d.Seconds() / (float64(s.modeled[key]) * 1e-6)
		}
		return d, run(loss, err)
	}
	cycle := func(i int, m mode) (time.Duration, error) {
		c := s.cycles[i]
		var tr *obs.Trace
		if m != bare {
			tr = obs.NewTrace()
			rt.AttachRecorder(tr)
			defer rt.AttachRecorder(nil)
		}
		var csp *spans // the probed cycles' spans; nil otherwise
		var m0 engine.Metrics
		if m == probed {
			csp = sp
			csp.beginOp()
			m0 = rt.PlanMetrics()
		}
		cycleID := csp.begin("cycle")
		t0 := time.Now()
		for k := 0; k < ffPerCycle; k++ {
			d, err := iterate(m, "")
			if err != nil {
				return 0, fmt.Errorf("fault-free iteration %d: %w", rt.Iteration(), err)
			}
			if m == bare {
				ffMs.add(d)
				steadyMs.add(d)
			}
		}
		var resend0 int64
		if m == probed {
			resend0 = tr.Counters()["events.resend"]
		}
		id := csp.begin("failover")
		t := time.Now()
		loss, err := rt.RunIterationFailure([]schedule.Worker{c.victim}, c.cut)
		d := time.Since(t)
		csp.end(id)
		if err := run(loss, err); err != nil {
			return 0, fmt.Errorf("failover of %s at slot %d: %w", c.victim, c.cut, err)
		}
		events = append(events, rt.LastSpliceEvent())
		switch m {
		case bare:
			failoverMs.add(d)
		case probed:
			probe.failovers++
			probe.resends += tr.Counters()["events.resend"] - resend0
		}
		for k := 0; k < adaptedPerCycle; k++ {
			d, err := iterate(m, c.victim.String())
			if err != nil {
				return 0, fmt.Errorf("adapted iteration %d without %s: %w", rt.Iteration(), c.victim, err)
			}
			if m == bare {
				adaptedMs.add(d)
				steadyMs.add(d)
			}
		}
		id = csp.begin("rejoin")
		err = rt.Rejoin(c.victim)
		csp.end(id)
		if err != nil {
			return 0, fmt.Errorf("rejoin of %s: %w", c.victim, err)
		}
		wall := time.Since(t0)
		csp.end(cycleID)
		if m == probed {
			m1 := rt.PlanMetrics()
			probe.hits += float64((m1.CacheHits + m1.StoreHits + m1.BestHits) - (m0.CacheHits + m0.StoreHits + m0.BestHits))
			probe.solves += float64(m1.Solves - m0.Solves)
			probe.compiles += float64(m1.Compiles - m0.Compiles)
			probeLiveLayers(probe, csp, rt, s.ff)
		}
		return wall, nil
	}
	st := runOps(o, rep, len(s.cycles), false, cycle)

	// Output checks after the window: every spliced Program a failover
	// published must decode, validate and round-trip byte for byte, and
	// every loss must equal the fault-free reference's bit for bit.
	job, stats := engine.ShapeJob(cfg.DP, cfg.PP, cfg.MB)
	client := engine.NewClient(rt.PlanStore(), job, stats, engine.Options{UnrollIterations: 1})
	for _, ev := range events {
		rep.attempted++
		if err := checkSpliced(client, ev, sp, probe); err != nil {
			rep.fail("spliced program %s: %v", ev, err)
		}
	}
	refCfg := rt.Cfg
	refCfg.Delays = schedule.Durations{} // kernel delays change timing, never math
	ref := dtrain.New(refCfg)
	for i, want := range s.losses {
		got, err := ref.RunIteration()
		if err != nil {
			return nil, fmt.Errorf("reference iteration %d: %w", i, err)
		}
		rep.attempted++
		if got != want {
			rep.fail("iteration %d loss %v, fault-free reference %v", i, want, got)
		}
	}

	iterations := st.n * itersPerCycle
	samplesPerS := float64(iterations*cfg.DP*cfg.MB*cfg.MicroBatchSize) / st.busy.Seconds()
	tailPct, tail := steadyMs.tail()
	rep.e2e = []metric{
		{"work_per_s", "", samplesPerS, fmt.Sprintf("samples/s: %d iterations (failover included) in %.2fs of cycles", iterations, st.busy.Seconds())},
		{"op_ms_p50", "", ffMs.median(), fmt.Sprintf("fault-free iteration p50, n=%d", len(ffMs))},
		{"recovery_ms_p50", "", failoverMs.median(), fmt.Sprintf("failover iteration p50, n=%d", len(failoverMs))},
		{"modeled_norm_throughput", "", s.normThru, fmt.Sprintf("DES fault-free/adapted makespan, mean of %d victims", len(s.cycles))},
		setupS,
		{"heap_peak_mb", "", st.heapMB.median(), fmt.Sprintf("per-cycle peak in-use heap, p50, n=%d", len(st.heapMB))},
	}
	rep.detail = []metric{
		{"samples_per_s", "samples/s", samplesPerS, fmt.Sprintf("%d iterations (failover included) in %.2fs of cycles", iterations, st.busy.Seconds())},
		{"ff_iter_ms_p50", "ms", ffMs.median(), fmt.Sprintf("n=%d", len(ffMs))},
		{"adapted_iter_ms_p50", "ms", adaptedMs.median(), fmt.Sprintf("n=%d", len(adaptedMs))},
		{"iter_ms_tail", "ms", tail, fmt.Sprintf("p%g of non-failover iterations, n=%d", tailPct, len(steadyMs))},
		{"failover_ms_p50", "ms", failoverMs.median(), fmt.Sprintf("n=%d", len(failoverMs))},
		{"heap_max_mb", "MB", st.heapMB.quantile(1), "largest cycle peak"},
	}
	if cfg.Delays != (schedule.Durations{}) {
		rep.detail = append(rep.detail, metric{"modeled_ff_iter_ms", "ms", float64(s.modeled[""]) / 1000, "DES makespan under the same kernel delays"})
	}
	if o.trace {
		rep.sp = sp
		rep.layer = liveLayers(probe, sp, s, cfg, failoverMs.median()-adaptedMs.median(), st.overheadPct)
	}
	return rep, nil
}

// probeLiveLayers times, outside the cycle's wall time, the layers a cycle
// uses without exposing them: data generation over one iteration's keys,
// and Validate and the DES on the fault-free Program (checked in set-up).
func probeLiveLayers(probe *liveProbe, sp *spans, rt *dtrain.Runtime, ff *schedule.Program) {
	it := rt.Iteration()
	cfg := rt.Cfg
	id := sp.begin("data")
	t := time.Now()
	for k := 0; k < cfg.DP; k++ {
		for mb := 0; mb < cfg.MB; mb++ {
			rt.Dataset.Input(it, k, mb)
			rt.Dataset.Target(it, k, mb)
		}
	}
	probe.dataUs = append(probe.dataUs, float64(time.Since(t).Microseconds())/float64(cfg.DP*cfg.MB))
	sp.end(id)
	sp.do("validate", func() { _ = ff.Validate() })
	sp.do("des", func() { _, _ = sim.ExecuteProgram(ff, sim.ProgramOptions{}) })
}

// checkSpliced fetches a published spliced Program as a remote executor
// would, validates it and checks that encode-then-decode is a byte fixed
// point.
func checkSpliced(client *engine.Client, ev string, sp *spans, probe *liveProbe) error {
	var p *schedule.Program
	var err error
	sp.do("decode", func() { p, err = client.SplicedProgram(ev) })
	if err != nil {
		return err
	}
	if err := p.Validate(); err != nil {
		return err
	}
	var b []byte
	sp.do("encode", func() { b, err = engine.EncodeProgram(p) })
	if err != nil {
		return err
	}
	probe.codecBytes += float64(len(b))
	probe.codecInstrs += float64(len(p.Instrs))
	q, err := engine.DecodeProgram(b)
	if err != nil {
		return err
	}
	return reencodes(b, q)
}

// reencodes checks that a Program decoded from b encodes back to b:
// encode∘decode is a byte fixed point.
func reencodes(b []byte, decoded *schedule.Program) error {
	b2, err := engine.EncodeProgram(decoded)
	if err != nil {
		return err
	}
	if !bytes.Equal(b, b2) {
		return fmt.Errorf("encode∘decode is not a byte fixed point (%d vs %d bytes)", len(b), len(b2))
	}
	return nil
}

// liveLayers turns the traced cycles' counters into per-layer metrics.
// failoverExtraMs is the bare cycles' failover p50 minus their adapted p50.
func liveLayers(probe *liveProbe, sp *spans, s *liveSetup, cfg dtrain.Config, failoverExtraMs, overheadPct float64) map[string]float64 {
	self, _ := sp.selfMs()
	it := float64(probe.iters)
	cpuMsPerIter := ratio(probe.cpuUs/1000, it)
	deps := 0
	for _, in := range s.ff.Instrs {
		deps += len(in.Deps)
	}
	n := float64(len(s.ff.Instrs))
	events := float64(probe.failovers)
	return map[string]float64{
		"dtrain.cpu_ms_per_iter":         cpuMsPerIter,
		"dtrain.instr_per_s":             ratio(probe.instrs, probe.wallS),
		"dtrain.noncompute_us_per_instr": ratio(probe.cpuUs-probe.opUs, probe.instrs),
		"dtrain.allocs_per_instr":        ratio(probe.mallocs, probe.instrs),
		"dtrain.alloc_kb_per_iter":       ratio(probe.allocBytes/1024, it),
		"dtrain.wall_over_modeled":       ratio(probe.wallOverModeled, it),
		"dtrain.failover_extra_ms":       failoverExtraMs,
		"dtrain.rejoin_ms":               self["rejoin"],
		"dtrain.resends_per_failover":    ratio(float64(probe.resends), events),
		"dtrain.fetch_us":                self["fetch"] * 1000,
		"dtrain.data_us_per_mb":          probe.dataUs.median(),
		"dtrain.data_cpu_share":          ratio(probe.dataUs.median()*float64(cfg.DP*cfg.MB)/1000, cpuMsPerIter),
		"nn.fwd_ms_per_iter":             ratio(probe.opUsByType["F"]/1000, it),
		"nn.bwd_input_ms_per_iter":       ratio((probe.opUsByType["BI"]+probe.opUsByType["B"])/1000, it),
		"nn.bwd_weight_ms_per_iter":      ratio(probe.opUsByType["BW"]/1000, it),
		"nn.step_ms_per_iter":            ratio(probe.opUsByType["OPT"]/1000, it),
		"engine.fetch_hit_ratio":         ratio(probe.hits, probe.hits+probe.solves),
		"engine.solves_per_event":        ratio(probe.solves, events),
		"engine.compiles_per_event":      ratio(probe.compiles, events),
		"engine.encode_ms":               self["encode"],
		"engine.decode_ms":               self["decode"],
		"engine.bytes_per_instr":         ratio(probe.codecBytes, probe.codecInstrs),
		"schedule.validate_ms":           self["validate"],
		"schedule.deps_per_instr":        ratio(float64(deps), n),
		"schedule.instrs":                n,
		"sim.ns_per_instr":               ratio(self["des"]*1e6, n),
		"obs.overhead_pct":               overheadPct,
	}
}
