package dtrain

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"

	"recycle/internal/engine"
	"recycle/internal/nn"
	"recycle/internal/obs"
	"recycle/internal/planstore"
	"recycle/internal/profile"
	"recycle/internal/replay"
	"recycle/internal/schedule"
	"recycle/internal/tensor"
)

// Config sizes the live training job.
type Config struct {
	DP, PP                                int
	MB                                    int // micro-batches per pipeline per iteration
	InDim, Hidden, OutDim, MicroBatchSize int
	Seed                                  int64
	LR                                    float64
	// UseSGD selects plain SGD instead of AdamW.
	UseSGD bool
	// Delays, when non-zero, adds a fixed busy-delay per op type (values
	// in microseconds). This emulates profiled GPU kernel latencies so the
	// runtime's wall-clock timeline can be compared against the
	// simulator's prediction (Table 2) independent of host CPU contention.
	Delays schedule.Durations
	// CostModel seeds the plan service with per-(stage, op, worker)
	// durations (nil plans with homogeneous unit costs). The dep board
	// then propagates the stamped heterogeneous durations, so the logical
	// timeline matches the simulator's under the same cost model.
	CostModel *profile.CostModel
	// Store injects a shared replicated plan store (nil keeps a private
	// one). Pointing several runtimes — or a runtime and a fetch-only
	// engine.Client — at one store is how executors consume plan and
	// Program artifacts another coordinator solved and compiled.
	Store *planstore.Store
}

// errAborted marks an executor unwound by a peer's abort: its messages
// will never arrive, the iteration is being rolled back, and the worker
// itself has nothing to report.
var errAborted = errors.New("dtrain: iteration aborted by a peer")

// delay sleeps for the configured per-op kernel latency.
func (rt *Runtime) delay(t schedule.OpType) {
	if d := rt.Cfg.Delays.Of(t); d > 0 {
		time.Sleep(time.Duration(d) * time.Microsecond)
	}
}

// Runtime owns the model replicas and executes training iterations by
// interpreting compiled Programs. It is the in-process counterpart of the
// paper's Coordinator + Executors (§4.1): the coordinator logic (failure
// handling, plan selection, validation/rollback) lives on the Runtime; each
// live worker interprets its Program instruction stream on its own
// goroutine. The Runtime never derives op order itself — ordering and
// dependencies come exclusively from schedule.Compile.
type Runtime struct {
	Cfg     Config
	Dataset *Dataset

	// eng is the plan service (Fig 8): the coordinator fetches compiled
	// Programs for the current failure set from it — replicated store
	// first, Best(n) fallback, on-demand solve on miss — instead of
	// invoking the solver directly.
	eng *engine.Engine
	// progSrc, when set, replaces the in-process engine as the source of
	// compiled Programs: the executor-side fetch path, where the artifact
	// comes out of the shared replicated store (engine.Client) instead of
	// a local solver.
	progSrc ProgramSource

	stages map[schedule.Worker]*nn.Stage
	opts   map[schedule.Worker]nn.Optimizer
	failed map[schedule.Worker]bool
	iter   int

	// epochBase is each stage's step-epoch stamp captured at iteration
	// start. The optimizer apply path derives its target epoch from it
	// (base + op.Iter + 1), so a re-delivered step instruction whose
	// epoch already advanced is detected as an idempotent no-op. Written
	// only between iterations (and on mid-iteration rejoin, between
	// phases); executor goroutines read it without locking.
	epochBase map[schedule.Worker]int

	mu        sync.Mutex
	losses    map[nn.MBKey]float64
	stepped   map[schedule.Worker]int // optimizer steps applied this iteration
	opSeconds map[schedule.OpType]time.Duration
	opCounts  map[schedule.OpType]int
	// Per-worker timing — the Profiler view straggler detection needs.
	wOpSeconds map[schedule.Worker]time.Duration
	wOpCounts  map[schedule.Worker]int
	detector   *Detector

	// Executed timeline of the last iteration: the interpreted Program and
	// each instruction's logical slot-time span, as propagated along the
	// Program's dependency edges during real execution.
	lastProg   *schedule.Program
	lastStarts []int64
	lastEnds   []int64
	// lastSpliceEvent is the event ID of the most recent mid-iteration
	// splice, the key its Program was published under in the plan store;
	// lastSpliceEvents lists every splice of the last cascade iteration in
	// cut order (a single kill yields one entry).
	lastSpliceEvent  string
	lastSpliceEvents []string

	// rec receives one span per interpreted instruction plus the
	// iteration/kill/splice lifecycle stream (obs.Nop by default). Installed
	// via AttachRecorder before training starts; executor goroutines read it
	// without locking.
	rec obs.Recorder
}

// New builds a healthy DP x PP runtime with identical stage replicas
// across data-parallel pipelines.
func New(cfg Config) *Runtime {
	job, stats := engine.ShapeJob(cfg.DP, cfg.PP, cfg.MB)
	rt := &Runtime{
		Cfg:        cfg,
		eng:        engine.New(job, stats, engine.Options{UnrollIterations: 1, CostModel: cfg.CostModel, Store: cfg.Store}),
		Dataset:    NewDataset(cfg.InDim, cfg.OutDim, cfg.MicroBatchSize, cfg.Seed),
		stages:     make(map[schedule.Worker]*nn.Stage),
		opts:       make(map[schedule.Worker]nn.Optimizer),
		failed:     make(map[schedule.Worker]bool),
		losses:     make(map[nn.MBKey]float64),
		opSeconds:  make(map[schedule.OpType]time.Duration),
		opCounts:   make(map[schedule.OpType]int),
		wOpSeconds: make(map[schedule.Worker]time.Duration),
		wOpCounts:  make(map[schedule.Worker]int),
		rec:        obs.Nop{},
	}
	for k := 0; k < cfg.DP; k++ {
		// Every pipeline gets an identical replica: same seed.
		sts := nn.MLPStages(cfg.PP, cfg.InDim, cfg.Hidden, cfg.OutDim, cfg.Seed+7)
		for i, st := range sts {
			w := schedule.Worker{Stage: i, Pipeline: k}
			rt.stages[w] = st
			rt.opts[w] = rt.newOptimizer()
		}
	}
	return rt
}

func (rt *Runtime) newOptimizer() nn.Optimizer {
	if rt.Cfg.UseSGD {
		return &nn.SGD{LR: rt.Cfg.LR}
	}
	return nn.NewAdamW(rt.Cfg.LR)
}

// Fail marks a worker failed before the next iteration (the coordinator's
// response to a detector event; training resumes from the iteration in
// which the failure was identified, §4.1).
func (rt *Runtime) Fail(w schedule.Worker) {
	rt.failed[w] = true
	if rt.rec.Enabled() {
		rt.rec.Event(obs.Event{Kind: obs.EvKill, At: -1, Iter: rt.iter, Wall: time.Now(),
			Worker: w, HasWorker: true, Detail: "boundary"})
	}
}

// Rejoin brings a repaired worker back: its parameters and optimizer state
// are copied point-to-point from a live data-parallel peer at an iteration
// boundary (§3.4).
func (rt *Runtime) Rejoin(w schedule.Worker) error {
	if !rt.failed[w] {
		return fmt.Errorf("dtrain: worker %s is not failed", w)
	}
	var donor schedule.Worker
	found := false
	for k := 0; k < rt.Cfg.DP; k++ {
		cand := schedule.Worker{Stage: w.Stage, Pipeline: k}
		if cand != w && !rt.failed[cand] {
			donor, found = cand, true
			break
		}
	}
	if !found {
		return fmt.Errorf("dtrain: no live peer to restore %s from", w)
	}
	src, dst := rt.stages[donor], rt.stages[w]
	srcP, dstP := src.Params(), dst.Params()
	for i := range srcP {
		copy(dstP[i].W.Data, srcP[i].W.Data)
		copy(dstP[i].Grad.Data, srcP[i].Grad.Data)
	}
	dst.Reset()
	// The copied parameters carry the donor's step-epoch stamp — restore
	// it (and the captured base, when re-joining mid-iteration) so the
	// rejoiner's own optimizer instructions compute the right target.
	dst.SetStepEpoch(src.StepEpoch())
	if rt.epochBase != nil {
		rt.epochBase[w] = src.StepEpoch()
	}
	rt.opts[w] = rt.newOptimizer()
	if a, ok := rt.opts[donor].(*nn.AdamW); ok {
		rt.opts[w].(*nn.AdamW).CopyStateFrom(a, srcP, dstP)
	}
	delete(rt.failed, w)
	if rt.rec.Enabled() {
		rt.rec.Event(obs.Event{Kind: obs.EvRejoin, At: -1, Iter: rt.iter, Wall: time.Now(),
			Worker: w, HasWorker: true, Detail: "restored from " + donor.String()})
	}
	return nil
}

// FailedCount returns the number of failed workers.
func (rt *Runtime) FailedCount() int { return len(rt.failed) }

// Iteration returns the number of completed iterations.
func (rt *Runtime) Iteration() int { return rt.iter }

// StageParams exposes a worker's parameters (read-only use in tests).
func (rt *Runtime) StageParams(w schedule.Worker) []*nn.Param {
	return rt.stages[w].Params()
}

// ProgramSource yields the compiled Program for a concrete failure set.
// engine.Engine (solve-and-compile) and engine.Client (fetch-only, remote
// executor) both satisfy it.
type ProgramSource interface {
	ProgramFor(failed map[schedule.Worker]bool) (*schedule.Program, error)
}

// SetProgramSource redirects Program fetches to an alternative source —
// typically an engine.Client over a shared store, turning this runtime
// into a pure executor that interprets artifacts a remote coordinator
// compiled. Passing nil restores the in-process engine.
func (rt *Runtime) SetProgramSource(src ProgramSource) { rt.progSrc = src }

// Program fetches the compiled Program for the current failure set from
// the plan service — the Coordinator flow of §4.1: a stored plan when one
// matches, an on-demand solve otherwise, each failure set solved and
// compiled at most once across the run. This is the exact artifact the
// discrete-event simulator executes in virtual time. With a
// ProgramSource installed, the artifact is fetched from it instead
// (executor-side decode of a remotely compiled Program).
func (rt *Runtime) Program() (*schedule.Program, error) {
	if rt.progSrc != nil {
		return rt.progSrc.ProgramFor(rt.failed)
	}
	return rt.eng.ProgramFor(rt.failed)
}

// PlanStore exposes the replicated store backing the plan service, so
// tests and executor wiring can hand it to other runtimes or clients.
func (rt *Runtime) PlanStore() *planstore.Store { return rt.eng.Store() }

// PrePlan precomputes normalized plans for 0..maxFailures concurrently and
// replicates them — the offline Planner phase of Fig 8, run to completion
// before training starts.
func (rt *Runtime) PrePlan(maxFailures int) error {
	return rt.eng.Warm(maxFailures).Wait()
}

// PlanMetrics reports the plan service's traffic counters: how many
// schedules were solved, served from cache, or fetched from the replicated
// store over the run so far.
func (rt *Runtime) PlanMetrics() engine.Metrics { return rt.eng.Metrics() }

// RunIteration executes one full training iteration — forward, backward,
// all-reduce, staggered optimizer step with post-step validation — by
// interpreting the compiled Program for the current failure set. It
// returns the mean micro-batch loss.
func (rt *Runtime) RunIteration() (float64, error) {
	prog, err := rt.Program()
	if err != nil {
		return 0, err
	}
	if rt.rec.Enabled() {
		rt.rec.BeginProgram(fmt.Sprintf("iter%d", rt.iter), prog)
		rt.rec.Event(obs.Event{Kind: obs.EvIterStart, At: 0, Iter: rt.iter, Wall: time.Now()})
	}
	r := newRouter()
	r.rec = rt.rec
	board := newDepBoard(prog)
	rt.captureEpochBase()
	rt.losses = make(map[nn.MBKey]float64)
	rt.stepped = make(map[schedule.Worker]int)

	var wg sync.WaitGroup
	valErrs := make(chan error, rt.Cfg.DP*rt.Cfg.PP)
	for _, w := range prog.Workers() {
		wg.Add(1)
		go func(w schedule.Worker) {
			defer wg.Done()
			if err := rt.exec(w, prog, board, r); err != nil {
				valErrs <- err
			}
		}(w)
	}
	wg.Wait()
	return rt.finish(prog, board, r, valErrs)
}

// finish seals one interpreted iteration: it records the executed
// timeline, collects executor errors, rolls back on failure (§5),
// acknowledges the iteration's stashed sends and retained activation
// stashes (the boundary GC of the re-send protocol), and reduces the
// iteration loss.
func (rt *Runtime) finish(prog *schedule.Program, board *depBoard, r *router, valErrs chan error) (float64, error) {
	rt.lastProg = prog
	rt.lastStarts, rt.lastEnds = board.snapshot()
	close(valErrs)
	var firstErr error
	for e := range valErrs {
		if firstErr == nil {
			firstErr = e
		}
	}
	if firstErr != nil {
		// Post-step validation failed somewhere: roll back exactly the
		// workers that stepped (§5) — aborted peers never applied theirs —
		// clear every live stage's in-flight state, and skip the iteration.
		for w, steps := range rt.stepped {
			for i := 0; i < steps; i++ {
				rt.opts[w].Rollback(rt.stages[w].Params())
			}
			rt.stages[w].RegressStepEpoch(steps)
		}
		for w, st := range rt.stages {
			if !rt.failed[w] {
				st.Reset()
			}
		}
		if rt.rec.Enabled() {
			rt.rec.Event(obs.Event{Kind: obs.EvRollback, At: maxEnd(rt.lastEnds), Iter: rt.iter,
				Wall: time.Now(), Detail: firstErr.Error()})
		}
		rt.iter++
		return 0, fmt.Errorf("dtrain: iteration %d rolled back: %w", rt.iter-1, firstErr)
	}
	// Iteration boundary: every optimizer step validated, so no failure
	// can re-request this iteration's tensors anymore. Acknowledge and GC
	// the router's stashed sends and free the activation stashes the
	// stages retained for mid-iteration re-execution.
	for it := 0; it < prog.Shape.Iter; it++ {
		r.ackIteration(it)
	}
	for _, st := range rt.stages {
		st.ReleaseStashes()
	}
	loss := rt.iterationLoss()
	if rt.rec.Enabled() {
		rt.rec.Event(obs.Event{Kind: obs.EvIterEnd, At: maxEnd(rt.lastEnds), Iter: rt.iter, Wall: time.Now()})
	}
	rt.iter++
	return loss, nil
}

// maxEnd returns the latest executed end time — an iteration's logical
// makespan.
func maxEnd(ends []int64) int64 {
	var out int64
	for _, e := range ends {
		if e > out {
			out = e
		}
	}
	return out
}

// RunIterationFailure executes one training iteration during which the
// given live workers are killed mid-iteration, at logical slot cutSlot —
// the chaos-ready half of the splice path. The victims run (and send)
// normally up to the cut; when the kill lands, the coordinator splices a
// new Program via replay.LiveSplice, surviving peers discard the effects
// of instructions whose provenance died, and the re-planned suffix
// re-executes them — re-requesting any tensor the victims' streams had
// already consumed from the router's send stash. The victims stay failed
// afterward (Rejoin brings them back at a later boundary or splice).
func (rt *Runtime) RunIterationFailure(victims []schedule.Worker, cutSlot int64) (float64, error) {
	return rt.RunIterationCascade([]CascadeEvent{{Cut: cutSlot, Fail: victims}})
}

// CascadeEvent is one membership event of a cascading mid-iteration
// failure sequence: workers in Fail die at Cut, workers in Rejoin are
// restored at it. Events are applied in order at strictly increasing cuts.
type CascadeEvent struct {
	Cut    int64
	Fail   []schedule.Worker
	Rejoin []schedule.Worker
}

// RunIterationCascade executes one training iteration through a chain of
// mid-iteration membership events — a second (or Nth) kill arriving while
// an earlier splice's suffix is still executing. Each event re-splices the
// in-flight spliced Program via replay.LiveSplice, carrying the frozen
// prefix forward, and republishes the new artifact; any error ships the
// flight recorder's forensic timeline when one is attached.
func (rt *Runtime) RunIterationCascade(events []CascadeEvent) (float64, error) {
	loss, err := rt.runCascadeIteration(events)
	if err != nil {
		// Ship the black box with the failure: when a flight recorder is
		// attached (dtrain.Chaos always attaches one), its retained records
		// are the forensic timeline of the crash.
		if fl := obs.FindFlight(rt.rec); fl != nil {
			err = fmt.Errorf("%w\n%s", err, fl.Dump())
		}
	}
	return loss, err
}

// runCascadeIteration executes one training iteration around an ordered
// chain of mid-iteration membership events. The iteration runs in
// len(events)+1 phases around one shared router: before each event, the
// executed prefix of the in-flight Program (exactly the instructions the
// DES predicts complete by that cut — agreement by construction makes
// that the runtime's own prefix), with every cross-worker payload stashed
// by the re-send protocol; then victims are marked failed, invalidated
// effects discarded, rejoining workers restored, and the next phase
// interprets the re-spliced Program, whose re-executed instructions
// replay any already-consumed tensors from the stash. Only the final
// phase's boundary acknowledges the iteration's stashes: a suffix an
// earlier splice planned can be re-lost by a later kill, so no stash is
// GC'd while a cascade is still in flight.
func (rt *Runtime) runCascadeIteration(events []CascadeEvent) (float64, error) {
	if len(events) == 0 {
		return 0, fmt.Errorf("dtrain: cascade needs at least one membership event")
	}
	// Validate the chain upfront against the evolving membership.
	failedSim := make(map[schedule.Worker]bool, len(rt.failed))
	for w := range rt.failed {
		failedSim[w] = true
	}
	var prevCut int64
	for _, ev := range events {
		if ev.Cut <= prevCut {
			return 0, fmt.Errorf("dtrain: cascade cuts must be strictly increasing, got %d after %d", ev.Cut, prevCut)
		}
		prevCut = ev.Cut
		for _, w := range ev.Rejoin {
			if !failedSim[w] {
				return 0, fmt.Errorf("dtrain: worker %s is not failed", w)
			}
			delete(failedSim, w)
		}
		for _, w := range ev.Fail {
			if failedSim[w] {
				return 0, fmt.Errorf("dtrain: worker %s is already failed", w)
			}
			failedSim[w] = true
		}
	}
	prog, err := rt.Program()
	if err != nil {
		return 0, err
	}
	var costs schedule.CostFunc
	if cm := rt.eng.CostModel(); cm != nil {
		costs = cm.Fn()
	}

	rt.captureEpochBase()
	rt.lastSpliceEvents = nil
	r := newRouter()
	r.rec = rt.rec
	rt.losses = make(map[nn.MBKey]float64)
	rt.stepped = make(map[schedule.Worker]int)
	preds := make(map[schedule.Worker]map[nn.MBKey]*tensor.Matrix)
	predsOf := func(wk schedule.Worker) map[nn.MBKey]*tensor.Matrix {
		if preds[wk] == nil {
			preds[wk] = make(map[nn.MBKey]*tensor.Matrix)
		}
		return preds[wk]
	}
	valErrs := make(chan error, rt.Cfg.DP*rt.Cfg.PP*(len(events)+1))
	var wg sync.WaitGroup

	// cur/done/floors track the in-flight artifact across splices: the
	// Program being interpreted, its already-executed stream prefixes (by
	// completion time) and the per-worker release floors of the last
	// re-plan.
	cur := prog
	var done map[int]int64
	var floors map[schedule.Worker]int64

	// runPhase interprets the not-yet-done part of every worker's stream
	// of cur, clipped by keep (nil keeps everything remaining), on a dep
	// board seeded with the done prefix so cross-phase edges resolve.
	runPhase := func(keep func(id int) bool) *depBoard {
		board := newDepBoard(cur)
		maxDone := make(map[schedule.Worker]int64, len(done))
		for id, end := range done {
			board.post(id, end-cur.DurOf(id), end)
			if w := cur.Instrs[id].Op.Worker(); end > maxDone[w] {
				maxDone[w] = end
			}
		}
		if rt.rec.Enabled() {
			// Frozen prefix spans make each post-splice segment tile the
			// full iteration makespan on its own (the CriticalPath
			// invariant). They are recorded once the whole prefix has
			// posted, so a frozen optimizer names its join's binding
			// contributor.
			for id, end := range done {
				ins := &cur.Instrs[id]
				s := obs.Span{Instr: id, Op: ins.Op, Deps: ins.Deps,
					Sched: end - cur.DurOf(id), Start: end - cur.DurOf(id), End: end,
					Modeled: cur.DurOf(id), Frozen: true}
				if by, at, ok := board.joinOf(ins); ok {
					s.Join, s.JoinBy, s.JoinAt = ins.Join, by, at
				}
				rt.rec.Span(s)
			}
		}
		for _, wk := range cur.Workers() {
			ids := cur.Streams[wk]
			for len(ids) > 0 {
				if _, isDone := done[ids[0]]; !isDone {
					break
				}
				ids = ids[1:]
			}
			if keep != nil {
				n := 0
				for n < len(ids) && keep(ids[n]) {
					n++
				}
				ids = ids[:n]
			}
			if len(ids) == 0 {
				continue
			}
			// The worker resumes at its release floor, or later when a
			// frozen prefix op of its own ran past the cut.
			clock := floors[wk]
			if maxDone[wk] > clock {
				clock = maxDone[wk]
			}
			wg.Add(1)
			go func(wk schedule.Worker, ids []int, clock int64, pd map[nn.MBKey]*tensor.Matrix) {
				defer wg.Done()
				if err := rt.execOps(wk, cur, board, r, ids, clock, pd); err != nil {
					valErrs <- err
				}
			}(wk, ids, clock, predsOf(wk))
		}
		wg.Wait()
		return board
	}

	for ei, ev := range events {
		lv, err := replay.LiveSplice(replay.LiveEvent{
			Prog: cur, Cut: ev.Cut, Fail: ev.Fail, Rejoin: ev.Rejoin,
			Costs: costs, Release: floors, Done: done,
		})
		if err != nil {
			return 0, err
		}
		if rt.rec.Enabled() {
			label := "pre-splice"
			if ei > 0 {
				label = fmt.Sprintf("mid-splice-%d", ei)
			}
			rt.rec.BeginProgram(fmt.Sprintf("iter%d/%s", rt.iter, label), cur)
			if ei == 0 {
				rt.rec.Event(obs.Event{Kind: obs.EvIterStart, At: 0, Iter: rt.iter, Wall: time.Now()})
			}
		}
		rt.publishSplice(ev.Cut, ev.Fail, ev.Rejoin, lv.Program)

		// Interpret the executed prefix of this event: victims execute
		// their prefixes too — they were alive until the cut, and the
		// sends they performed are exactly what the stash must hold when
		// the kill lands.
		board := runPhase(func(id int) bool { return lv.CutExec.End[id] >= 0 })
		if len(valErrs) > 0 {
			return rt.finish(cur, board, r, valErrs)
		}

		if rt.rec.Enabled() {
			// The membership event lands at the cut: kills and rejoins
			// first, then the splice record with the re-plan's structural
			// counters.
			now := time.Now()
			for _, w := range ev.Fail {
				rt.rec.Event(obs.Event{Kind: obs.EvKill, At: ev.Cut, Iter: rt.iter, Wall: now, Worker: w, HasWorker: true})
			}
			for _, w := range ev.Rejoin {
				rt.rec.Event(obs.Event{Kind: obs.EvRejoin, At: ev.Cut, Iter: rt.iter, Wall: now, Worker: w, HasWorker: true})
			}
			rt.rec.Event(obs.Event{Kind: obs.EvSplice, At: ev.Cut, Iter: rt.iter, Wall: now,
				Detail: rt.lastSpliceEvent,
				Attrs: []obs.Attr{
					{Key: "replanned", Val: int64(lv.SuffixOps)},
					{Key: "rerouted", Val: int64(lv.ReroutedOps)},
					{Key: "migrated", Val: int64(lv.MigratedTriples)},
					{Key: "lost-slots", Val: lv.LostSlots},
				}})
		}
		// The event lands now. Victims die with their materialized state —
		// activation stashes and weight-gradient stores on their stage
		// objects are unreachable; only their router-stashed sends survive,
		// because the stash is coordinator-visible shared memory.
		for _, w := range ev.Fail {
			rt.Fail(w)
		}
		// Surviving peers discard the effects of completed instructions
		// whose provenance died (the LiveSplice lost cascade): the suffix
		// re-executes them, and the duplicate guards on
		// Forward/BackwardWeight would otherwise trip on the stale first
		// copy. Stepped stages are never in the cascade — their update is
		// durable and the step-epoch stamp keeps it idempotent.
		for _, id := range lv.Lost {
			op := cur.Instrs[id].Op
			w := op.Worker()
			if rt.failed[w] {
				continue // died with the worker; live peers re-derive it
			}
			key := nn.MBKey{Pipeline: op.Home, MB: op.MB}
			switch op.Type {
			case schedule.F:
				rt.stages[w].DiscardStash(key)
			case schedule.B, schedule.BWeight:
				rt.stages[w].DiscardGrad(key)
			}
		}
		// A re-joining worker's parameters and optimizer state are restored
		// from a live data-parallel peer now — at the splice instant, not
		// the iteration boundary (§3.4, pulled forward).
		for _, w := range ev.Rejoin {
			if err := rt.Rejoin(w); err != nil {
				return 0, err
			}
		}
		cur, done, floors = lv.Program, lv.Done, lv.Floors
	}

	// Final phase: the last splice's re-planned suffix runs to the
	// iteration boundary; finish is the only place the cascade's stashes
	// are acknowledged.
	if rt.rec.Enabled() {
		rt.rec.BeginProgram(fmt.Sprintf("iter%d/post-splice", rt.iter), cur)
	}
	board := runPhase(nil)
	return rt.finish(cur, board, r, valErrs)
}

// captureEpochBase snapshots every stage's step-epoch stamp at iteration
// start — the base the optimizer apply path derives its per-instruction
// target epochs from.
func (rt *Runtime) captureEpochBase() {
	rt.epochBase = make(map[schedule.Worker]int, len(rt.stages))
	for w, st := range rt.stages {
		rt.epochBase[w] = st.StepEpoch()
	}
}

// publishSplice records the splice event and replicates the freshly
// spliced Program through the plan service's store under a per-event key,
// so fetch-only executor clients can pull the exact artifact this
// coordinator is interpreting (engine.Client.SplicedProgram). Skipped when
// the runtime is itself a fetch-only executor; best-effort either way —
// the local iteration proceeds on the in-memory artifact.
func (rt *Runtime) publishSplice(cut int64, fail, rejoin []schedule.Worker, p *schedule.Program) {
	event := SpliceEventID(rt.iter, cut, fail, rejoin)
	rt.lastSpliceEvent = event
	rt.lastSpliceEvents = append(rt.lastSpliceEvents, event)
	if rt.progSrc != nil {
		return
	}
	_ = rt.eng.PublishSplicedProgram(event, p)
}

// SpliceEventID derives the canonical identifier a mid-iteration splice is
// published under: the iteration, the cut instant, and the sorted victim
// and rejoiner sets — every process sharing the store derives the same
// string from the same event.
func SpliceEventID(iter int, cut int64, fail, rejoin []schedule.Worker) string {
	render := func(ws []schedule.Worker) string {
		sorted := append([]schedule.Worker(nil), ws...)
		sort.Slice(sorted, func(i, j int) bool {
			if sorted[i].Stage != sorted[j].Stage {
				return sorted[i].Stage < sorted[j].Stage
			}
			return sorted[i].Pipeline < sorted[j].Pipeline
		})
		s := ""
		for i, w := range sorted {
			if i > 0 {
				s += ","
			}
			s += fmt.Sprintf("%d.%d", w.Stage, w.Pipeline)
		}
		return s
	}
	return fmt.Sprintf("iter%d/cut%d/fail%s/rejoin%s", iter, cut, render(fail), render(rejoin))
}

// LastSpliceEvent returns the event ID of the most recent mid-iteration
// splice this runtime performed ("" before the first) — the key its
// spliced Program was published under.
func (rt *Runtime) LastSpliceEvent() string { return rt.lastSpliceEvent }

// SpliceEvents returns the event IDs of every splice of the last cascade
// iteration, in cut order — one entry per CascadeEvent, each the key its
// re-spliced Program was published under.
func (rt *Runtime) SpliceEvents() []string {
	return append([]string(nil), rt.lastSpliceEvents...)
}

// StageStepEpoch returns a worker replica's step-epoch stamp — the number
// of optimizer steps its parameters carry (the live half of the
// live-vs-DES epoch agreement check).
func (rt *Runtime) StageStepEpoch(w schedule.Worker) int {
	return rt.stages[w].StepEpoch()
}

// iterationLoss reduces per-micro-batch losses in canonical order.
func (rt *Runtime) iterationLoss() float64 {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	keys := make([]nn.MBKey, 0, len(rt.losses))
	for k := range rt.losses {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(a, b int) bool { return keys[a].Less(keys[b]) })
	var sum float64
	for _, k := range keys {
		sum += rt.losses[k]
	}
	return sum / float64(len(keys))
}

// exec interprets one worker's full Program instruction stream.
func (rt *Runtime) exec(w schedule.Worker, prog *schedule.Program, board *depBoard, r *router) error {
	return rt.execOps(w, prog, board, r, prog.Streams[w], 0, make(map[nn.MBKey]*tensor.Matrix))
}

// execOps interprets a contiguous range of one worker's Program
// instruction stream, starting from the given logical clock. Instructions
// run in stream order; cross-worker ordering comes only from the Program's
// dependency edges, awaited on the board. Alongside the real computation,
// it advances a logical slot clock with the same recurrence the
// discrete-event simulator uses — start = max(worker clock, dependency
// ends + comm) — and posts each instruction's logical span back to the
// board, so the executed timeline is the simulator's prediction realized.
// preds carries the worker's last-stage predictions awaiting their loss;
// a splice resumption (RunIterationCascade) threads it across phases so a
// forward executed before the event meets its backward after it.
func (rt *Runtime) execOps(w schedule.Worker, prog *schedule.Program, board *depBoard, r *router, stream []int, clock int64, preds map[nn.MBKey]*tensor.Matrix) error {
	st := rt.stages[w]
	last := w.Stage == rt.Cfg.PP-1
	// opWall accumulates the measured compute time of the instruction in
	// flight (reset each loop turn) — a span's Actual, the divergence
	// signal against the modeled duration.
	var opWall time.Duration
	record := func(t schedule.OpType, d time.Duration) {
		opWall += d
		rt.mu.Lock()
		rt.opSeconds[t] += d
		rt.opCounts[t]++
		if t != schedule.Optimizer {
			rt.wOpSeconds[w] += d
			rt.wOpCounts[w]++
		}
		det := rt.detector
		rt.mu.Unlock()
		if det != nil {
			det.ObserveOp(w, t, d)
		}
	}
	// bail posts every instruction from stream position si onward as a
	// zero-length span — the abort path, keeping peers' dependency waits
	// from hanging while the iteration unwinds toward rollback.
	bail := func(si int) {
		for _, id := range stream[si:] {
			board.post(id, clock, clock)
		}
	}
	for si, id := range stream {
		ins := prog.Instrs[id]
		op := ins.Op
		key := nn.MBKey{Pipeline: op.Home, MB: op.MB}
		opWall = 0
		start := clock
		sched, joinBy, joinAt := board.wait(prog, &ins)
		if sched > start {
			start = sched
		}
		end := start + prog.DurOf(id)
		switch op.Type {
		case schedule.F:
			var x *tensor.Matrix
			if op.Stage == 0 {
				x = rt.Dataset.Input(rt.iter, op.Home, op.MB)
			} else {
				m, ok := r.recv(msgKey{kind: msgAct, stage: op.Stage, iter: op.Iter, mb: key})
				if !ok {
					bail(si)
					return nil
				}
				x = m.mat
			}
			t0 := time.Now() // time only the compute, not the blocking recv
			y := st.Forward(key, x)
			rt.delay(schedule.F)
			record(schedule.F, time.Since(t0))
			if last {
				preds[key] = y
			} else if !r.send(msgKey{kind: msgAct, stage: op.Stage + 1, iter: op.Iter, mb: key}, payload{mat: y}) {
				bail(si)
				return nil
			}
		case schedule.B, schedule.BInput:
			var dy *tensor.Matrix
			if last {
				loss, g := nn.MSELoss(preds[key], rt.Dataset.Target(rt.iter, op.Home, op.MB))
				rt.mu.Lock()
				rt.losses[key] = loss
				rt.mu.Unlock()
				dy = g
				delete(preds, key)
			} else {
				m, ok := r.recv(msgKey{kind: msgGrad, stage: op.Stage, iter: op.Iter, mb: key})
				if !ok {
					bail(si)
					return nil
				}
				dy = m.mat
			}
			t0 := time.Now()
			dx := st.BackwardInput(key, dy)
			rt.delay(schedule.BInput)
			record(schedule.BInput, time.Since(t0))
			if op.Stage > 0 && !r.send(msgKey{kind: msgGrad, stage: op.Stage - 1, iter: op.Iter, mb: key}, payload{mat: dx}) {
				bail(si)
				return nil
			}
			if op.Type == schedule.B {
				t1 := time.Now()
				st.BackwardWeight(key)
				rt.delay(schedule.BWeight)
				record(schedule.BWeight, time.Since(t1))
			}
		case schedule.BWeight:
			t0 := time.Now()
			st.BackwardWeight(key)
			rt.delay(schedule.BWeight)
			record(schedule.BWeight, time.Since(t0))
		case schedule.Optimizer:
			if err := rt.allReduceAndStep(w, st, op.Iter, r, record); err != nil {
				if err == errAborted {
					bail(si)
					return nil
				}
				// A real failure: release every blocked peer, then unwind.
				// RunIteration rolls back whoever managed to step.
				r.abort()
				bail(si)
				return err
			}
		}
		board.post(id, start, end)
		clock = end
		if rt.rec.Enabled() {
			rt.rec.Span(obs.Span{Instr: id, Op: op, Deps: ins.Deps,
				Join: ins.Join, JoinBy: joinBy, JoinAt: joinAt,
				Sched: sched, Start: start, End: end,
				Modeled: prog.DurOf(id), Actual: opWall})
		}
	}
	return nil
}

// allReduceAndStep implements the per-stage gradient all-reduce and
// staggered optimizer step: peers ship their WeightGradStore contents to
// the stage root, the root reduces contributions in canonical order and
// broadcasts the reduced gradients, and every peer then applies an
// identical optimizer step followed by local post-step validation.
func (rt *Runtime) allReduceAndStep(w schedule.Worker, st *nn.Stage, iter int, r *router, record func(schedule.OpType, time.Duration)) error {
	// The step-epoch guard: a re-delivered step instruction whose target
	// epoch the stage's parameters already carry is an idempotent no-op —
	// recorded, and skipping the whole rendezvous, since a stepped stage's
	// gradient stores were drained when the step first applied. Its only
	// wait was the one all-reduce join on the dep board. All DP peers of a
	// stepped stage share the advanced epoch, so the skip is consistent
	// across the rendezvous group.
	target := rt.epochBase[w] + iter + 1
	if st.StepEpoch() >= target {
		if rt.rec.Enabled() {
			rt.rec.Event(obs.Event{Kind: obs.EvStepNoop, At: -1, Iter: iter, Wall: time.Now(),
				Worker: w, HasWorker: true,
				Detail: fmt.Sprintf("epoch %d already covers target %d", st.StepEpoch(), target)})
		}
		return nil
	}
	var peers []int
	for k := 0; k < rt.Cfg.DP; k++ {
		if !rt.failed[schedule.Worker{Stage: w.Stage, Pipeline: k}] {
			peers = append(peers, k)
		}
	}
	root := peers[0]
	totalMBs := rt.Cfg.DP * rt.Cfg.MB
	if w.Pipeline == root {
		merged := st.DrainStore()
		for _, p := range peers[1:] {
			m, ok := r.recv(msgKey{kind: msgContrib, stage: w.Stage, iter: iter, peer: p})
			if !ok {
				return errAborted
			}
			for k, gs := range m.contribs {
				if _, dup := merged[k]; dup {
					return fmt.Errorf("dtrain: duplicate gradient contribution for %+v at stage %d", k, w.Stage)
				}
				merged[k] = gs
			}
		}
		if got, want := len(merged), totalMBs; got != want {
			return fmt.Errorf("dtrain: stage %d all-reduce saw %d contributions, want %d", w.Stage, got, want)
		}
		t0 := time.Now()
		st.ReduceContributions(merged, totalMBs)
		rt.delay(schedule.Optimizer)
		defer func() { record(schedule.Optimizer, time.Since(t0)) }()
		grads := make([]*tensor.Matrix, 0)
		for _, p := range st.Params() {
			grads = append(grads, p.Grad.Clone())
		}
		for _, p := range peers[1:] {
			if !r.send(msgKey{kind: msgReduced, stage: w.Stage, iter: iter, peer: p}, payload{grads: grads}) {
				return errAborted
			}
		}
	} else {
		if !r.send(msgKey{kind: msgContrib, stage: w.Stage, iter: iter, peer: w.Pipeline}, payload{contribs: st.DrainStore()}) {
			return errAborted
		}
		m, ok := r.recv(msgKey{kind: msgReduced, stage: w.Stage, iter: iter, peer: w.Pipeline})
		if !ok {
			return errAborted
		}
		params := st.Params()
		for i, g := range m.grads {
			copy(params[i].Grad.Data, g.Data)
		}
	}
	// Apply through the step-epoch stamp: the parameters advance to the
	// target epoch exactly once, making any later re-delivery a no-op.
	if st.StepOnce(rt.opts[w], target) {
		rt.mu.Lock()
		rt.stepped[w]++
		rt.mu.Unlock()
	}
	return nn.ValidateFinite(st.Params())
}

// ExecutedTimeline returns the Program the last iteration interpreted and
// each instruction's executed logical span (start, end in slot units),
// indexed by instruction ID. The spans were propagated along the Program's
// dependency edges during the real run, so comparing them against the
// discrete-event simulator's virtual execution of the same Program is the
// Table 2 agreement check, by construction.
func (rt *Runtime) ExecutedTimeline() (prog *schedule.Program, starts, ends []int64) {
	return rt.lastProg, rt.lastStarts, rt.lastEnds
}

// ExecutedComputeMakespan returns the last iteration's logical compute
// makespan: the latest executed end among F/B/BI/BW instructions.
func (rt *Runtime) ExecutedComputeMakespan() int64 {
	var out int64
	if rt.lastProg == nil {
		return 0
	}
	for i := range rt.lastProg.Instrs {
		if rt.lastProg.Instrs[i].Op.Type == schedule.Optimizer {
			continue
		}
		if e := rt.lastEnds[i]; e > out {
			out = e
		}
	}
	return out
}

// AttachDetector routes per-op timing observations into a failure/straggler
// detector — the heartbeat statistics stream of §5. Attach before the first
// RunIteration; the detector's OnStraggle callback is where the Coordinator
// triggers a straggler-aware re-plan (typically rt.MarkStraggler).
func (rt *Runtime) AttachDetector(d *Detector) {
	rt.mu.Lock()
	rt.detector = d
	rt.mu.Unlock()
	if d != nil {
		d.SetRecorder(rt.rec)
	}
}

// AttachRecorder installs the tracing recorder every layer of this runtime
// records into: the interpreter's per-instruction spans, the router's
// re-send events, the detector's straggler flags and the plan service's
// fetch/solve/warm lifecycle. Attach before the first RunIteration — the
// field is read without locking by executor goroutines. Passing nil
// restores the default no-op recorder.
func (rt *Runtime) AttachRecorder(r obs.Recorder) {
	if r == nil {
		r = obs.Nop{}
	}
	rt.rec = r
	rt.eng.SetRecorder(r)
	rt.mu.Lock()
	det := rt.detector
	rt.mu.Unlock()
	if det != nil {
		det.SetRecorder(r)
	}
}

// MetricsSnapshot folds the plan service's traffic counters, the runtime's
// measured op counters and — when a Trace is attached — the trace's span
// and event counters into one versioned registry snapshot, the unified
// metrics exposition recycle-bench -metrics emits.
func (rt *Runtime) MetricsSnapshot() obs.Snapshot {
	reg := obs.NewRegistry()
	m := rt.eng.Metrics()
	_ = reg.PublishStruct("engine", &m)
	rt.mu.Lock()
	for t, n := range rt.opCounts {
		reg.Set("runtime", "Ops"+t.String(), int64(n))
		reg.Set("runtime", "OpMicros"+t.String(), rt.opSeconds[t].Microseconds())
	}
	rt.mu.Unlock()
	reg.Set("runtime", "Iterations", int64(rt.iter))
	reg.Set("runtime", "FailedWorkers", int64(len(rt.failed)))
	if tr := obs.FindTrace(rt.rec); tr != nil {
		reg.SetAll("trace", tr.Counters())
	}
	return reg.Snapshot()
}

// MarkStraggler retunes the plan service's cost model: the worker's ops are
// modeled at factor × the profiled durations, the plan fingerprint changes,
// and the next Program() fetch re-solves — timing the slow worker honestly
// and routing micro-batches away from it. The worker stays live: it keeps
// its stage replica, all-reduce participation and optimizer steps, so
// training math is unchanged (demotion, not failure).
func (rt *Runtime) MarkStraggler(w schedule.Worker, factor float64) {
	rt.eng.MarkStraggler(w, factor)
}

// ClearStraggler removes a worker's straggler mark; subsequent iterations
// plan with its profiled speed again.
func (rt *Runtime) ClearStraggler(w schedule.Worker) { rt.eng.ClearStraggler(w) }

// MeasuredWorkerTimes returns each worker's mean wall-clock compute-op
// duration — the per-worker Profiler view straggler detection consumes.
func (rt *Runtime) MeasuredWorkerTimes() map[schedule.Worker]time.Duration {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	out := make(map[schedule.Worker]time.Duration, len(rt.wOpSeconds))
	for w, total := range rt.wOpSeconds {
		if n := rt.wOpCounts[w]; n > 0 {
			out[w] = total / time.Duration(n)
		}
	}
	return out
}

// Recalibrate folds the runtime's measured per-worker compute times into
// the engine's cost model (engine.Recalibrate): workers whose measured
// time drifts from the model beyond the engine's threshold get updated
// multipliers, and the previously planned failure counts are re-solved
// warm under the new model. Call it between iterations — after enough
// compute ops have been timed for the means to be meaningful.
func (rt *Runtime) Recalibrate() (engine.Recalibration, error) {
	return rt.eng.Recalibrate(rt.MeasuredWorkerTimes())
}
