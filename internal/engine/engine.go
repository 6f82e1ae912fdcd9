package engine

import (
	"fmt"
	"hash/maphash"
	"runtime"
	"sync"
	"sync/atomic"

	"recycle/internal/config"
	"recycle/internal/core"
	"recycle/internal/obs"
	"recycle/internal/planstore"
	"recycle/internal/profile"
	"recycle/internal/schedule"
)

// Options tunes an Engine. The zero value selects full ReCycle techniques,
// the planner's default unroll window, one worker per CPU, 64 lock
// stripes and a fresh 3-replica plan store.
type Options struct {
	// Techniques overrides the ReCycle technique toggles (nil selects
	// core.AllTechniques).
	Techniques *core.Techniques
	// UnrollIterations overrides the planner's steady-state unroll window
	// (0 keeps the planner default; the live runtime plans 1 iteration).
	UnrollIterations int
	// Workers bounds the Warm worker pool (0 selects GOMAXPROCS).
	Workers int
	// Store injects a (possibly shared) replicated plan store. Nil
	// creates a private 3-replica store, matching a small etcd deployment.
	Store *planstore.Store
	// CostModel seeds the heterogeneous cost model (per-(stage, op,
	// worker) durations). Nil plans with the homogeneous profiled stats.
	// Straggler observations retune it at runtime via MarkStraggler.
	CostModel *profile.CostModel
	// RecalibrateThreshold is the relative drift between measured and
	// modeled per-worker compute times below which Recalibrate leaves the
	// cost model untouched (0 selects DefaultRecalibrateThreshold).
	RecalibrateThreshold float64
	// Stripes is the lock-stripe count for the plan/Program caches,
	// rounded up to a power of two (0 selects 64). More stripes means
	// less cross-fingerprint contention at a few maps' worth of memory.
	Stripes int
	// SingleMutex collapses the engine to one exclusively locked stripe
	// and restores the pre-striping per-fetch work (a full planner
	// snapshot plus a cost-model signature per request). It exists as the
	// honest baseline for the service load benchmark; production engines
	// leave it false.
	SingleMutex bool
}

// Metrics is a snapshot of the engine's plan-traffic counters.
type Metrics struct {
	CacheHits   uint64 // served from the in-process cache
	StoreHits   uint64 // decoded out of the replicated store
	BestHits    uint64 // served via the Best(n) normalized-plan fallback
	Solves      uint64 // full solver runs
	Coalesced   uint64 // callers that waited on another caller's solve
	StoreErrors uint64 // store reads/writes that lost quorum or misparsed
	Compiles    uint64 // schedule→Program lowerings performed
	ProgramHits uint64 // Programs served from the compiled cache

	// Solver-path split of Solves: warm-start hits (the hint's schedule
	// validated as-is), warm replays (the hint's op order re-timed and it
	// matched or beat scratch), and scratch solves.
	// Warm+Replay+Scratch == Solves.
	WarmHits      uint64
	WarmReplays   uint64
	ScratchSolves uint64
	// ClassDedups counts concrete plan requests answered by renaming a
	// cost-equivalence-class representative instead of solving.
	ClassDedups uint64

	// Service counters (PR 7). StripeContended counts lock acquisitions
	// that could not be satisfied speculatively and had to block — the
	// direct measure of cache-lock contention under load. ProgramStoreHits
	// counts compiled Programs decoded out of the replicated store instead
	// of recompiled. WarmedPlans/WarmTargets track background warming
	// coverage. ConfSwaps counts planner-configuration snapshot rebuilds
	// (techniques retuned, cost model changed). Epoch is the current cache
	// epoch; it advances once per InvalidateCache.
	StripeContended  uint64
	ProgramStoreHits uint64
	WarmedPlans      uint64
	WarmTargets      uint64
	ConfSwaps        uint64
	Epoch            uint64
}

// plannerConf is one immutable snapshot of the planner's configuration:
// the full planner copy every solve in this configuration uses (Planner
// methods never mutate their receiver, so one copy is shared by all
// concurrent requests) and the fingerprint namespacing its keys.
type plannerConf struct {
	pl core.Planner
	fp string
}

// Engine is the plan service for one training job. It is safe for
// concurrent use.
type Engine struct {
	store   *planstore.Store
	workers int
	single  bool

	// confMu guards the live planner's retunable fields (Costs via
	// SetCostModel/MarkStraggler/Recalibrate) and the conf snapshot.
	// Fetch paths take it shared for a three-field staleness check; only
	// a configuration change takes it exclusively.
	confMu  sync.RWMutex
	planner *core.Planner
	conf    *plannerConf

	// epoch is the cache generation. InvalidateCache bumps it; cached
	// plans, Best(n) indexes and compiled Programs admitted under older
	// epochs become invisible lazily instead of being swept under a
	// global lock.
	epoch atomic.Uint64

	// seed/stripeMask/stripes/pstripes are the lock-striped caches: plans
	// and in-flight solves sharded by key hash, Programs and encoded plan
	// bytes sharded by schedule identity.
	seed       maphash.Seed
	stripeMask uint64
	stripes    []stripe
	pstripes   []progStripe

	// normMu guards norm, the per-fingerprint Best(n) indexes, each
	// tagged with the epoch it serves.
	normMu sync.Mutex
	norm   map[string]*normIndex

	// hintMu guards the warm-start state. hintsN / hintsC retain the last
	// successfully solved plan per normalized failure count and per
	// concrete victim key, across fingerprints: hints deliberately cross
	// cost-model namespaces, which is what makes the re-solve after a
	// recalibration warm instead of scratch. Store-decoded plans carry no
	// hint and are not retained. plannedN remembers which normalized
	// counts have been requested, so Recalibrate re-solves exactly the
	// working set. Hints survive epoch bumps by design.
	hintMu   sync.Mutex
	hintsN   map[int]*core.Plan
	hintsC   map[string]*core.Plan
	plannedN map[int]bool

	cacheHits, storeHits, bestHits       atomic.Uint64
	solves, coalesced, storeErrs         atomic.Uint64
	compiles, programHits                atomic.Uint64
	warmHits, warmReplays, scratchSolves atomic.Uint64
	classDedups                          atomic.Uint64
	stripeContended, programStoreHits    atomic.Uint64
	warmedPlans, warmTargets             atomic.Uint64
	confSwaps                            atomic.Uint64

	// recalThreshold is the Recalibrate no-op band (Options.RecalibrateThreshold).
	recalThreshold float64

	// rec holds the installed tracing recorder (a recBox; empty means
	// tracing off). See SetRecorder / observe in observe.go.
	rec atomic.Value

	// fps memoizes job fingerprints per (techniques, unroll, costs) triple.
	fps fpCache
}

// normIndex is one fingerprint's Best(n) index plus the epoch it was
// built under; an index from an older epoch is rebuilt empty on first
// touch (the lazy equivalent of the old stop-the-world map wipe).
type normIndex struct {
	store *core.PlanStore
	epoch uint64
}

// New builds the plan service for a job.
func New(job config.Job, stats profile.Stats, opts Options) *Engine {
	planner := core.New(job, stats)
	if opts.Techniques != nil {
		planner.Techniques = *opts.Techniques
	}
	planner.Costs = opts.CostModel
	if opts.UnrollIterations > 0 {
		planner.UnrollIterations = opts.UnrollIterations
	}
	store := opts.Store
	if store == nil {
		store = planstore.New(3)
	}
	workers := opts.Workers
	if workers < 1 {
		workers = runtime.GOMAXPROCS(0)
	}
	threshold := opts.RecalibrateThreshold
	if threshold <= 0 {
		threshold = DefaultRecalibrateThreshold
	}
	nStripes := opts.Stripes
	switch {
	case opts.SingleMutex:
		nStripes = 1
	case nStripes <= 0:
		nStripes = defaultStripes
	default:
		p := 1
		for p < nStripes {
			p <<= 1
		}
		nStripes = p
	}
	e := &Engine{
		planner:        planner,
		store:          store,
		workers:        workers,
		single:         opts.SingleMutex,
		seed:           maphash.MakeSeed(),
		stripeMask:     uint64(nStripes - 1),
		stripes:        make([]stripe, nStripes),
		pstripes:       make([]progStripe, nStripes),
		norm:           make(map[string]*normIndex),
		hintsN:         make(map[int]*core.Plan),
		hintsC:         make(map[string]*core.Plan),
		plannedN:       make(map[int]bool),
		recalThreshold: threshold,
	}
	for i := range e.stripes {
		e.stripes[i].plans = make(map[string]planEntry)
		e.stripes[i].inflight = make(map[string]*call)
	}
	for i := range e.pstripes {
		e.pstripes[i].programs = make(map[*schedule.Schedule]progEntry)
		e.pstripes[i].encoded = make(map[*schedule.Schedule][]byte)
	}
	return e
}

// ShapeJob builds a synthetic unit-cost job whose only meaningful content
// is the pipeline geometry (DP pipelines × PP stages × mb micro-batches
// per pipeline). The live runtime, the figure gallery and the sim-fidelity
// experiment plan at this level, where op durations are supplied directly
// rather than derived from a transformer cost model.
func ShapeJob(dp, pp, mb int) (config.Job, profile.Stats) {
	job := config.Job{
		Model:    config.Model{Name: fmt.Sprintf("synthetic %dx%dx%d", dp, pp, mb), Layers: pp, Hidden: 1, Heads: 1, SeqLen: 1, VocabSize: 1, BytesParam: 2},
		Parallel: config.Parallelism{DP: dp, PP: pp, TP: 1},
		Batch:    config.Batch{GlobalBatch: dp * mb, MicroBatch: 1},
		Hardware: config.A100x1,
	}
	return job, profile.Unit()
}

// Planner exposes the underlying planner (for technique retuning and the
// throughput helpers' inputs). The fetch paths validate their
// configuration snapshot against the live planner's retunable fields on
// every request, so retuning between requests transparently addresses a
// fresh key namespace. Retuning concurrently with in-flight requests
// requires external synchronization, like any unguarded field write.
func (e *Engine) Planner() *core.Planner { return e.planner }

// config returns the current configuration snapshot, rebuilding it only
// when the live planner's retunable fields (techniques, unroll window,
// cost model identity) no longer match — a shared-lock three-field
// compare on the hot path instead of the old per-request planner copy
// plus cost-model signature.
func (e *Engine) config() *plannerConf {
	if e.single {
		return e.legacyConf()
	}
	e.confMu.RLock()
	c := e.conf
	fresh := c != nil &&
		c.pl.Techniques == e.planner.Techniques &&
		c.pl.UnrollIterations == e.planner.UnrollIterations &&
		c.pl.Costs == e.planner.Costs
	e.confMu.RUnlock()
	if fresh {
		return c
	}
	return e.refreshConf()
}

// refreshConf rebuilds the configuration snapshot under the exclusive
// lock (double-checked: a racing refresh publishes once).
func (e *Engine) refreshConf() *plannerConf {
	e.confMu.Lock()
	defer e.confMu.Unlock()
	if c := e.conf; c != nil &&
		c.pl.Techniques == e.planner.Techniques &&
		c.pl.UnrollIterations == e.planner.UnrollIterations &&
		c.pl.Costs == e.planner.Costs {
		return c
	}
	c := &plannerConf{pl: *e.planner}
	c.fp = e.fps.of(&c.pl)
	e.conf = c
	e.confSwaps.Add(1)
	return c
}

// legacyConf is the SingleMutex-mode configuration path: a full planner
// copy under the exclusive lock plus a cost-model signature on every
// request — the per-fetch work the striped engine is benchmarked against.
func (e *Engine) legacyConf() *plannerConf {
	e.confMu.Lock()
	pl := *e.planner
	e.confMu.Unlock()
	c := &plannerConf{pl: pl}
	c.fp = e.fps.of(&c.pl)
	return c
}

// Job returns the job this engine plans for.
func (e *Engine) Job() config.Job { return e.planner.Job }

// CostModel returns the current heterogeneous cost model (nil when the
// engine plans with the homogeneous profiled stats).
func (e *Engine) CostModel() *profile.CostModel {
	e.confMu.RLock()
	defer e.confMu.RUnlock()
	return e.planner.Costs
}

// MarkStraggler records that a worker runs its ops at the given multiple
// of the profiled durations (a gray failure, the paper's slow-but-alive
// discussion) — the re-plan trigger the Detector's straggler callback
// invokes. The cost model is updated copy-on-write and the plan
// fingerprint changes with it, so the very next ScheduleFor/ProgramFor
// re-solves: the solver times the slow worker honestly AND routes
// micro-batches away from it (demotion, not removal — the worker keeps
// participating in all-reduce and optimizer steps). factor 1 clears the
// mark.
func (e *Engine) MarkStraggler(w schedule.Worker, factor float64) {
	e.confMu.Lock()
	cm := e.planner.Costs
	if cm == nil {
		if factor == 1 {
			e.confMu.Unlock()
			return // clearing a mark that was never set
		}
		cm = profile.UniformCost(e.planner.Stats)
	}
	next := cm.WithWorkerScale(w, factor)
	// A model that carries no information beyond the profiled stats
	// normalizes back to nil, so clearing the last straggler returns to the
	// original plan namespace (and its cached plans) instead of a
	// signature-distinct uniform copy.
	if len(next.WorkerScale) == 0 && len(next.StageScale) == 0 && next.Base == e.planner.Stats.Durations() {
		next = nil
	}
	e.planner.Costs = next
	e.confMu.Unlock()
}

// ClearStraggler removes a worker's straggler mark (recovered gray
// failure); plans revert to the namespace without the mark, typically a
// cache hit.
func (e *Engine) ClearStraggler(w schedule.Worker) { e.MarkStraggler(w, 1) }

// Store returns the replicated plan store backing this engine.
func (e *Engine) Store() *planstore.Store { return e.store }

// Epoch returns the current cache epoch. It advances exactly once per
// InvalidateCache; a torn read is impossible (single atomic).
func (e *Engine) Epoch() uint64 { return e.epoch.Load() }

// StripeCount returns the configured lock-stripe count.
func (e *Engine) StripeCount() int { return len(e.stripes) }

// Metrics returns a snapshot of the plan-traffic counters.
func (e *Engine) Metrics() Metrics {
	return Metrics{
		CacheHits:   e.cacheHits.Load(),
		StoreHits:   e.storeHits.Load(),
		BestHits:    e.bestHits.Load(),
		Solves:      e.solves.Load(),
		Coalesced:   e.coalesced.Load(),
		StoreErrors: e.storeErrs.Load(),
		Compiles:    e.compiles.Load(),
		ProgramHits: e.programHits.Load(),

		WarmHits:      e.warmHits.Load(),
		WarmReplays:   e.warmReplays.Load(),
		ScratchSolves: e.scratchSolves.Load(),
		ClassDedups:   e.classDedups.Load(),

		StripeContended:  e.stripeContended.Load(),
		ProgramStoreHits: e.programStoreHits.Load(),
		WarmedPlans:      e.warmedPlans.Load(),
		WarmTargets:      e.warmTargets.Load(),
		ConfSwaps:        e.confSwaps.Load(),
		Epoch:            e.epoch.Load(),
	}
}

// IterationSeconds converts a plan's steady-state period into wall-clock
// seconds.
func (e *Engine) IterationSeconds(p *core.Plan) float64 {
	return e.planner.IterationSeconds(p)
}

// ThroughputSamplesPerSec returns the plan's steady-state training
// throughput.
func (e *Engine) ThroughputSamplesPerSec(p *core.Plan) float64 {
	return e.planner.ThroughputSamplesPerSec(p)
}

// MigrationsNeeded returns how many point-to-point parameter copies morph
// a concrete failure set into the plan's normalized layout.
func (e *Engine) MigrationsNeeded(concrete []schedule.Worker, p *core.Plan) int {
	return core.MigrationsNeeded(concrete, p.Assignment)
}

// Plan returns the normalized plan for n simultaneous failures:
// in-process cache, then replicated store, then one coalesced solve. The
// solve is warm-started by the last plan this engine derived for the same
// count (under any cost model — see hintsN), so a re-solve after a cache
// invalidation or a recalibration validates or replays the previous
// schedule instead of re-deriving it.
func (e *Engine) Plan(n int) (*core.Plan, error) {
	if n < 0 {
		return nil, fmt.Errorf("engine: negative failure count %d", n)
	}
	c := e.config()
	p, err := e.getOrSolve(e.nkey(c.fp, n), c.fp, true, func() (*core.Plan, error) {
		return c.pl.PlanForHinted(n, e.hintNorm(n))
	})
	if err == nil {
		e.noteNorm(n, p)
	}
	return p, err
}

// PlanConcrete returns the plan for one specific failed-worker set,
// bypassing failure normalization. Victim sets that are pipeline
// permutations of each other within cost-equivalence classes share one
// solve: the set is canonicalized first, the canonical representative is
// fetched or solved (same get-or-solve lifecycle as Plan), and its plan is
// renamed back onto the requested pipelines — an exact isomorph, since
// interchangeable pipelines run every op at identical cost.
func (e *Engine) PlanConcrete(failed []schedule.Worker) (*core.Plan, error) {
	ws := append([]schedule.Worker(nil), failed...)
	core.SortWorkers(ws)
	c := e.config()
	key := e.ckey(c.fp, ws)

	var costs schedule.CostFunc
	if c.pl.Costs != nil {
		costs = c.pl.Costs.Fn()
	}
	canon, perm, changed := schedule.CanonicalizeVictims(c.pl.Shape(), costs, ws)
	if !changed {
		p, err := e.getOrSolve(key, c.fp, false, func() (*core.Plan, error) {
			return c.pl.PlanConcreteHinted(ws, e.hintConcrete(ws))
		})
		if err == nil {
			e.noteConcrete(ws, p)
		}
		return p, err
	}
	if p, ok := e.peek(key, c.fp, false); ok {
		return p, nil
	}
	e.classDedups.Add(1)
	cp, err := e.getOrSolve(e.ckey(c.fp, canon), c.fp, false, func() (*core.Plan, error) {
		return c.pl.PlanConcreteHinted(canon, e.hintConcrete(canon))
	})
	if err != nil {
		return nil, err
	}
	e.noteConcrete(canon, cp)
	p := core.RenamePlan(cp, schedule.InvertPerm(perm))
	e.admit(key, c.fp, p, false, e.epoch.Load())
	return p, nil
}

// hintNorm returns the warm-start plan for a normalized count.
func (e *Engine) hintNorm(n int) *core.Plan {
	e.hintMu.Lock()
	defer e.hintMu.Unlock()
	return e.hintsN[n]
}

// noteNorm records a served normalized plan: the count joins the working
// set Recalibrate re-solves, and plans that carry a hint (i.e. came out of
// the solver rather than the store codec) become the next warm start.
func (e *Engine) noteNorm(n int, p *core.Plan) {
	e.hintMu.Lock()
	defer e.hintMu.Unlock()
	e.plannedN[n] = true
	if p.Hint != nil {
		e.hintsN[n] = p
	}
}

// hintConcrete returns the warm-start plan for a sorted victim set.
func (e *Engine) hintConcrete(ws []schedule.Worker) *core.Plan {
	e.hintMu.Lock()
	defer e.hintMu.Unlock()
	return e.hintsC[victimKey(ws)]
}

// noteConcrete records a served concrete plan as a future warm start.
func (e *Engine) noteConcrete(ws []schedule.Worker, p *core.Plan) {
	if p.Hint == nil {
		return
	}
	e.hintMu.Lock()
	defer e.hintMu.Unlock()
	e.hintsC[victimKey(ws)] = p
}

// InvalidateCache drops every derived planning artifact — the in-process
// plan cache, the Best(n) indexes, the compiled-program cache and the
// replicated store's contents — while keeping the warm-start hints and the
// immutable encoded-plan bytes. It models plan-state loss (a planner
// restart, a store wipe, a membership change that voids cached plans): the
// next Warm re-derives every plan, and the retained hints make the
// re-derivation a warm validation pass instead of a scratch solve.
//
// Invalidation is a single epoch bump: entries admitted under older
// epochs stop being served but are never swept under a lock, so in-flight
// fetches on other stripes proceed untouched. A caller that coalesced
// onto a solve started before the bump still gets a correct plan — plans
// are pure functions of their key — it is merely re-derived again on the
// next fetch.
func (e *Engine) InvalidateCache() {
	e.epoch.Add(1)
	e.store.Clear()
}

// Best returns the plan for n failures, falling back to the smallest plan
// covering more than n failures among those this engine has seen (a plan
// for more failures always routes around at least the workers that are
// down). The exact count is first sought in the cache and the replicated
// store.
func (e *Engine) Best(n int) (*core.Plan, bool) {
	c := e.config()
	ep := e.epoch.Load()
	if p, ok := e.peek(e.nkey(c.fp, n), c.fp, true); ok {
		return p, true
	}
	return e.normStore(c.fp, ep).Best(n)
}

// best is Best without the traffic counters, used by ScheduleFor so each
// Coordinator fetch lands in exactly one metrics tier.
func (e *Engine) best(fp string, n int) (*core.Plan, bool) {
	key := e.nkey(fp, n)
	st := e.stripeFor(key)
	ep := e.epoch.Load()
	e.lockShared(&st.mu)
	ent, ok := st.plans[key]
	e.unlockShared(&st.mu)
	if ok && ent.epoch == e.epoch.Load() {
		return ent.plan, true
	}
	if p := e.loadQuiet(key); p != nil {
		e.admit(key, fp, p, true, ep)
		return p, true
	}
	return e.normStore(fp, ep).Best(n)
}

// ScheduleFor is the Coordinator's failure-handling path (§4.1, Fig 8):
// given the concrete failed-worker set, fetch the exact concrete plan from
// cache/store; fall back to the stored normalized Best(n) plan when its
// failed set coincides with the concrete one (zero migrations needed);
// otherwise solve on demand and persist the result.
func (e *Engine) ScheduleFor(failed map[schedule.Worker]bool) (*schedule.Schedule, error) {
	if len(failed) == 0 {
		p, err := e.Plan(0)
		if err != nil {
			return nil, err
		}
		return p.Schedule, nil
	}
	ws := make([]schedule.Worker, 0, len(failed))
	for w := range failed {
		ws = append(ws, w)
	}
	core.SortWorkers(ws)
	c := e.config()
	if p, ok := e.peek(e.ckey(c.fp, ws), c.fp, false); ok {
		return p.Schedule, nil
	}
	if p, ok := e.best(c.fp, len(ws)); ok {
		norm := append([]schedule.Worker(nil), p.Failed...)
		core.SortWorkers(norm)
		if sameWorkers(norm, ws) {
			e.bestHits.Add(1)
			return p.Schedule, nil
		}
	}
	p, err := e.PlanConcrete(ws)
	if err != nil {
		return nil, err
	}
	return p.Schedule, nil
}

// peek returns the plan under key from the cache or the replicated store
// without ever solving. Store hits are promoted into the cache (and the
// Best(n) index when normalized).
func (e *Engine) peek(key, fp string, normalized bool) (*core.Plan, bool) {
	st := e.stripeFor(key)
	ep := e.epoch.Load()
	e.lockShared(&st.mu)
	ent, ok := st.plans[key]
	e.unlockShared(&st.mu)
	if ok && ent.epoch == e.epoch.Load() {
		e.cacheHits.Add(1)
		return ent.plan, true
	}
	if p := e.load(key); p != nil {
		e.admit(key, fp, p, normalized, ep)
		return p, true
	}
	return nil, false
}

// getOrSolve is the coalescing get-or-solve core: one solve per key no
// matter how many callers arrive concurrently. Coalescing is per-stripe —
// a solve on one fingerprint never blocks a hit on another — and the
// striped engine probes the cache under the shared lock before touching
// the exclusive inflight path at all.
func (e *Engine) getOrSolve(key, fp string, normalized bool, solve func() (*core.Plan, error)) (*core.Plan, error) {
	st := e.stripeFor(key)
	ep := e.epoch.Load()
	if !e.single {
		e.lockShared(&st.mu)
		ent, ok := st.plans[key]
		e.unlockShared(&st.mu)
		if ok && ent.epoch == e.epoch.Load() {
			e.cacheHits.Add(1)
			return ent.plan, nil
		}
	}
	e.lockExcl(&st.mu)
	if ent, ok := st.plans[key]; ok && ent.epoch == e.epoch.Load() {
		st.mu.Unlock()
		e.cacheHits.Add(1)
		return ent.plan, nil
	}
	if c, ok := st.inflight[key]; ok {
		st.mu.Unlock()
		e.coalesced.Add(1)
		<-c.done
		return c.plan, c.err
	}
	c := &call{done: make(chan struct{})}
	st.inflight[key] = c
	st.mu.Unlock()

	p := e.load(key)
	var err error
	if p == nil {
		e.solves.Add(1)
		e.observe(obs.EvPlanSolve, key)
		p, err = solve()
		if err == nil {
			switch p.SolveKind {
			case core.SolveWarmIdentical:
				e.warmHits.Add(1)
			case core.SolveWarmReplay:
				e.warmReplays.Add(1)
			default:
				e.scratchSolves.Add(1)
			}
			e.persist(key, p)
		}
	}
	if err == nil {
		e.admit(key, fp, p, normalized, ep)
	}
	e.lockExcl(&st.mu)
	delete(st.inflight, key)
	st.mu.Unlock()
	c.plan, c.err = p, err
	close(c.done)
	return p, err
}

// load fetches and decodes a plan from the replicated store, counting the
// hit.
func (e *Engine) load(key string) *core.Plan {
	p := e.loadQuiet(key)
	if p != nil {
		e.storeHits.Add(1)
	}
	return p
}

// loadQuiet is load without the StoreHits counter. A lost read quorum or
// a corrupt value degrades to a miss (the engine can always re-solve) and
// is counted in StoreErrors.
func (e *Engine) loadQuiet(key string) *core.Plan {
	data, ok, err := e.store.Get(key)
	if err != nil {
		e.storeErrs.Add(1)
		return nil
	}
	if !ok {
		return nil
	}
	p, err := DecodePlan(data)
	if err != nil {
		e.storeErrs.Add(1)
		return nil
	}
	return p
}

// persist encodes the plan and replicates it. A lost write quorum does not
// fail the request — the caller still gets its plan — but is counted.
// Encodings are memoized by schedule identity (schedules are immutable),
// so a warm-hit re-solve that returns an already-encoded schedule
// replicates the cached bytes instead of re-marshaling 10k+ placements.
func (e *Engine) persist(key string, p *core.Plan) {
	ps := e.progStripeFor(p.Schedule)
	e.lockShared(&ps.mu)
	data, ok := ps.encoded[p.Schedule]
	e.unlockShared(&ps.mu)
	if !ok {
		var err error
		data, err = EncodePlan(p)
		if err != nil {
			e.storeErrs.Add(1)
			return
		}
		e.lockExcl(&ps.mu)
		if prev, ok := ps.encoded[p.Schedule]; ok {
			data = prev
		} else {
			ps.encoded[p.Schedule] = data
		}
		ps.mu.Unlock()
	}
	if err := e.store.Put(key, data); err != nil {
		e.storeErrs.Add(1)
	}
}

// admit installs a plan into the in-process cache under the epoch its
// request began in and, for normalized plans, the fingerprint's Best(n)
// index. An entry admitted under a newer epoch is never replaced by a
// stale one.
func (e *Engine) admit(key, fp string, p *core.Plan, normalized bool, ep uint64) {
	st := e.stripeFor(key)
	e.lockExcl(&st.mu)
	if ent, ok := st.plans[key]; !ok || ent.epoch <= ep {
		st.plans[key] = planEntry{plan: p, epoch: ep}
	}
	st.mu.Unlock()
	if normalized {
		// Put only rejects empty plans, which cannot reach here.
		_ = e.normStore(fp, ep).Put(p)
	}
}

// normStore returns the Best(n) index for one job fingerprint at the
// given epoch, lazily rebuilding an index whose epoch is stale.
func (e *Engine) normStore(fp string, ep uint64) *core.PlanStore {
	e.normMu.Lock()
	defer e.normMu.Unlock()
	ni := e.norm[fp]
	if ni != nil && ni.epoch >= ep {
		return ni.store
	}
	ni = &normIndex{store: core.NewPlanStore(), epoch: ep}
	e.norm[fp] = ni
	return ni.store
}
