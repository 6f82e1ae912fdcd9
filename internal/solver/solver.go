// Package solver generates adaptive pipeline schedules: given the job
// shape, op durations, a set of failed workers and the ReCycle technique
// toggles, it produces a fully timed schedule that minimizes iteration
// makespan, standing in for the paper's MILP (§4.2.2).
//
// The solver is a deterministic event-driven list scheduler built around
// the structure the paper identifies:
//
//   - the fault-free 1F1B skeleton is preserved: forward and
//     backward-input ops run in their canonical order, with rerouted
//     micro-batches merged in by their fault-free timing (Adaptive
//     Pipelining, §3.1);
//   - backward-weight ops are dependence-free and are lazily deferred into
//     idle slots under the per-worker memory cap (Decoupled BackProp,
//     §3.2);
//   - optimizer steps synchronize either globally (conventional) or per
//     pipeline stage (Staggered Optimizer, §3.3).
//
// package exact.go provides a branch-and-bound makespan solver for small
// instances, used in tests to certify the heuristic's schedules.
package solver

import (
	"fmt"

	"recycle/internal/schedule"
)

// Input configures one solve.
type Input struct {
	Shape     schedule.Shape
	Durations schedule.Durations
	// Costs, when non-nil, gives per-(stage, op, worker) durations from the
	// cost model (internal/profile): stragglers, uneven stage splits. The
	// solver then both times every task with its executor's real duration
	// and routes micro-batches away from slow workers (gray-failure
	// handling). Durations remains the homogeneous base — it still supplies
	// Comm and the fault-free reference skeleton used for priorities. A nil
	// Costs (or one that equals Durations everywhere) reproduces the
	// homogeneous schedules bit-for-bit.
	Costs schedule.CostFunc
	// Failed is the set of failed workers to route around.
	Failed map[schedule.Worker]bool
	// MemCap is the per-worker in-flight activation cap in units (the
	// MILP's M_Limit, Eq. 6). Zero means unlimited; the Planner derives
	// real per-stage caps from the memory model. MemCapPerStage, when
	// non-nil, overrides MemCap with a per-stage value (later 1F1B stages
	// have more headroom — the imbalance §3.2 exploits).
	MemCap         int
	MemCapPerStage []int
	// Decoupled enables Decoupled BackProp (split BInput/BWeight).
	Decoupled bool
	// Staggered enables the Staggered Optimizer (per-stage barriers).
	Staggered bool
	// Naive disables the deadline-driven (ALAP) priorities and the
	// extended 1F1B window, reproducing the plain round-robin insertion of
	// Figure 3b — the behavior of a pipeline engine without the decoupled
	// backward instructions. The Planner uses it for the Fig 11 ablation's
	// "Adaptive Pipelining only" configuration.
	Naive bool
	// Hint, when non-nil, warm-starts the solve from a previously solved
	// neighboring instance (see Hint). Incompatible hints are ignored, so
	// passing a stale hint is always safe; a compatible hint turns the
	// solve into a validation pass (identical instance) or an order-replay
	// race against the scratch dispatch (drifted durations), never
	// producing a worse makespan than a scratch solve of the same input.
	Hint *Hint
}

// ErrStageDead is returned when some pipeline stage has no live worker in
// any data-parallel pipeline: adaptive pipelining cannot repair the job and
// the caller must fall back to checkpoint restoration (§3.4, Fig 7a).
var ErrStageDead = fmt.Errorf("solver: a pipeline stage has no live data-parallel peer")

// dur resolves the duration of one op on one worker: the cost model when
// present, the homogeneous Durations otherwise.
func (in Input) dur(w schedule.Worker, t schedule.OpType) int64 {
	if in.Costs != nil {
		return in.Costs(w, t)
	}
	return in.Durations.Of(t)
}

// Solve produces an adaptive schedule for the input.
func Solve(in Input) (*schedule.Schedule, error) {
	s, _, err := SolveInstrumented(in)
	return s, err
}

// SolveInstrumented is Solve plus provenance: how the schedule was derived
// (scratch, warm-identical, warm-replay) and a self-hint that warm-starts
// future solves of neighboring instances. Warm-start flow:
//
//   - identical instance (hint routes, toggles, caps and every placement
//     duration match the input): the hint schedule is returned unchanged
//     after an O(placements) validation — the solver is deterministic, so
//     this is bit-identical to what a scratch solve would produce;
//   - durations uniformly rescaled with unchanged routing (a fleet-wide
//     recalibration — every op cost multiplied by one factor): the hint's
//     per-worker op order is replayed under the new durations and replay
//     wins unless scratch is strictly better;
//   - anything else — including non-uniform drift, where the relative op
//     costs changed and a replay almost never wins — the hint is
//     abandoned immediately and the solve runs from scratch, paying no
//     replay tax.
func SolveInstrumented(in Input) (*schedule.Schedule, SolveInfo, error) {
	if err := in.Shape.Validate(); err != nil {
		return nil, SolveInfo{}, err
	}
	routes, err := routeForInput(in)
	if err != nil {
		return nil, SolveInfo{}, err
	}
	h := in.Hint
	warm := h.compatible(in, routes)
	if warm && h.Schedule.Durations == in.Durations && h.durationsMatch(in) {
		return h.Schedule, SolveInfo{Kind: KindWarmIdentical, Hint: h}, nil
	}
	st := newState(in, routes)
	var replay []schedule.Placement
	replayOK := false
	if warm && h.uniformRescale(in) {
		replay, replayOK = st.replayOrder(h.Schedule)
	}
	if err := st.run(); err != nil {
		return nil, SolveInfo{}, err
	}
	ps, kind := st.placements, KindScratch
	if replayOK && horizon(replay) <= horizon(st.placements) {
		ps, kind = replay, KindWarmReplay
	}
	s := schedule.New(in.Shape, in.Durations, in.Failed, ps)
	return s, SolveInfo{Kind: kind, Hint: selfHint(in, routes, s)}, nil
}

// routeForInput picks the routing strategy: plain round-robin over live
// peers when the costs are homogeneous, load-balanced routing around slow
// workers otherwise.
func routeForInput(in Input) ([][][]int, error) {
	if in.Costs == nil {
		return RouteMicroBatches(in.Shape, in.Failed)
	}
	return RouteMicroBatchesCost(in.Shape, in.Failed, in.Costs)
}

// RouteMicroBatches computes the exec pipeline for every (stage, home
// pipeline, micro-batch): the home worker when alive, otherwise live
// data-parallel peers round-robin (the paper's even distribution, §3.1 and
// the ReRouteAct operator, §5). The returned map is indexed
// [stage][home][mb].
func RouteMicroBatches(shape schedule.Shape, failed map[schedule.Worker]bool) ([][][]int, error) {
	routes := make([][][]int, shape.PP)
	for i := 0; i < shape.PP; i++ {
		var alive []int
		for k := 0; k < shape.DP; k++ {
			if !failed[schedule.Worker{Stage: i, Pipeline: k}] {
				alive = append(alive, k)
			}
		}
		if len(alive) == 0 {
			return nil, fmt.Errorf("%w: stage %d", ErrStageDead, i)
		}
		routes[i] = make([][]int, shape.DP)
		for k := 0; k < shape.DP; k++ {
			routes[i][k] = make([]int, shape.MB)
			if !failed[schedule.Worker{Stage: i, Pipeline: k}] {
				for j := range routes[i][k] {
					routes[i][k][j] = k
				}
				continue
			}
			// Round-robin over live peers, offset by the failed pipeline id
			// so that multiple failures at a stage spread differently.
			for j := range routes[i][k] {
				routes[i][k][j] = alive[(j+k)%len(alive)]
			}
		}
	}
	return routes, nil
}

// RouteMicroBatchesCost computes the exec pipeline for every (stage, home
// pipeline, micro-batch) under a heterogeneous cost model — the
// gray-failure generalization of RouteMicroBatches. Dead workers are
// routed around as before; slow-but-alive workers are demoted: their
// micro-batches (and those of failed homes) are placed by a greedy
// least-finish-time rule over per-worker compute costs, so a 2× straggler
// keeps only the share of work it can finish in step with its peers
// instead of dragging the whole pipeline. Stages whose live workers all
// run at the same cost reproduce the round-robin routing exactly, so a
// uniform cost model changes nothing.
func RouteMicroBatchesCost(shape schedule.Shape, failed map[schedule.Worker]bool, costs schedule.CostFunc) ([][][]int, error) {
	routes := make([][][]int, shape.PP)
	for i := 0; i < shape.PP; i++ {
		var alive []int
		for k := 0; k < shape.DP; k++ {
			if !failed[schedule.Worker{Stage: i, Pipeline: k}] {
				alive = append(alive, k)
			}
		}
		if len(alive) == 0 {
			return nil, fmt.Errorf("%w: stage %d", ErrStageDead, i)
		}
		// Per-micro-batch compute cost on each live worker of the stage.
		cost := make([]int64, shape.DP)
		minCost := int64(1) << 62
		flat := true
		for _, k := range alive {
			w := schedule.Worker{Stage: i, Pipeline: k}
			cost[k] = costs(w, schedule.F) + costs(w, schedule.BInput) + costs(w, schedule.BWeight)
			if cost[k] != cost[alive[0]] {
				flat = false
			}
			if cost[k] < minCost {
				minCost = cost[k]
			}
		}
		routes[i] = make([][]int, shape.DP)
		if flat {
			// Homogeneous stage: identical to RouteMicroBatches.
			for k := 0; k < shape.DP; k++ {
				routes[i][k] = make([]int, shape.MB)
				if !failed[schedule.Worker{Stage: i, Pipeline: k}] {
					for j := range routes[i][k] {
						routes[i][k][j] = k
					}
					continue
				}
				for j := range routes[i][k] {
					routes[i][k][j] = alive[(j+k)%len(alive)]
				}
			}
			continue
		}
		// Heterogeneous stage: workers at the stage minimum keep their own
		// micro-batches; everything else — work of failed homes and of
		// demoted (slower-than-minimum) homes — is placed greedily on the
		// worker with the earliest projected finish, home winning ties.
		load := make([]int64, shape.DP)
		type mbRef struct{ home, mb int }
		var pending []mbRef
		for k := 0; k < shape.DP; k++ {
			routes[i][k] = make([]int, shape.MB)
			w := schedule.Worker{Stage: i, Pipeline: k}
			if !failed[w] && cost[k] == minCost {
				for j := range routes[i][k] {
					routes[i][k][j] = k
				}
				load[k] += cost[k] * int64(shape.MB)
				continue
			}
			for j := 0; j < shape.MB; j++ {
				pending = append(pending, mbRef{home: k, mb: j})
			}
		}
		for _, pj := range pending {
			home, j := pj.home, pj.mb
			best, bestFinish := -1, int64(1)<<62
			for _, k := range alive {
				finish := load[k] + cost[k]
				better := finish < bestFinish
				if finish == bestFinish && best >= 0 {
					// Ties: prefer the home worker, then the lower pipeline id.
					better = k == home && best != home
				}
				if better {
					best, bestFinish = k, finish
				}
			}
			routes[i][home][j] = best
			load[best] += cost[best]
		}
	}
	return routes, nil
}

// taskID indexes into state.tasks.
type taskID int32

type task struct {
	op       schedule.Op
	worker   schedule.Worker
	dur      int64 // modeled duration on this task's executor (cost model)
	pos      int64 // skeleton priority (fault-free 1F1B position)
	alap     int64 // latest start that meets the stage deadline
	release  int64 // earliest allowed start (fault-free pacing of unaffected work)
	succs    []succ
	predsN   int32
	readyAt  int64 // valid once predsN == 0
	placed   bool
	start    int64
	end      int64
	critical bool // F / B / BInput
	join     bool // all-reduce join: zero duration, no worker
}

type succ struct {
	id   taskID
	comm int64 // edge latency added to the predecessor's end
}

type workerState struct {
	w        schedule.Worker
	free     int64
	held     int // in-flight activation units
	critHead int // index into crit of first unplaced
	crit     []taskID
	bwPool   []taskID // ready BWeight tasks in FIFO order
	optNext  int      // index into opts of first unplaced optimizer
	opts     []taskID
	arrived  bool  // waiting at the current optimizer barrier
	critLeft []int // unplaced critical ops per iteration
	bwLeft   []int // unplaced BWeight ops per iteration
	window   int   // 1F1B forward-ahead window: PP - stage + rerouted MBs
	ahead    int   // forwards placed minus backward-inputs placed
	memCap   int   // in-flight activation cap (0 = unlimited)
}

// event wakes a worker at a given time.
type event struct {
	t int64
	w int // worker index
}

// eventQueue is a typed binary min-heap ordered by (time, worker). The
// event loop is hot enough that the interface boxing of container/heap
// showed in profiles, so the sift operations are implemented directly.
type eventQueue []event

func (q eventQueue) Len() int { return len(q) }
func (q eventQueue) less(i, j int) bool {
	return q[i].t < q[j].t || (q[i].t == q[j].t && q[i].w < q[j].w)
}

type optGroup struct {
	members  []int // worker indices
	arrived  int
	arriveAt int64
	tasks    []taskID
	placed   bool
}

type state struct {
	in      Input
	routes  [][][]int
	tasks   []task
	workers []workerState
	widx    map[schedule.Worker]int
	groups  []optGroup // see group
	events  eventQueue
	// groupsPerIter is PP under the Staggered Optimizer, 1 otherwise;
	// joins counts the all-reduce join tasks.
	groupsPerIter, joins int
	// wake[w] is the earliest pending wake event for worker w (MaxInt64
	// when none); duplicate wake pushes are dropped to keep the event
	// queue O(workers).
	wake       []int64
	placements []schedule.Placement
	unplaced   int
}

// wakeAt schedules worker wi to be dispatched at time t, deduplicating
// against an already-pending earlier wake.
func (s *state) wakeAt(wi int, t int64) {
	if s.wake[wi] <= t {
		return
	}
	s.wake[wi] = t
	s.events.pushEvent(event{t: t, w: wi})
}

// pushEvent adds an event to the queue (sift-up).
func (q *eventQueue) pushEvent(e event) {
	*q = append(*q, e)
	h := *q
	for i := len(h) - 1; i > 0; {
		p := (i - 1) / 2
		if !h.less(i, p) {
			break
		}
		h[i], h[p] = h[p], h[i]
		i = p
	}
}

// popEvent removes and returns the earliest event (sift-down).
func (q *eventQueue) popEvent() event {
	h := *q
	top := h[0]
	n := len(h) - 1
	h[0] = h[n]
	h = h[:n]
	*q = h
	for i := 0; ; {
		c := 2*i + 1
		if c >= n {
			break
		}
		if r := c + 1; r < n && h.less(r, c) {
			c = r
		}
		if !h.less(c, i) {
			break
		}
		h[i], h[c] = h[c], h[i]
		i = c
	}
	return top
}
