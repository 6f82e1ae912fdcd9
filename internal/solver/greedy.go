package solver

import (
	"fmt"
	"math"
	"sort"

	"recycle/internal/schedule"
)

// newState builds the task graph for the input: one F and one backward
// chain per (iteration, pipeline, micro-batch, stage) with the MILP's
// dependency structure (Eq. 2–4), one all-reduce join per (iteration,
// stage) gathering the stage's weight gradients for its optimizers,
// per-worker priority streams ordered by the fault-free 1F1B skeleton, and
// optimizer barrier groups.
func newState(in Input, routes [][][]int) *state {
	sh := in.Shape
	d := in.Durations

	// Reference fault-free timing used as the merge priority for rerouted
	// work: identical across pipelines, so compute it once with DP=1.
	ref := schedule.FaultFree1F1B(schedule.Shape{DP: 1, PP: sh.PP, MB: sh.MB, Iter: 1}, d)
	refF := make([][]int64, sh.PP)
	refB := make([][]int64, sh.PP)
	for i := 0; i < sh.PP; i++ {
		refF[i] = make([]int64, sh.MB)
		refB[i] = make([]int64, sh.MB)
		for j := 0; j < sh.MB; j++ {
			pf, _ := ref.At(schedule.Op{Stage: i, MB: j, Home: 0, Exec: 0, Type: schedule.F})
			pb, _ := ref.At(schedule.Op{Stage: i, MB: j, Home: 0, Exec: 0, Type: schedule.B})
			refF[i][j] = pf.Start
			refB[i][j] = pb.Start
		}
	}
	iterSpan := ref.ComputeMakespan(0) + d.Opt + 1
	tie := int64(2*sh.DP + 2)
	pos := func(iter int, slot int64, home, exec int) int64 {
		t := int64(0)
		if home != exec {
			// Rerouted ops sort after own ops at the same skeleton slot.
			t = int64(home) + 2
		}
		return (int64(iter)*iterSpan+slot)*tie + t
	}

	s := &state{
		in:     in,
		routes: routes,
		widx:   make(map[schedule.Worker]int),
	}
	s.groupsPerIter = 1
	if in.Staggered {
		s.groupsPerIter = sh.PP
	}
	s.groups = make([]optGroup, sh.Iter*s.groupsPerIter)
	for k := 0; k < sh.DP; k++ {
		for i := 0; i < sh.PP; i++ {
			w := schedule.Worker{Stage: i, Pipeline: k}
			if in.Failed[w] {
				continue
			}
			s.widx[w] = len(s.workers)
			s.workers = append(s.workers, workerState{w: w})
		}
	}

	addTask := func(t task) taskID {
		if !t.join {
			t.dur = in.dur(t.worker, t.op.Type)
		}
		id := taskID(len(s.tasks))
		s.tasks = append(s.tasks, t)
		return id
	}
	edge := func(from, to taskID, comm int64) {
		s.tasks[from].succs = append(s.tasks[from].succs, succ{id: to, comm: comm})
		s.tasks[to].predsN++
	}

	// Selective Decoupled BackProp (§3.2): splitting every backward pass
	// would speed up even the fault-free schedule (the "zero-bubble"
	// effect), changing the baseline. The paper instead decouples only
	// where it mitigates rerouting: pipelines that lost a worker (their
	// backward chains must not stall behind coupled BWeight work) and
	// workers that absorb rerouted micro-batches (they defer BWeight into
	// bubbles).
	pipeFailed := make([]bool, sh.DP)
	loaded := make(map[schedule.Worker]bool)
	for w := range in.Failed {
		pipeFailed[w.Pipeline] = true
	}
	for i := 0; i < sh.PP; i++ {
		for k := 0; k < sh.DP; k++ {
			for j := 0; j < sh.MB; j++ {
				if exec := routes[i][k][j]; exec != k {
					loaded[schedule.Worker{Stage: i, Pipeline: exec}] = true
				}
			}
		}
	}
	decouple := func(i, k, exec int) bool {
		if !in.Decoupled {
			return false
		}
		return pipeFailed[k] || loaded[schedule.Worker{Stage: i, Pipeline: exec}]
	}
	// Unaffected work keeps the fault-free 1F1B pacing: it may not start
	// earlier than its fault-free slot. This pins the baseline — adaptive
	// schedules repair failures rather than re-optimize healthy pipelines,
	// so fault-free throughput is never exceeded (§3.1: "all other workers
	// operate as in the fault-free schedule").
	unaffected := func(i, k, exec int) bool {
		return !pipeFailed[k] && !loaded[schedule.Worker{Stage: i, Pipeline: exec}]
	}
	periodRef := ref.ComputeMakespan(0) + d.Opt

	// Dense (iter, stage, micro-batch, home) task indexes.
	mbIdx := func(it, i, j, k int) int { return ((it*sh.PP+i)*sh.MB+j)*sh.DP + k }
	nMB := sh.Iter * sh.PP * sh.MB * sh.DP
	fID := make([]taskID, nMB)
	biID := make([]taskID, nMB) // BInput or coupled B
	bwID := make([]taskID, nMB)

	for it := 0; it < sh.Iter; it++ {
		for k := 0; k < sh.DP; k++ {
			for j := 0; j < sh.MB; j++ {
				for i := 0; i < sh.PP; i++ {
					exec := routes[i][k][j]
					w := schedule.Worker{Stage: i, Pipeline: exec}
					key := mbIdx(it, i, j, k)
					var relF, relB int64
					if unaffected(i, k, exec) {
						relF = int64(it)*periodRef + refF[i][j]
						relB = int64(it)*periodRef + refB[i][j]
					}
					f := addTask(task{
						op:       schedule.Op{Stage: i, MB: j, Home: k, Exec: exec, Type: schedule.F, Iter: it},
						worker:   w,
						pos:      pos(it, refF[i][j], k, exec),
						release:  relF,
						critical: true,
					})
					fID[key] = f
					if decouple(i, k, exec) {
						bi := addTask(task{
							op:       schedule.Op{Stage: i, MB: j, Home: k, Exec: exec, Type: schedule.BInput, Iter: it},
							worker:   w,
							pos:      pos(it, refB[i][j], k, exec),
							critical: true,
						})
						bw := addTask(task{
							op:     schedule.Op{Stage: i, MB: j, Home: k, Exec: exec, Type: schedule.BWeight, Iter: it},
							worker: w,
							pos:    pos(it, refB[i][j], k, exec) + 1,
						})
						biID[key] = bi
						bwID[key] = bw
						edge(bi, bw, 0)
					} else {
						b := addTask(task{
							op:       schedule.Op{Stage: i, MB: j, Home: k, Exec: exec, Type: schedule.B, Iter: it},
							worker:   w,
							pos:      pos(it, refB[i][j], k, exec),
							release:  relB,
							critical: true,
						})
						biID[key] = b
						bwID[key] = b
					}
					// Local data dependency: backward needs the stage stash.
					edge(f, biID[key], 0)
					// Eq. 2: forward cross-stage chain.
					if i > 0 {
						edge(fID[mbIdx(it, i-1, j, k)], f, d.Comm)
					}
				}
				// Eq. 3: backward cross-stage chain (built after the column
				// exists, downstream to upstream).
				for i := 0; i < sh.PP-1; i++ {
					edge(biID[mbIdx(it, i+1, j, k)], biID[mbIdx(it, i, j, k)], d.Comm)
				}
			}
		}
		// Gradient readiness: the stage's all-reduce join needs every
		// backward-weight of the stage, wherever it executed. The join is
		// a zero-duration task on no worker; it fires when its last
		// contributor lands and releases the stage's optimizers. It
		// carries the Optimizer op type and an unmapped worker, so the
		// passes below that skip optimizers or unmapped workers skip it.
		joins := make([]taskID, sh.PP)
		for i := range joins {
			joins[i] = addTask(task{
				op:     schedule.Op{Stage: i, MB: -1, Home: -1, Exec: -1, Type: schedule.Optimizer, Iter: it},
				worker: schedule.Worker{Stage: i, Pipeline: -1},
				join:   true,
			})
			for k := 0; k < sh.DP; k++ {
				for j := 0; j < sh.MB; j++ {
					edge(bwID[mbIdx(it, i, j, k)], joins[i], 0)
				}
			}
			s.joins++
		}
		// Optimizer tasks and barrier groups.
		for wi := range s.workers {
			w := s.workers[wi].w
			o := addTask(task{
				op:     schedule.Op{Stage: w.Stage, MB: -1, Home: w.Pipeline, Exec: w.Pipeline, Type: schedule.Optimizer, Iter: it},
				worker: w,
				pos:    pos(it, iterSpan-1, w.Pipeline, w.Pipeline),
			})
			s.workers[wi].opts = append(s.workers[wi].opts, o)
			g := s.group(it, w.Stage)
			g.members = append(g.members, wi)
			g.tasks = append(g.tasks, o)
			edge(joins[w.Stage], o, 0)
		}
	}

	// Refine priorities with ALAP (as-late-as-possible) start times derived
	// from the staggered per-stage deadlines: stage i's optimizer must end
	// by (fault-free makespan + optimizer) + i*(F+comm) for the next
	// iteration's warm-up to start on time. Least-laxity-first ordering is
	// what lets a loaded peer run the *last* rerouted forward early enough
	// for its backward chain to clear upstream stages before their
	// all-reduce deadlines (the zero-overhead packing of Fig 6c).
	if !in.Naive {
		s.applyALAP(ref, tie)
	}

	// Per-worker critical streams sorted by priority; per-iteration work
	// counters for optimizer gating.
	for id := range s.tasks {
		t := &s.tasks[id]
		if t.op.Type == schedule.Optimizer {
			continue
		}
		wi := s.widx[t.worker]
		if t.critical {
			s.workers[wi].crit = append(s.workers[wi].crit, taskID(id))
		}
	}
	for wi := range s.workers {
		w := &s.workers[wi]
		sort.Slice(w.crit, func(a, b int) bool { return s.before(w.crit[a], w.crit[b]) })
		w.critLeft = make([]int, sh.Iter)
		w.bwLeft = make([]int, sh.Iter)
		// 1F1B forward-ahead window: the fault-free warm-up depth plus one
		// per rerouted micro-batch this worker absorbs.
		rerouted := 0
		for k := 0; k < sh.DP; k++ {
			if k == w.w.Pipeline {
				continue
			}
			for j := 0; j < sh.MB; j++ {
				if routes[w.w.Stage][k][j] == w.w.Pipeline {
					rerouted++
				}
			}
		}
		w.window = sh.PP - w.w.Stage + rerouted
		if in.Naive {
			w.window = sh.PP - w.w.Stage
		}
		w.memCap = in.MemCap
		if in.MemCapPerStage != nil {
			w.memCap = in.MemCapPerStage[w.w.Stage]
		}
	}
	for id := range s.tasks {
		t := &s.tasks[id]
		wi, ok := s.widx[t.worker]
		if !ok {
			continue
		}
		switch {
		case t.critical:
			s.workers[wi].critLeft[t.op.Iter]++
		case t.op.Type == schedule.BWeight:
			s.workers[wi].bwLeft[t.op.Iter]++
		}
	}
	s.unplaced = len(s.tasks)
	return s
}

// group returns the optimizer barrier group of a stage's step: one per
// (iteration, stage) under the Staggered Optimizer, one per iteration
// otherwise.
func (s *state) group(iter, stage int) *optGroup {
	if s.groupsPerIter == 1 {
		stage = 0
	}
	return &s.groups[iter*s.groupsPerIter+stage]
}

// run executes the event loop to completion.
func (s *state) run() error {
	// Seed future-start hints for tasks that are ready from the start
	// (their earliest start is their release time).
	s.wake = make([]int64, len(s.workers))
	for wi := range s.wake {
		s.wake[wi] = int64(^uint64(0) >> 1)
	}
	for wi := range s.workers {
		s.wakeAt(wi, 0)
	}
	for s.events.Len() > 0 {
		e := s.events.popEvent()
		if s.wake[e.w] == e.t {
			s.wake[e.w] = int64(^uint64(0) >> 1)
		}
		for s.dispatch(e.w, e.t) {
		}
	}
	if s.unplaced != 0 {
		return fmt.Errorf("solver: deadlock with %d unplaced tasks", s.unplaced)
	}
	return nil
}

// dispatch attempts one scheduling action for worker wi at time t and
// reports whether it acted.
func (s *state) dispatch(wi int, t int64) bool {
	w := &s.workers[wi]
	if w.free > t {
		s.wakeAt(wi, w.free)
		return false
	}
	gate := s.gateIter(w)

	// 1. Ready critical op in priority order (skipping memory-blocked Fs).
	for w.critHead < len(w.crit) && s.tasks[w.crit[w.critHead]].placed {
		w.critHead++
	}
	for idx := w.critHead; idx < len(w.crit); idx++ {
		c := &s.tasks[w.crit[idx]]
		if c.placed || c.predsN > 0 {
			continue
		}
		if c.op.Iter > gate {
			break
		}
		if max(c.readyAt, c.release) > t {
			continue
		}
		if c.op.Type == schedule.F {
			if w.memCap > 0 && w.held+1 > w.memCap {
				continue // memory-blocked; a BWeight must free a slot first
			}
			if w.ahead+1 > w.window {
				continue // 1F1B window full; a backward-input must run first
			}
		}
		s.place(wi, w.crit[idx], t)
		return true
	}

	// 2. Fill the bubble with a deferred backward-weight op if it cannot
	// delay the next known critical op (Decoupled BackProp bubble filling).
	// minFuture is the earliest known start of a pending critical op on
	// this worker (from the future-heap; entries may be stale, which only
	// makes bubble filling more conservative).
	minFuture := int64(math.MaxInt64)
	for idx := w.critHead; idx < len(w.crit); idx++ {
		c := &s.tasks[w.crit[idx]]
		if c.placed || c.predsN > 0 {
			continue
		}
		if c.op.Iter > gate {
			break
		}
		if est := max(c.readyAt, c.release); est > t && est < minFuture {
			minFuture = est
		}
	}
	if len(w.bwPool) > 0 {
		id := w.bwPool[0]
		if minFuture == math.MaxInt64 || minFuture-t >= s.tasks[id].dur || s.memPressure(w) {
			w.bwPool = w.bwPool[1:]
			s.place(wi, id, t)
			return true
		}
		s.wakeAt(wi, minFuture)
		return false
	}

	// 3. Arrive at the optimizer barrier once this iteration is drained.
	if gate < len(w.critLeft) && w.critLeft[gate] == 0 && w.bwLeft[gate] == 0 && !w.arrived {
		o := &s.tasks[w.opts[w.optNext]]
		if o.predsN == 0 {
			at := t
			if o.readyAt > at {
				at = o.readyAt
			}
			s.arrive(wi, o.op.Iter, at)
			return false
		}
	}
	if minFuture < int64(^uint64(0)>>1) {
		s.wakeAt(wi, minFuture)
	}
	return false
}

// memPressure reports whether the worker is at (or beyond) its activation
// cap, in which case deferred BWeights must run to free stash space.
func (s *state) memPressure(w *workerState) bool {
	return w.memCap > 0 && w.held >= w.memCap
}

// gateIter returns the iteration the worker is allowed to execute: the
// iteration of its first unplaced optimizer step.
func (s *state) gateIter(w *workerState) int {
	if w.optNext < len(w.opts) {
		return s.tasks[w.opts[w.optNext]].op.Iter
	}
	return s.in.Shape.Iter // all optimizers placed
}

// arrive registers the worker at its optimizer barrier; when the last
// member arrives the whole group steps together (the all-reduce +
// optimizer collective).
func (s *state) arrive(wi, iter int, at int64) {
	w := &s.workers[wi]
	w.arrived = true
	g := s.group(iter, w.w.Stage)
	g.arrived++
	if at > g.arriveAt {
		g.arriveAt = at
	}
	if g.arrived < len(g.members) {
		return
	}
	start := g.arriveAt
	for _, id := range g.tasks {
		s.placeAt(id, start)
	}
	for _, mi := range g.members {
		m := &s.workers[mi]
		m.arrived = false
		m.optNext++
		s.wakeAt(mi, m.free)
	}
}

// place schedules task id on worker wi starting at t.
func (s *state) place(wi int, id taskID, t int64) {
	s.placeAt(id, t)
	s.wakeAt(wi, s.workers[wi].free)
}

// placeAt commits a task at the given start time, updates worker state and
// propagates readiness to successors. A join is committed as soon as its
// last contributor lands, at that contributor's end; it occupies no
// worker and yields no placement.
func (s *state) placeAt(id taskID, start int64) {
	c := &s.tasks[id]
	if c.placed {
		panic("solver: task placed twice")
	}
	dur := c.dur
	c.placed = true
	c.start = start
	c.end = start + dur
	s.unplaced--
	if c.join {
		s.release(c)
		return
	}
	s.placements = append(s.placements, schedule.Placement{Op: c.op, Start: c.start, End: c.end})

	wi := s.widx[c.worker]
	w := &s.workers[wi]
	if c.end > w.free {
		w.free = c.end
	}
	switch c.op.Type {
	case schedule.F:
		w.held++
		w.ahead++
	case schedule.B:
		w.held--
		w.ahead--
	case schedule.BInput:
		w.ahead--
	case schedule.BWeight:
		w.held--
	}
	switch {
	case c.critical:
		w.critLeft[c.op.Iter]--
	case c.op.Type == schedule.BWeight:
		w.bwLeft[c.op.Iter]--
	}
	s.release(c)
}

// release propagates a committed task's end to its successors, firing
// joins and waking the workers whose tasks became ready.
func (s *state) release(c *task) {
	for _, sc := range c.succs {
		n := &s.tasks[sc.id]
		if r := c.end + sc.comm; r > n.readyAt {
			n.readyAt = r
		}
		n.predsN--
		if n.predsN == 0 {
			if n.join {
				s.placeAt(sc.id, n.readyAt)
				continue
			}
			nwi, ok := s.widx[n.worker]
			if !ok {
				continue
			}
			if n.op.Type == schedule.BWeight {
				s.workers[nwi].bwPool = append(s.workers[nwi].bwPool, sc.id)
			}
			est := max(n.readyAt, n.release)
			s.wakeAt(nwi, max(est, s.workers[nwi].free))
		}
	}
}
