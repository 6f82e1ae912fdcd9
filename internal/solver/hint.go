package solver

import (
	"slices"
	"sort"

	"recycle/internal/schedule"
)

// Hint carries one solved instance forward as a warm start for a
// neighboring solve: the schedule, the routing table it was solved under,
// and the toggles/caps that shaped its task graph. Solve emits a self-hint
// for every schedule it produces (SolveInfo.Hint); planners thread the
// previous plan's hint into the next solve of the same failure
// configuration — a cache invalidation, a cost-model recalibration — so
// re-solving degrades from a full graph build + dispatch to a validation
// or replay pass.
type Hint struct {
	// Schedule is the solved schedule of the hint's instance.
	Schedule *schedule.Schedule
	// Routes is the [stage][home][mb] exec-pipeline table the hint's solve
	// routed with. A warm start is only sound when the new input routes
	// identically — the routing determines the task graph's op set.
	Routes [][][]int
	// Solver toggles and memory caps of the hint's instance; any mismatch
	// with the new input voids the hint.
	Decoupled, Staggered, Naive bool
	MemCap                      int
	MemCapPerStage              []int
}

// SolveKind labels how a solve derived its schedule.
type SolveKind uint8

const (
	// KindScratch: full graph build and priority-driven dispatch (no
	// usable hint, or the hint's replay did not beat the scratch result).
	KindScratch SolveKind = iota
	// KindWarmIdentical: the hint solved the identical instance; its
	// schedule was validated against the new input (routes, flags, every
	// placement duration) and returned unchanged.
	KindWarmIdentical
	// KindWarmReplay: durations drifted by one uniform factor with the
	// routing held; replaying the hint's per-worker op order under the new
	// durations matched or beat the scratch dispatch's makespan.
	KindWarmReplay
)

func (k SolveKind) String() string {
	switch k {
	case KindWarmIdentical:
		return "warm-identical"
	case KindWarmReplay:
		return "warm-replay"
	default:
		return "scratch"
	}
}

// SolveInfo reports how a solve was derived. Hint is the self-hint
// describing the returned schedule's own instance, ready to warm-start the
// next neighboring solve.
type SolveInfo struct {
	Kind SolveKind
	Hint *Hint
}

// selfHint packages a finished solve as a warm-start hint.
func selfHint(in Input, routes [][][]int, s *schedule.Schedule) *Hint {
	return &Hint{
		Schedule:       s,
		Routes:         routes,
		Decoupled:      in.Decoupled,
		Staggered:      in.Staggered,
		Naive:          in.Naive,
		MemCap:         in.MemCap,
		MemCapPerStage: slices.Clone(in.MemCapPerStage),
	}
}

// compatible reports whether the hint describes an instance with the same
// task graph as the input: same shape, same failed set, same toggles and
// caps, and the same routing table. Durations may still differ — that is
// what separates the identical fast path from the replay path.
func (h *Hint) compatible(in Input, routes [][][]int) bool {
	if h == nil || h.Schedule == nil {
		return false
	}
	if h.Schedule.Shape != in.Shape ||
		h.Decoupled != in.Decoupled || h.Staggered != in.Staggered || h.Naive != in.Naive ||
		h.MemCap != in.MemCap || !slices.Equal(h.MemCapPerStage, in.MemCapPerStage) {
		return false
	}
	inFailed := 0
	for w, v := range in.Failed {
		if !v {
			continue
		}
		inFailed++
		if !h.Schedule.Failed[w] {
			return false
		}
	}
	hintFailed := 0
	for _, v := range h.Schedule.Failed {
		if v {
			hintFailed++
		}
	}
	if inFailed != hintFailed {
		return false
	}
	if len(h.Routes) != len(routes) {
		return false
	}
	for i := range routes {
		if len(h.Routes[i]) != len(routes[i]) {
			return false
		}
		for k := range routes[i] {
			if !slices.Equal(h.Routes[i][k], routes[i][k]) {
				return false
			}
		}
	}
	return true
}

// durationsMatch verifies that the hint schedule is timed exactly as the
// new input would time it: every placement spans precisely the duration
// the input's cost model assigns its executor. Together with compatible
// (and equal base Durations, which pin the comm latency and the skeleton
// priorities), this certifies the instance identical — and the solver is
// deterministic, so the hint schedule IS the scratch result.
func (h *Hint) durationsMatch(in Input) bool {
	for _, p := range h.Schedule.Placements {
		if p.End-p.Start != in.dur(p.Op.Worker(), p.Op.Type) {
			return false
		}
	}
	return true
}

// uniformRescale reports whether the input re-times every op of the
// hint's schedule by one global factor. Under a uniform rescale the hint's
// op order is provably still optimal-relative-to-scratch (every start time
// scales together), so a replay is worth racing; under any other drift the
// relative op costs changed, replay almost never wins, and attempting it
// only taxes the solve — the warm path abandons the hint immediately and
// falls through to scratch. The ratio test cross-multiplies, so
// fractional factors need no floating point.
func (h *Hint) uniformRescale(in Input) bool {
	var num, den int64
	for _, p := range h.Schedule.Placements {
		hd := p.End - p.Start
		nd := in.dur(p.Op.Worker(), p.Op.Type)
		if hd == 0 && nd == 0 {
			continue
		}
		if hd == 0 || nd == 0 {
			return false
		}
		if den == 0 {
			num, den = nd, hd
			continue
		}
		if nd*den != num*hd {
			return false
		}
	}
	return true
}

// replayOrder re-times the hint's per-worker op order under the state's
// own task durations: a list-scheduling pass with the dispatch order fixed
// by the hint instead of derived from priorities. Order preservation keeps
// every structural constraint intact — dependencies are re-derived from
// the state's graph, and per-worker memory/window feasibility follows from
// the hint's own feasibility since both depend only on the op order. The
// pass never mutates the state; ok=false means the hint does not cover the
// task graph or its order is cyclic, and the caller falls back to the
// scratch dispatch untouched.
func (s *state) replayOrder(hs *schedule.Schedule) (out []schedule.Placement, ok bool) {
	n := len(s.tasks)
	ops := n - s.joins
	if len(hs.Placements) != ops {
		return nil, false
	}
	hstart := make([]int64, n)
	for id := range s.tasks {
		if s.tasks[id].join {
			continue
		}
		p, found := hs.At(s.tasks[id].op)
		if !found {
			return nil, false
		}
		hstart[id] = p.Start
	}

	// Per-worker op order: hint start time, with (iteration, skeleton
	// priority) breaking zero-duration ties deterministically.
	seq := make([][]taskID, len(s.workers))
	for id := range s.tasks {
		if s.tasks[id].join {
			continue
		}
		wi, found := s.widx[s.tasks[id].worker]
		if !found {
			return nil, false
		}
		seq[wi] = append(seq[wi], taskID(id))
	}
	for wi := range seq {
		ids := seq[wi]
		sort.Slice(ids, func(a, b int) bool {
			x, y := ids[a], ids[b]
			if hstart[x] != hstart[y] {
				return hstart[x] < hstart[y]
			}
			tx, ty := &s.tasks[x], &s.tasks[y]
			if tx.op.Iter != ty.op.Iter {
				return tx.op.Iter < ty.op.Iter
			}
			return tx.pos < ty.pos
		})
	}

	// Kahn over the dependency graph joined with the per-worker chains;
	// optimizer barrier groups step together at their members' latest
	// arrival, exactly like the live dispatch.
	depLeft := make([]int32, n)
	for id := range s.tasks {
		depLeft[id] = s.tasks[id].predsN
	}
	readyAt := make([]int64, n)
	wfree := make([]int64, len(s.workers))
	chain := make([]int, len(s.workers))
	processed := make([]bool, n)
	gOf := make(map[taskID]*optGroup, len(s.workers)*s.in.Shape.Iter)
	type groupProg struct {
		arrive  int64
		arrived int
	}
	gprog := make(map[*optGroup]*groupProg, len(s.groups))
	for gi := range s.groups {
		g := &s.groups[gi]
		for _, id := range g.tasks {
			gOf[id] = g
		}
	}
	out = make([]schedule.Placement, 0, ops)
	var queue []taskID
	push := func(wi int) {
		if chain[wi] < len(seq[wi]) {
			if id := seq[wi][chain[wi]]; depLeft[id] == 0 && !processed[id] {
				queue = append(queue, id)
			}
		}
	}
	// finish commits a task and releases its successors; a join fires as
	// its last contributor finishes, occupying no worker.
	var finish func(id taskID, start int64)
	finish = func(id taskID, start int64) {
		t := &s.tasks[id]
		end := start + t.dur
		wi := -1
		if !t.join {
			out = append(out, schedule.Placement{Op: t.op, Start: start, End: end})
			wi = s.widx[t.worker]
			if end > wfree[wi] {
				wfree[wi] = end
			}
			chain[wi]++
		}
		for _, sc := range t.succs {
			if r := end + sc.comm; r > readyAt[sc.id] {
				readyAt[sc.id] = r
			}
			depLeft[sc.id]--
			if depLeft[sc.id] == 0 {
				if s.tasks[sc.id].join {
					finish(sc.id, readyAt[sc.id])
					continue
				}
				push(s.widx[s.tasks[sc.id].worker])
			}
		}
		if wi >= 0 {
			push(wi)
		}
	}
	for wi := range seq {
		push(wi)
	}
	for len(queue) > 0 {
		id := queue[len(queue)-1]
		queue = queue[:len(queue)-1]
		if processed[id] {
			continue
		}
		t := &s.tasks[id]
		wi := s.widx[t.worker]
		if chain[wi] >= len(seq[wi]) || seq[wi][chain[wi]] != id || depLeft[id] != 0 {
			continue // stale queue entry
		}
		processed[id] = true
		if t.op.Type == schedule.Optimizer {
			g := gOf[id]
			gp := gprog[g]
			if gp == nil {
				gp = &groupProg{}
				gprog[g] = gp
			}
			at := max(readyAt[id], wfree[wi])
			if at > gp.arrive {
				gp.arrive = at
			}
			gp.arrived++
			if gp.arrived == len(g.tasks) {
				for _, oid := range g.tasks {
					finish(oid, gp.arrive)
				}
			}
			continue
		}
		finish(id, max(readyAt[id], t.release, wfree[wi]))
	}
	if len(out) != ops {
		return nil, false // cyclic order or barrier deadlock — fall back
	}
	return out, true
}

// horizon is the total span of a placement list (optimizer included) — the
// metric warm replay must beat for its candidate to replace scratch.
func horizon(ps []schedule.Placement) int64 {
	var h int64
	for _, p := range ps {
		if p.End > h {
			h = p.End
		}
	}
	return h
}
