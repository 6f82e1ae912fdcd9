package schedule

import (
	"fmt"
	"sort"
)

// DepKind classifies one explicit dependency edge of a compiled Program.
type DepKind int8

const (
	// DepActivation is a cross-stage forward edge: the consumer's forward
	// needs the upstream stage's activation (Eq. 2). Pays Durations.Comm.
	DepActivation DepKind = iota
	// DepGradient is a cross-stage backward edge: the consumer's
	// backward-input needs the downstream stage's input gradient (Eq. 3).
	// Pays Durations.Comm.
	DepGradient
	// DepLocal is a same-worker data dependency with no transport: the
	// backward needs its own forward's activation stash, and BWeight needs
	// its BInput's saved gradients (Eq. 4).
	DepLocal
)

// String implements fmt.Stringer.
func (k DepKind) String() string {
	switch k {
	case DepActivation:
		return "act"
	case DepGradient:
		return "grad"
	case DepLocal:
		return "local"
	default:
		return fmt.Sprintf("DepKind(%d)", int8(k))
	}
}

// Dep is one incoming edge of an instruction: the producing instruction's
// index and the edge kind (which decides whether communication latency is
// charged on top of the producer's completion).
type Dep struct {
	From int
	Kind DepKind
}

// JoinRef names one all-reduce join of a Program: its position in
// Program.Joins plus one, so the zero value means "no join". It is a type
// of its own, not an int, so a join can never be read as an instruction ID
// (every Dep.From names an instruction).
type JoinRef int32

// Index returns the join's position in Program.Joins, -1 for no join.
func (r JoinRef) Index() int { return int(r) - 1 }

// Join is the gradient all-reduce of one (iteration, stage): a
// zero-duration rendezvous that completes when the last of its
// contributors — every weight gradient (BWeight, or coupled B) of the
// stage and iteration, on whichever peer computed it — has finished. Each
// optimizer of the stage waits on the join instead of on every
// contributor, so the all-reduce costs O(DP·MB) per stage, not
// O(DP²·MB).
type Join struct {
	Iter, Stage int
	// Contribs lists the contributing instruction IDs.
	Contribs []int
}

// Instr is one instruction of a compiled Program: an op plus its explicit
// dependency edges. Same-worker program order is NOT encoded as edges — it
// is implicit in the worker's stream — so Deps carry only data
// dependencies, and an optimizer's all-reduce barrier is its Join.
type Instr struct {
	ID   int
	Op   Op
	Deps []Dep
	// Join is the all-reduce join an optimizer waits on. It is zero on
	// every other instruction, and on optimizers of a spliced Program's
	// frozen prefix, whose step already ran.
	Join JoinRef
	// Dur is the modeled duration of this instruction, stamped by Compile
	// from the schedule's placement span (End - Start). Under a
	// heterogeneous cost model this is the per-(stage, op, worker) number
	// the solver optimized against; both executors read it through
	// Program.DurOf, so the runtime's dep board and the discrete-event
	// simulator consume exactly the durations the plan was solved with.
	// Zero means "not stamped" (hand-assembled programs) and falls back to
	// the homogeneous Durations.
	Dur int64
}

// Program is the executable form of a Schedule: per-worker instruction
// streams plus an explicit dependency graph. It is the single artifact both
// executors consume — internal/dtrain interprets it with real tensors and
// goroutines, internal/sim executes it in virtual time — so op ordering is
// decided here, once, and nowhere else.
type Program struct {
	Shape     Shape
	Durations Durations
	Failed    map[Worker]bool
	// Instrs holds every instruction, indexed by ID, in the schedule's
	// canonical global order.
	Instrs []Instr
	// Joins holds the all-reduce joins optimizers reference, at most one
	// per (iteration, stage).
	Joins []Join
	// Streams maps each worker to the IDs it executes, in execution order
	// (the schedule's start order for that worker).
	Streams map[Worker][]int

	workers []Worker
}

// JoinAt returns the join r names; r must be non-zero.
func (p *Program) JoinAt(r JoinRef) *Join { return &p.Joins[r.Index()] }

// ContribJoins returns, per instruction, the join it contributes to (zero
// for non-contributors): the inverse of the joins' contributor lists, in
// one pass. Executors count a join down as its contributors complete
// rather than rescanning contributors per optimizer.
func (p *Program) ContribJoins() []JoinRef {
	of := make([]JoinRef, len(p.Instrs))
	for j := range p.Joins {
		for _, c := range p.Joins[j].Contribs {
			of[c] = JoinRef(j + 1)
		}
	}
	return of
}

// JoinCounter resolves a Program's joins during an execution: a per-join
// countdown of unfinished contributors, with the latest contributor end
// and the contributor that set it (ties go to the lower instruction ID,
// so every executor names the same one whatever order posts arrive in).
// Each contributor is counted exactly once, so a join's completion time is
// computed once, not per waiting optimizer. Not safe for concurrent use.
type JoinCounter struct {
	of    []JoinRef
	state []joinState
}

// joinState is one join's countdown: contributors still unposted, and the
// latest posted end with the contributor that set it.
type joinState struct {
	left int
	at   int64
	by   int
}

// NewJoinCounter arms one countdown per join of p.
func NewJoinCounter(p *Program) *JoinCounter {
	c := &JoinCounter{of: p.ContribJoins(), state: make([]joinState, len(p.Joins))}
	for j := range p.Joins {
		c.state[j] = joinState{left: len(p.Joins[j].Contribs), by: -1}
	}
	return c
}

// Post records instruction id finishing at end; the caller posts each
// instruction at most once.
func (c *JoinCounter) Post(id int, end int64) {
	r := c.of[id]
	if r == 0 {
		return
	}
	js := &c.state[r.Index()]
	js.left--
	if js.by < 0 || end > js.at || (end == js.at && id < js.by) {
		js.at, js.by = end, id
	}
}

// Fired reports whether every contributor of join r has posted, and if
// so the join's completion time (its latest contributor's end) and that
// binding contributor (-1 for a join without contributors).
func (c *JoinCounter) Fired(r JoinRef) (at int64, by int, ok bool) {
	js := c.state[r.Index()]
	if js.left > 0 {
		return 0, -1, false
	}
	return js.at, js.by, true
}

// Workers returns every worker with a non-empty stream in (pipeline, stage)
// order. Compiled programs carry a precomputed list; hand-assembled ones
// (tests, fuzzing) derive it from the streams on each call.
func (p *Program) Workers() []Worker {
	if p.workers != nil {
		return p.workers
	}
	return sortedWorkers(p.Streams)
}

// sortedWorkers lists the stream keys in (pipeline, stage) order.
func sortedWorkers(streams map[Worker][]int) []Worker {
	ws := make([]Worker, 0, len(streams))
	for w := range streams {
		ws = append(ws, w)
	}
	sort.Slice(ws, func(i, j int) bool {
		if ws[i].Pipeline != ws[j].Pipeline {
			return ws[i].Pipeline < ws[j].Pipeline
		}
		return ws[i].Stage < ws[j].Stage
	})
	return ws
}

// EdgeLatency returns the transport latency charged on an edge kind under
// the given duration set: cross-stage activation/gradient sends pay Comm,
// local edges (and all-reduce joins) are free. The rule lives on Durations — not on
// Program — so an executor substituting its own durations (the simulator's
// ProgramOptions.Durations) charges edges by the same single rule the
// runtime uses.
func (d Durations) EdgeLatency(k DepKind) int64 {
	if k == DepActivation || k == DepGradient {
		return d.Comm
	}
	return 0
}

// EdgeLatency returns the transport latency charged on an edge kind under
// the program's own durations.
func (p *Program) EdgeLatency(k DepKind) int64 { return p.Durations.EdgeLatency(k) }

// DurOf returns the modeled duration of instruction id: the stamped
// per-instruction duration when the program was compiled from a timed
// schedule, falling back to the homogeneous per-op-type Durations for
// hand-assembled programs. This is the single duration rule shared by the
// live runtime's dep board and the discrete-event simulator.
func (p *Program) DurOf(id int) int64 {
	if d := p.Instrs[id].Dur; d > 0 {
		return d
	}
	return p.Durations.Of(p.Instrs[id].Op.Type)
}

// Compile lowers a schedule into a Program. Every placement becomes one
// instruction; cross-stage activation/gradient edges and same-worker data
// dependencies are made explicit, and each (iteration, stage) gets one
// all-reduce join its optimizers wait on. The schedule must be complete
// (every op of every micro-batch placed exactly once); Compile reports
// schedules it cannot lower.
func Compile(s *Schedule) (*Program, error) { return CompileFrozen(s, 0) }

// CompileFrozen lowers a spliced schedule whose executed prefix is frozen:
// placements ending at or before frozenBefore already ran pre-event, so no
// dependency edges or joins are attached to them — their inputs were
// consumed in the pre-splice timeline, and a producer they historically
// read from may be re-placed after the cut (to re-materialize state a
// victim lost), which would otherwise put a back-edge into the past and a
// spurious cycle into the graph. Executors never consult a frozen
// instruction's edges — the prefix is installed as done — so only dead
// edges are dropped. frozenBefore <= 0 compiles normally.
func CompileFrozen(s *Schedule, frozenBefore int64) (*Program, error) {
	if s == nil {
		return nil, fmt.Errorf("schedule: cannot compile a nil schedule")
	}
	sh := s.Shape
	if err := sh.Validate(); err != nil {
		return nil, err
	}
	p := &Program{
		Shape:     sh,
		Durations: s.Durations,
		Failed:    s.Failed,
		Instrs:    make([]Instr, len(s.Placements)),
		Streams:   make(map[Worker][]int),
	}
	// First pass: materialize instructions in the schedule's canonical
	// order and index the producers of every data dependency in dense
	// (iter, stage, home, mb) tables.
	mbIdx := func(iter, stage, home, mb int) int { return ((iter*sh.PP+stage)*sh.DP+home)*sh.MB + mb }
	nMB := sh.Iter * sh.PP * sh.DP * sh.MB
	if nMB > len(s.Placements) {
		// A complete schedule places at least a forward per micro-batch
		// and stage; checking first keeps the tables sized by the input.
		return nil, fmt.Errorf("schedule: compile: %d placements cannot cover shape %+v", len(s.Placements), sh)
	}
	fID, biID, bwID := filled(nMB, -1), filled(nMB, -1), filled(nMB, -1) // biID: BInput or coupled B; bwID: BWeight or coupled B
	optAt := filled(sh.Iter*sh.PP*sh.DP, -1)                             // (iter, stage, exec) -> Optimizer id
	contribs := make([][]int, sh.Iter*sh.PP)                             // (iter, stage) -> BWeight/B ids
	claim := func(tab []int, k, i int, what string, op Op) error {
		if prev := tab[k]; prev >= 0 {
			return fmt.Errorf("schedule: compile: duplicate %s for %s (instr %d and %d)", what, op, prev, i)
		}
		tab[k] = i
		return nil
	}
	for i, pl := range s.Placements {
		op := pl.Op
		if err := sh.checkOp(op); err != nil {
			return nil, fmt.Errorf("schedule: compile: %w", err)
		}
		p.Instrs[i] = Instr{ID: i, Op: op, Dur: pl.End - pl.Start}
		w := op.Worker()
		p.Streams[w] = append(p.Streams[w], i)
		si := op.Iter*sh.PP + op.Stage
		var err error
		switch op.Type {
		case F:
			err = claim(fID, mbIdx(op.Iter, op.Stage, op.Home, op.MB), i, "F", op)
		case B:
			k := mbIdx(op.Iter, op.Stage, op.Home, op.MB)
			if err = claim(biID, k, i, "backward", op); err == nil {
				err = claim(bwID, k, i, "weight gradient", op)
			}
			contribs[si] = append(contribs[si], i)
		case BInput:
			err = claim(biID, mbIdx(op.Iter, op.Stage, op.Home, op.MB), i, "BInput", op)
		case BWeight:
			err = claim(bwID, mbIdx(op.Iter, op.Stage, op.Home, op.MB), i, "BWeight", op)
			contribs[si] = append(contribs[si], i)
		case Optimizer:
			err = claim(optAt, si*sh.DP+op.Exec, i, "optimizer", op)
		}
		if err != nil {
			return nil, err
		}
	}
	// Second pass: attach the explicit dependency edges and joins.
	joinOf := make([]JoinRef, sh.Iter*sh.PP)
	for i := range p.Instrs {
		if frozenBefore > 0 && s.Placements[i].End <= frozenBefore {
			continue // frozen prefix: executed pre-event, edges are dead
		}
		op := p.Instrs[i].Op
		k := mbIdx(op.Iter, op.Stage, op.Home, op.MB)
		need := func(tab []int, k int, kind DepKind, what string) error {
			if tab[k] < 0 {
				return fmt.Errorf("schedule: compile: %s has no %s", op, what)
			}
			p.Instrs[i].Deps = append(p.Instrs[i].Deps, Dep{From: tab[k], Kind: kind})
			return nil
		}
		var err error
		switch op.Type {
		case F:
			if op.Stage > 0 {
				err = need(fID, mbIdx(op.Iter, op.Stage-1, op.Home, op.MB), DepActivation, "upstream forward")
			}
		case B, BInput:
			err = need(fID, k, DepLocal, "forward")
			if err == nil && op.Stage < sh.PP-1 {
				err = need(biID, mbIdx(op.Iter, op.Stage+1, op.Home, op.MB), DepGradient, "downstream backward")
			}
		case BWeight:
			err = need(biID, k, DepLocal, "backward-input")
		case Optimizer:
			// The per-stage gradient all-reduce: every weight gradient of
			// this stage and iteration — including rerouted ones computed on
			// peers — gates every peer's step. A complete schedule carries
			// exactly DP*MB of them; fewer means a weight gradient is
			// missing and the barrier would silently weaken.
			si := op.Iter*sh.PP + op.Stage
			if joinOf[si] == 0 {
				if got, want := len(contribs[si]), sh.DP*sh.MB; got != want {
					return nil, fmt.Errorf("schedule: compile: %s gates on %d weight gradients, want %d", op, got, want)
				}
				p.Joins = append(p.Joins, Join{Iter: op.Iter, Stage: op.Stage, Contribs: contribs[si]})
				joinOf[si] = JoinRef(len(p.Joins))
			}
			p.Instrs[i].Join = joinOf[si]
		}
		if err != nil {
			return nil, err
		}
	}
	p.workers = sortedWorkers(p.Streams)
	if err := p.Validate(); err != nil {
		return nil, err
	}
	return p, nil
}

// filled returns a slice of n copies of v.
func filled(n, v int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = v
	}
	return out
}

// checkOp reports an op that does not fit the shape: an unknown op type,
// or a stage, micro-batch, home pipeline, executing pipeline or iteration
// out of range. Optimizer steps belong to no micro-batch and carry MB -1.
func (sh Shape) checkOp(op Op) error {
	if op.Type < F || op.Type > Optimizer {
		return fmt.Errorf("op %s has unknown type", op)
	}
	mbOK := op.MB >= 0 && op.MB < sh.MB
	if op.Type == Optimizer {
		mbOK = op.MB == -1
	}
	if op.Stage < 0 || op.Stage >= sh.PP || !mbOK || op.Home < 0 || op.Home >= sh.DP ||
		op.Exec < 0 || op.Exec >= sh.DP || op.Iter < 0 || op.Iter >= sh.Iter {
		return fmt.Errorf("op %s (MB %d) lies outside shape %+v", op, op.MB, sh)
	}
	return nil
}

// Validate checks the Program's structural invariants in time linear in
// its size: every op fits the shape with a non-negative duration, every
// edge points at an existing instruction and relates ops the way its kind
// claims (edge consistency), every join gathers exactly the DP·MB weight
// gradients of its (iteration, stage) once each and gates only that
// stage's optimizers, streams partition the instruction set, and the
// graph formed by dependency edges, joins and same-worker stream order
// admits a topological order (deadlock-freedom — an executor that runs
// streams in order and blocks on edges can always make progress).
func (p *Program) Validate() error {
	sh := p.Shape
	if err := sh.Validate(); err != nil {
		return fmt.Errorf("schedule: program: %w", err)
	}
	n := len(p.Instrs)
	seen := make([]bool, n)
	for w, stream := range p.Streams {
		for _, id := range stream {
			if id < 0 || id >= n {
				return fmt.Errorf("schedule: program: stream of %s references instruction %d outside [0,%d)", w, id, n)
			}
			if seen[id] {
				return fmt.Errorf("schedule: program: instruction %d appears in two streams", id)
			}
			seen[id] = true
			if got := p.Instrs[id].Op.Worker(); got != w {
				return fmt.Errorf("schedule: program: instruction %d (%s) filed under worker %s", id, p.Instrs[id].Op, w)
			}
		}
	}
	for i := range seen {
		if !seen[i] {
			return fmt.Errorf("schedule: program: instruction %d (%s) is in no stream", i, p.Instrs[i].Op)
		}
	}
	gates := make([]bool, len(p.Joins)) // join gates at least one optimizer
	for i := range p.Instrs {
		ins := &p.Instrs[i]
		to := ins.Op
		if err := sh.checkOp(to); err != nil {
			return fmt.Errorf("schedule: program: instruction %d: %w", i, err)
		}
		if ins.Dur < 0 {
			return fmt.Errorf("schedule: program: instruction %d (%s) has negative duration %d", i, to, ins.Dur)
		}
		for _, d := range ins.Deps {
			if d.From < 0 || d.From >= n {
				return fmt.Errorf("schedule: program: instruction %d depends on %d outside [0,%d)", i, d.From, n)
			}
			from := p.Instrs[d.From].Op
			if err := checkEdge(from, to, d.Kind); err != nil {
				return fmt.Errorf("schedule: program: edge %d->%d: %w", d.From, i, err)
			}
		}
		if ins.Join == 0 {
			continue
		}
		if j := ins.Join.Index(); j < 0 || j >= len(p.Joins) {
			return fmt.Errorf("schedule: program: instruction %d references join %d outside [1,%d]", i, ins.Join, len(p.Joins))
		}
		jn := p.JoinAt(ins.Join)
		if to.Type != Optimizer || to.Iter != jn.Iter || to.Stage != jn.Stage {
			return fmt.Errorf("schedule: program: %s cannot wait on the all-reduce join of iteration %d stage %d", to, jn.Iter, jn.Stage)
		}
		gates[ins.Join.Index()] = true
	}
	joined := make(map[[2]int]bool, len(p.Joins)) // sized by the input, not the shape
	contributed := make([]bool, n)
	for j := range p.Joins {
		jn := &p.Joins[j]
		if jn.Iter < 0 || jn.Iter >= sh.Iter || jn.Stage < 0 || jn.Stage >= sh.PP {
			return fmt.Errorf("schedule: program: join %d (iteration %d stage %d) lies outside shape %+v", j+1, jn.Iter, jn.Stage, sh)
		}
		if si := [2]int{jn.Iter, jn.Stage}; joined[si] {
			return fmt.Errorf("schedule: program: two joins for iteration %d stage %d", jn.Iter, jn.Stage)
		} else {
			joined[si] = true
		}
		if !gates[j] {
			return fmt.Errorf("schedule: program: join %d gates no optimizer", j+1)
		}
		if got, want := len(jn.Contribs), sh.DP*sh.MB; got != want {
			return fmt.Errorf("schedule: program: join %d gathers %d weight gradients, want %d", j+1, got, want)
		}
		for _, c := range jn.Contribs {
			if c < 0 || c >= n {
				return fmt.Errorf("schedule: program: join %d contributor %d outside [0,%d)", j+1, c, n)
			}
			if contributed[c] {
				return fmt.Errorf("schedule: program: instruction %d contributes to a join twice", c)
			}
			contributed[c] = true
			op := p.Instrs[c].Op
			if (op.Type != BWeight && op.Type != B) || op.Iter != jn.Iter || op.Stage != jn.Stage {
				return fmt.Errorf("schedule: program: join %d (iteration %d stage %d) gathers %s, not one of its weight gradients", j+1, jn.Iter, jn.Stage, op)
			}
		}
	}
	return p.checkAcyclic()
}

// checkEdge verifies one edge relates the ops its kind claims.
func checkEdge(from, to Op, k DepKind) error {
	sameMB := from.Iter == to.Iter && from.MB == to.MB && from.Home == to.Home
	switch k {
	case DepActivation:
		if from.Type != F || to.Type != F || !sameMB || from.Stage != to.Stage-1 {
			return fmt.Errorf("activation edge must link F(i-1) to F(i) of one micro-batch: %s -> %s", from, to)
		}
	case DepGradient:
		if (from.Type != B && from.Type != BInput) || (to.Type != B && to.Type != BInput) || !sameMB || from.Stage != to.Stage+1 {
			return fmt.Errorf("gradient edge must link backward(i+1) to backward(i) of one micro-batch: %s -> %s", from, to)
		}
	case DepLocal:
		if from.Worker() != to.Worker() || !sameMB || from.Stage != to.Stage {
			return fmt.Errorf("local edge must stay on one worker and micro-batch: %s -> %s", from, to)
		}
	default:
		return fmt.Errorf("unknown edge kind %v", k)
	}
	return nil
}

// checkAcyclic runs Kahn's algorithm over dependency edges, the joins
// (nodes n.. after the instructions: contributor -> join -> optimizer) and
// implicit same-worker stream edges.
func (p *Program) checkAcyclic() error {
	n := len(p.Instrs)
	nodes := n + len(p.Joins)
	indeg := make([]int, nodes)
	succs := make([][]int, nodes)
	edge := func(from, to int) {
		succs[from] = append(succs[from], to)
		indeg[to]++
	}
	for i := range p.Instrs {
		for _, d := range p.Instrs[i].Deps {
			edge(d.From, i)
		}
		if r := p.Instrs[i].Join; r != 0 {
			edge(n+r.Index(), i)
		}
	}
	for j := range p.Joins {
		for _, c := range p.Joins[j].Contribs {
			edge(c, n+j)
		}
	}
	for _, stream := range p.Streams {
		for j := 1; j < len(stream); j++ {
			edge(stream[j-1], stream[j])
		}
	}
	queue := make([]int, 0, nodes)
	for i, d := range indeg {
		if d == 0 {
			queue = append(queue, i)
		}
	}
	done := 0
	for len(queue) > 0 {
		i := queue[len(queue)-1]
		queue = queue[:len(queue)-1]
		done++
		for _, s := range succs[i] {
			indeg[s]--
			if indeg[s] == 0 {
				queue = append(queue, s)
			}
		}
	}
	if done != nodes {
		return fmt.Errorf("schedule: program deadlocks: %d of %d instructions and joins are on a dependency cycle", nodes-done, nodes)
	}
	return nil
}

// OpCount returns the number of instructions of the given type (t < 0
// counts all).
func (p *Program) OpCount(t OpType) int {
	n := 0
	for i := range p.Instrs {
		if t < 0 || p.Instrs[i].Op.Type == t {
			n++
		}
	}
	return n
}
