package schedule

import (
	"strings"
	"testing"
	"testing/quick"
)

// TestCompileFaultFree1F1B checks the lowering of the running example's
// fault-free schedule: one instruction per placement, per-worker streams in
// start order, and the expected edge structure.
func TestCompileFaultFree1F1B(t *testing.T) {
	shape := Shape{DP: 3, PP: 4, MB: 6, Iter: 1}
	s := FaultFree1F1B(shape, UnitSlots)
	p, err := Compile(s)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := len(p.Instrs), len(s.Placements); got != want {
		t.Fatalf("program has %d instructions, schedule has %d placements", got, want)
	}
	if got, want := len(p.Workers()), shape.DP*shape.PP; got != want {
		t.Fatalf("program has %d workers, want %d", got, want)
	}
	// Streams preserve the schedule's per-worker start order.
	for _, w := range p.Workers() {
		ps := s.Worker(w)
		stream := p.Streams[w]
		if len(stream) != len(ps) {
			t.Fatalf("worker %s stream has %d instructions, schedule has %d placements", w, len(stream), len(ps))
		}
		for i, id := range stream {
			if p.Instrs[id].Op != ps[i].Op {
				t.Fatalf("worker %s stream[%d] = %s, schedule has %s", w, i, p.Instrs[id].Op, ps[i].Op)
			}
		}
	}
	// A stage-0 forward has no data deps; a stage-i>0 forward has exactly
	// one activation edge; each optimizer has no edges and exactly one
	// join, which gathers every weight gradient of its stage.
	for _, ins := range p.Instrs {
		switch ins.Op.Type {
		case F:
			want := 0
			if ins.Op.Stage > 0 {
				want = 1
			}
			if len(ins.Deps) != want {
				t.Fatalf("%s has %d deps, want %d", ins.Op, len(ins.Deps), want)
			}
		case Optimizer:
			if len(ins.Deps) != 0 || ins.Join == 0 {
				t.Fatalf("%s has %d deps and join %d, want no deps and one join", ins.Op, len(ins.Deps), ins.Join)
			}
			if got, want := len(p.JoinAt(ins.Join).Contribs), shape.DP*shape.MB; got != want {
				t.Fatalf("%s joins %d weight gradients, want %d", ins.Op, got, want)
			}
		}
	}
}

// TestCompileRejectsIncompleteSchedule checks that a schedule with a
// missing producer cannot be lowered.
func TestCompileRejectsIncompleteSchedule(t *testing.T) {
	shape := Shape{DP: 1, PP: 2, MB: 1, Iter: 1}
	// A backward at stage 0 with no forward anywhere.
	ps := []Placement{
		{Op: Op{Stage: 0, MB: 0, Home: 0, Exec: 0, Type: B, Iter: 0}, Start: 0, End: 2},
	}
	if _, err := Compile(New(shape, UnitSlots, nil, ps)); err == nil {
		t.Fatal("compiling a schedule with a missing forward should fail")
	}
}

// TestCompileRejectsDuplicateAndMissingWeightGradients checks the
// all-reduce completeness guard: a duplicated BWeight and a missing one
// must both fail to compile (either would silently distort the optimizer
// barrier the gradient all-reduce depends on).
func TestCompileRejectsDuplicateAndMissingWeightGradients(t *testing.T) {
	shape := Shape{DP: 1, PP: 1, MB: 2, Iter: 1}
	base := FaultFree1F1B(shape, UnitSlots)

	// Duplicate: re-add the first coupled backward as a stray BWeight.
	var dup []Placement
	dup = append(dup, base.Placements...)
	for _, pl := range base.Placements {
		if pl.Op.Type == B {
			extra := pl
			extra.Op.Type = BWeight
			extra.Start, extra.End = pl.End, pl.End+UnitSlots.BWeight
			dup = append(dup, extra)
			break
		}
	}
	if _, err := Compile(New(shape, UnitSlots, nil, dup)); err == nil {
		t.Fatal("compiling a schedule with a duplicate weight gradient should fail")
	}

	// Missing: drop one backward entirely; the optimizer then gates on
	// fewer weight gradients than the shape requires.
	var missing []Placement
	dropped := false
	for _, pl := range base.Placements {
		if !dropped && pl.Op.Type == B {
			dropped = true
			continue
		}
		missing = append(missing, pl)
	}
	if _, err := Compile(New(shape, UnitSlots, nil, missing)); err == nil {
		t.Fatal("compiling a schedule with a missing weight gradient should fail")
	}
}

// TestValidateCatchesCycle checks deadlock detection on a hand-built
// program whose edges form a cycle.
func TestValidateCatchesCycle(t *testing.T) {
	w := Worker{Stage: 0, Pipeline: 0}
	op := func(mb int, t OpType) Op { return Op{Stage: 0, MB: mb, Home: 0, Exec: 0, Type: t} }
	p := &Program{
		Shape:     Shape{DP: 1, PP: 1, MB: 2, Iter: 1},
		Durations: UnitSlots,
		Instrs: []Instr{
			{ID: 0, Op: op(0, F), Deps: []Dep{{From: 1, Kind: DepLocal}}},
			{ID: 1, Op: op(0, B), Deps: []Dep{{From: 0, Kind: DepLocal}}},
		},
		Streams: map[Worker][]int{w: {0, 1}},
	}
	if err := p.Validate(); err == nil {
		t.Fatal("a cyclic program should fail validation")
	}
}

// TestValidateCatchesBadEdge checks edge-consistency validation.
func TestValidateCatchesBadEdge(t *testing.T) {
	shape := Shape{DP: 2, PP: 2, MB: 2, Iter: 1}
	s := FaultFree1F1B(shape, UnitSlots)
	p, err := Compile(s)
	if err != nil {
		t.Fatal(err)
	}
	// Corrupt one gradient/activation edge to point at an unrelated op.
	for i := range p.Instrs {
		if p.Instrs[i].Op.Type == F && p.Instrs[i].Op.Stage == 1 {
			p.Instrs[i].Deps[0].From = i // self-edge: wrong producer type
			break
		}
	}
	if err := p.Validate(); err == nil {
		t.Fatal("a mis-wired activation edge should fail validation")
	}
}

// quickShape is a randomized-but-valid schedule shape for the property
// test; testing/quick fills the seeds and the derivation keeps them in the
// planner's supported envelope.
type quickShape struct {
	DP, PP, MB, Iter uint8
}

func (q quickShape) shape() Shape {
	return Shape{
		DP:   1 + int(q.DP%3),
		PP:   1 + int(q.PP%4),
		MB:   1 + int(q.MB%5),
		Iter: 1 + int(q.Iter%2),
	}
}

// TestCompiledProgramsSoundAcrossShapes is the property test: for every
// generated shape, the compiled fault-free program passes validation
// (deadlock-free + edge-consistent), covers every placement, and its
// per-type instruction counts match the schedule's.
func TestCompiledProgramsSoundAcrossShapes(t *testing.T) {
	prop := func(q quickShape) bool {
		shape := q.shape()
		if shape.MB < shape.PP {
			shape.MB = shape.PP // 1F1B warm-up needs mb >= depth to stay interesting
		}
		s := FaultFree1F1B(shape, UnitSlots)
		p, err := Compile(s)
		if err != nil {
			t.Logf("shape %+v: compile failed: %v", shape, err)
			return false
		}
		if err := p.Validate(); err != nil {
			t.Logf("shape %+v: validate failed: %v", shape, err)
			return false
		}
		if len(p.Instrs) != len(s.Placements) {
			t.Logf("shape %+v: %d instrs vs %d placements", shape, len(p.Instrs), len(s.Placements))
			return false
		}
		for _, typ := range []OpType{F, B, BInput, BWeight, Optimizer} {
			if p.OpCount(typ) != s.OpCount(0, typ)*shape.Iter {
				t.Logf("shape %+v: op count mismatch for %s", shape, typ)
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// compiled returns a freshly compiled fault-free Program of the shape.
func compiled(t *testing.T, shape Shape) *Program {
	t.Helper()
	p, err := Compile(FaultFree1F1B(shape, UnitSlots))
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// refile gives instruction id a new op and moves it to its new worker's
// stream, so stream bookkeeping stays consistent and only the op itself
// is malformed.
func refile(p *Program, id int, op Op) {
	old := p.Instrs[id].Op.Worker()
	stream := p.Streams[old][:0:0]
	for _, x := range p.Streams[old] {
		if x != id {
			stream = append(stream, x)
		}
	}
	p.Streams[old] = stream
	p.Instrs[id].Op = op
	p.Streams[op.Worker()] = append(p.Streams[op.Worker()], id)
	p.workers = nil
}

// TestValidateRejectsOpsOutsideShape pins the linear shape and duration
// checks: an instruction whose stage, micro-batch, home, executor or
// iteration lies outside the Program's Shape would index an executor out
// of range, an unknown op type has no executor at all, and a negative
// duration would silently fall back to the homogeneous one.
func TestValidateRejectsOpsOutsideShape(t *testing.T) {
	shape := Shape{DP: 2, PP: 2, MB: 4, Iter: 1}
	cases := []struct {
		name, want string
		mutate     func(op *Op, ins *Instr)
	}{
		{"stage", "outside shape", func(op *Op, _ *Instr) { op.Stage = 7 }},
		{"negative stage", "outside shape", func(op *Op, _ *Instr) { op.Stage = -1 }},
		{"micro-batch", "outside shape", func(op *Op, _ *Instr) { op.MB = 9 }},
		{"home", "outside shape", func(op *Op, _ *Instr) { op.Home = 5 }},
		{"exec", "outside shape", func(op *Op, _ *Instr) { op.Exec = 5 }},
		{"iteration", "outside shape", func(op *Op, _ *Instr) { op.Iter = 3 }},
		{"all at once", "outside shape", func(op *Op, _ *Instr) { *op = Op{Stage: 7, MB: 9, Home: 5, Exec: 5, Iter: 3, Type: F} }},
		{"op type", "unknown type", func(op *Op, _ *Instr) { op.Type = 9 }},
		{"negative duration", "negative duration", func(_ *Op, ins *Instr) { ins.Dur = -3 }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			p := compiled(t, shape)
			id := p.Streams[Worker{Stage: 0, Pipeline: 0}][0] // a stage-0 forward
			op := p.Instrs[id].Op
			tc.mutate(&op, &p.Instrs[id])
			refile(p, id, op)
			err := p.Validate()
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("Validate = %v, want an error containing %q", err, tc.want)
			}
		})
	}
	if err := compiled(t, shape).Validate(); err != nil {
		t.Fatalf("the unmutated program is rejected: %v", err)
	}
}

// TestValidateRejectsMalformedJoins pins the join checks: every
// contributor is an in-range weight gradient of the join's stage and
// iteration appearing once, a join gathers exactly DP·MB of them and
// gates at least one optimizer, at most one join exists per (iteration,
// stage), and only optimizers of that stage and iteration reference it.
func TestValidateRejectsMalformedJoins(t *testing.T) {
	shape := Shape{DP: 2, PP: 2, MB: 2, Iter: 2}
	// contribOf finds a weight gradient of the given iteration and stage.
	contribOf := func(p *Program, iter, stage int) int {
		for j := range p.Joins {
			if p.Joins[j].Iter == iter && p.Joins[j].Stage == stage {
				return p.Joins[j].Contribs[0]
			}
		}
		t.Fatalf("no join for iteration %d stage %d", iter, stage)
		return -1
	}
	optimizer := func(p *Program) *Instr {
		for i := range p.Instrs {
			if p.Instrs[i].Op.Type == Optimizer {
				return &p.Instrs[i]
			}
		}
		t.Fatal("no optimizer")
		return nil
	}
	cases := []struct {
		name   string
		mutate func(p *Program)
	}{
		{"contributor out of range", func(p *Program) { p.Joins[0].Contribs[0] = len(p.Instrs) }},
		{"negative contributor", func(p *Program) { p.Joins[0].Contribs[0] = -1 }},
		{"duplicate contributor", func(p *Program) { p.Joins[0].Contribs[1] = p.Joins[0].Contribs[0] }},
		{"wrong-stage contributor", func(p *Program) {
			j := &p.Joins[0]
			j.Contribs[0] = contribOf(p, j.Iter, 1-j.Stage)
		}},
		{"wrong-iteration contributor", func(p *Program) {
			j := &p.Joins[0]
			j.Contribs[0] = contribOf(p, 1-j.Iter, j.Stage)
		}},
		{"forward contributor", func(p *Program) { p.Joins[0].Contribs[0] = p.Streams[Worker{}][0] }},
		{"missing contributor", func(p *Program) { p.Joins[0].Contribs = p.Joins[0].Contribs[1:] }},
		{"join reference out of range", func(p *Program) { optimizer(p).Join = JoinRef(len(p.Joins) + 1) }},
		{"join of another stage", func(p *Program) {
			o := optimizer(p)
			for j := range p.Joins {
				if p.Joins[j].Stage != o.Op.Stage {
					o.Join = JoinRef(j + 1)
					return
				}
			}
		}},
		{"forward waits on a join", func(p *Program) { p.Instrs[p.Streams[Worker{}][0]].Join = 1 }},
		{"join gates no optimizer", func(p *Program) {
			for i := range p.Instrs {
				if p.Instrs[i].Join == 1 {
					p.Instrs[i].Join = 0
				}
			}
		}},
		{"two joins for one stage", func(p *Program) {
			o := optimizer(p)
			p.Joins = append(p.Joins, *p.JoinAt(o.Join))
			o.Join = JoinRef(len(p.Joins))
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			p := compiled(t, shape)
			tc.mutate(p)
			if err := p.Validate(); err == nil {
				t.Fatal("Validate accepted the malformed join")
			}
		})
	}
}
