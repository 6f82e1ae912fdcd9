package engine

import (
	"strings"
	"testing"

	"recycle/internal/schedule"
)

// v1Program is a Program as the version-1 codec wrote it (DP=2, PP=1,
// MB=1 fault-free): every optimizer carried one all-reduce edge (Kind 3)
// per weight gradient of its stage.
const v1Program = `{"Version":1,"Shape":{"DP":2,"PP":1,"MB":1,"Iter":1},"Durations":{"F":1,"BInput":1,"BWeight":1,"Opt":1,"Comm":0},"Instrs":[{"Op":{"Stage":0,"MB":0,"Home":0,"Type":0,"Exec":0,"Iter":0},"Dur":1},{"Op":{"Stage":0,"MB":0,"Home":1,"Type":0,"Exec":1,"Iter":0},"Dur":1},{"Op":{"Stage":0,"MB":0,"Home":0,"Type":1,"Exec":0,"Iter":0},"Deps":[{"From":0,"Kind":2}],"Dur":2},{"Op":{"Stage":0,"MB":0,"Home":1,"Type":1,"Exec":1,"Iter":0},"Deps":[{"From":1,"Kind":2}],"Dur":2},{"Op":{"Stage":0,"MB":-1,"Home":0,"Type":4,"Exec":0,"Iter":0},"Deps":[{"From":2,"Kind":3},{"From":3,"Kind":3}],"Dur":1},{"Op":{"Stage":0,"MB":-1,"Home":1,"Type":4,"Exec":1,"Iter":0},"Deps":[{"From":2,"Kind":3},{"From":3,"Kind":3}],"Dur":1}],"Streams":[{"Worker":{"Stage":0,"Pipeline":0},"IDs":[0,2,4]},{"Worker":{"Stage":0,"Pipeline":1},"IDs":[1,3,5]}]}`

// TestDecodeProgramRejectsV1 pins the clean break of the join format:
// version-1 bytes fail on their version, before any of their per-
// contributor edges are interpreted.
func TestDecodeProgramRejectsV1(t *testing.T) {
	_, err := DecodeProgram([]byte(v1Program))
	if err == nil || !strings.Contains(err.Error(), "codec version 1") {
		t.Fatalf("DecodeProgram(v1) = %v, want a codec version error", err)
	}
}

// malformedPrograms encodes corruptions of a valid compiled Program that
// the codec must refuse: ops outside the shape, unknown op types,
// negative durations, and joins with out-of-range, duplicate, wrong-stage
// or wrong-iteration contributors, or optimizers whose join reference is
// missing its target. EncodeProgram does not validate, so each case is
// the exact bytes a corrupted store entry would hold.
func malformedPrograms(tb testing.TB) map[string][]byte {
	tb.Helper()
	base, err := schedule.Compile(schedule.FaultFree1F1B(schedule.Shape{DP: 2, PP: 2, MB: 4, Iter: 2}, schedule.UnitSlots))
	if err != nil {
		tb.Fatal(err)
	}
	first := func(p *schedule.Program, match func(schedule.Op) bool) int {
		for i := range p.Instrs {
			if match(p.Instrs[i].Op) {
				return i
			}
		}
		tb.Fatal("no matching instruction")
		return -1
	}
	isF := func(op schedule.Op) bool { return op.Type == schedule.F }
	isOpt := func(op schedule.Op) bool { return op.Type == schedule.Optimizer }
	// weightGrad finds a weight gradient of the given iteration and stage.
	weightGrad := func(iter, stage int) func(schedule.Op) bool {
		return func(op schedule.Op) bool {
			return (op.Type == schedule.B || op.Type == schedule.BWeight) && op.Iter == iter && op.Stage == stage
		}
	}
	cases := map[string]func(p *schedule.Program){
		// The op keeps its stream, so the shape check is what must fire
		// whatever the stream bookkeeping says.
		"op outside shape": func(p *schedule.Program) {
			p.Instrs[first(p, isF)].Op = schedule.Op{Stage: 7, MB: 9, Home: 5, Exec: 5, Iter: 3, Type: schedule.F}
		},
		"unknown op type":   func(p *schedule.Program) { p.Instrs[first(p, isF)].Op.Type = 9 },
		"negative duration": func(p *schedule.Program) { p.Instrs[first(p, isF)].Dur = -1 },
		"contributor out of range": func(p *schedule.Program) {
			p.Joins[0].Contribs[0] = len(p.Instrs)
		},
		"duplicate contributor": func(p *schedule.Program) {
			p.Joins[0].Contribs[1] = p.Joins[0].Contribs[0]
		},
		"wrong-stage contributor": func(p *schedule.Program) {
			j := &p.Joins[0]
			j.Contribs[0] = first(p, weightGrad(j.Iter, 1-j.Stage))
		},
		"wrong-iteration contributor": func(p *schedule.Program) {
			j := &p.Joins[0]
			j.Contribs[0] = first(p, weightGrad(1-j.Iter, j.Stage))
		},
		"dangling join reference": func(p *schedule.Program) {
			p.Instrs[first(p, isOpt)].Join = schedule.JoinRef(len(p.Joins) + 1)
		},
		"join on a forward": func(p *schedule.Program) { p.Instrs[first(p, isF)].Join = 1 },
	}
	out := make(map[string][]byte, len(cases))
	for name, mutate := range cases {
		p := *base
		p.Instrs = make([]schedule.Instr, len(base.Instrs))
		copy(p.Instrs, base.Instrs)
		p.Joins = make([]schedule.Join, len(base.Joins))
		for j, jn := range base.Joins {
			p.Joins[j] = schedule.Join{Iter: jn.Iter, Stage: jn.Stage, Contribs: append([]int(nil), jn.Contribs...)}
		}
		mutate(&p)
		data, err := EncodeProgram(&p)
		if err != nil {
			tb.Fatalf("%s: %v", name, err)
		}
		out[name] = data
	}
	return out
}

// TestDecodeProgramRejectsMalformed checks every corruption of
// malformedPrograms fails to decode (they also seed FuzzDecodeProgram).
func TestDecodeProgramRejectsMalformed(t *testing.T) {
	for name, data := range malformedPrograms(t) {
		if _, err := DecodeProgram(data); err == nil {
			t.Errorf("%s: DecodeProgram accepted the corrupted program", name)
		}
	}
}

// TestProgramSizeLinearInDP pins the linear all-reduce: with PP and MB
// fixed, widening data parallelism must not grow the Program per
// instruction — dependency edges plus join contributors per instruction
// and encoded bytes per instruction stay flat from DP=2 to DP=32 — and no
// optimizer carries a per-contributor edge. With one all-reduce edge per
// contributor on every optimizer, both ratios grew linearly in DP.
func TestProgramSizeLinearInDP(t *testing.T) {
	const pp, mb = 4, 8
	var edges0, bytes0 float64
	for _, dp := range []int{2, 8, 32} {
		p, err := schedule.Compile(schedule.FaultFree1F1B(schedule.Shape{DP: dp, PP: pp, MB: mb, Iter: 1}, schedule.UnitSlots))
		if err != nil {
			t.Fatal(err)
		}
		data, err := EncodeProgram(p)
		if err != nil {
			t.Fatal(err)
		}
		edges := 0
		for _, ins := range p.Instrs {
			if ins.Op.Type == schedule.Optimizer && len(ins.Deps) != 0 {
				t.Fatalf("DP=%d: %s carries %d dependency edges", dp, ins.Op, len(ins.Deps))
			}
			edges += len(ins.Deps)
		}
		for _, j := range p.Joins {
			edges += len(j.Contribs)
		}
		n := float64(len(p.Instrs))
		perInstr, bytesPer := float64(edges)/n, float64(len(data))/n
		t.Logf("DP=%d: %d instructions, %.3f deps+contributors/instr, %.1f bytes/instr", dp, len(p.Instrs), perInstr, bytesPer)
		if dp == 2 {
			edges0, bytes0 = perInstr, bytesPer
			continue
		}
		if perInstr > 1.05*edges0 || bytesPer > 1.10*bytes0 {
			t.Fatalf("DP=%d: %.3f deps+contributors and %.1f bytes per instruction, DP=2 had %.3f and %.1f — not flat in DP",
				dp, perInstr, bytesPer, edges0, bytes0)
		}
	}
}
