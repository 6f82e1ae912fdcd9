package obs_test

import (
	"testing"

	"recycle/internal/engine"
	"recycle/internal/obs"
	"recycle/internal/schedule"
	"recycle/internal/sim"
)

// compiledProgram solves and compiles a real faulted Program — the same
// artifact both executors interpret — for integration-level obs tests.
func compiledProgram(t testing.TB, failures int) *schedule.Program {
	t.Helper()
	job, stats := engine.ShapeJob(3, 4, 6)
	eng := engine.New(job, stats, engine.Options{UnrollIterations: 1})
	prog, err := eng.Program(failures)
	if err != nil {
		t.Fatal(err)
	}
	return prog
}

// TestCriticalPathTilesRealProgram pins the headline invariant on a real
// compiled Program executed by the DES: the critical-path attribution must
// tile the recorded makespan exactly — on-path compute + waits == makespan
// and busy + idle == makespan for every worker — for both the fault-free
// and a faulted plan.
func TestCriticalPathTilesRealProgram(t *testing.T) {
	for _, failures := range []int{0, 1} {
		rec := obs.NewTrace()
		prog := compiledProgram(t, failures)
		ex, err := sim.ExecuteProgram(prog, sim.ProgramOptions{Recorder: rec, TraceLabel: "des"})
		if err != nil {
			t.Fatal(err)
		}
		seg := rec.Segment("des")
		if seg == nil || seg.Len() != len(prog.Instrs) {
			t.Fatalf("failures=%d: recorded %v spans of %d instructions", failures, seg, len(prog.Instrs))
		}
		if seg.Makespan() != ex.Makespan {
			t.Fatalf("failures=%d: recorded makespan %d != execution makespan %d", failures, seg.Makespan(), ex.Makespan)
		}
		rep, err := obs.CriticalPath(seg)
		if err != nil {
			t.Fatalf("failures=%d: %v", failures, err)
		}
		if rep.OpSlots+rep.WaitSlots != ex.Makespan {
			t.Fatalf("failures=%d: attribution %d+%d != makespan %d", failures, rep.OpSlots, rep.WaitSlots, ex.Makespan)
		}
		busy := ex.WorkerBusy()
		for w, b := range rep.Busy {
			if b != busy[w] {
				t.Fatalf("failures=%d: recorded busy[%s]=%d != execution's %d", failures, w, b, busy[w])
			}
		}
	}
}

// TestChromeTraceOneAllReduceFlowPerOptimizer checks the all-reduce
// rendering of a traced DP>=2 DES run: each optimizer gets exactly one
// all-reduce flow arrow, starting where its join's binding contributor —
// a weight gradient of its stage — ends, whatever DP·MB is.
func TestChromeTraceOneAllReduceFlowPerOptimizer(t *testing.T) {
	prog := compiledProgram(t, 1)
	rec := obs.NewTrace()
	if _, err := sim.ExecuteProgram(prog, sim.ProgramOptions{Recorder: rec, TraceLabel: "des"}); err != nil {
		t.Fatal(err)
	}
	seg := rec.Segment("des")
	opts := prog.OpCount(schedule.Optimizer)
	if prog.Shape.DP < 2 || opts == 0 {
		t.Fatalf("fixture has DP=%d and %d optimizers", prog.Shape.DP, opts)
	}
	for _, s := range seg.Spans() {
		if s.Op.Type != schedule.Optimizer {
			continue
		}
		by, ok := seg.Span(s.JoinBy)
		if s.Join == 0 || !ok || by.End != s.JoinAt || by.Op.Stage != s.Op.Stage ||
			(by.Op.Type != schedule.BWeight && by.Op.Type != schedule.B) {
			t.Fatalf("%s: join %d resolved to contributor %d (%+v) at %d", s.Op, s.Join, s.JoinBy, by.Op, s.JoinAt)
		}
	}
	starts, finishes := 0, 0
	for _, ev := range obs.BuildChromeTrace(rec).TraceEvents {
		if ev.Name != obs.AllReduceFlow {
			continue
		}
		switch ev.Phase {
		case "s":
			starts++
		case "f":
			finishes++
		}
	}
	if starts != opts || finishes != opts {
		t.Fatalf("%d all-reduce flow starts and %d finishes, want one each per optimizer (%d)", starts, finishes, opts)
	}
}

// TestCriticalPathCrossesJoins checks that an optimizer released by its
// all-reduce join reaches the join's binding contributor through a
// zero-width join tile, and the attribution still tiles the makespan.
func TestCriticalPathCrossesJoins(t *testing.T) {
	prog := compiledProgram(t, 1)
	rec := obs.NewTrace()
	if _, err := sim.ExecuteProgram(prog, sim.ProgramOptions{Recorder: rec, TraceLabel: "des"}); err != nil {
		t.Fatal(err)
	}
	rep, err := obs.CriticalPath(rec.Segment("des"))
	if err != nil {
		t.Fatal(err)
	}
	joins := 0
	for i, st := range rep.Steps {
		if st.Kind != obs.StepJoin {
			continue
		}
		joins++
		if st.From != st.To || st.Join == 0 || i == 0 || i+1 == len(rep.Steps) {
			t.Fatalf("join step %d = %+v: want a zero-width tile between two steps", i, st)
		}
		if prev, next := rep.Steps[i-1], rep.Steps[i+1]; prev.Kind != obs.StepOp || prev.To != st.From ||
			next.Kind != obs.StepOp || next.Op.Type != schedule.Optimizer {
			t.Fatalf("join step %d sits between %+v and %+v", i, prev, next)
		}
	}
	if joins == 0 {
		t.Fatalf("critical path %v crosses no all-reduce join", rep)
	}
}

// TestRecorderObservesCutAndKill drives the failure-injection executor
// paths and checks the lifecycle stream: a FailAt death records a kill, a
// CutAt freeze records a cut with the completed/lost/blocked census.
func TestRecorderObservesCutAndKill(t *testing.T) {
	prog := compiledProgram(t, 0)
	full, err := sim.ExecuteProgram(prog, sim.ProgramOptions{})
	if err != nil {
		t.Fatal(err)
	}
	cut := full.Makespan / 2
	victim := prog.Workers()[0]

	rec := obs.NewTrace()
	if _, err := sim.ExecuteProgram(prog, sim.ProgramOptions{
		CutAt:      cut,
		FailAt:     map[schedule.Worker]int64{victim: cut},
		Recorder:   rec,
		TraceLabel: "cut",
	}); err != nil {
		t.Fatal(err)
	}
	c := rec.Counters()
	if c["events.kill"] != 1 || c["events.cut"] != 1 {
		t.Fatalf("lifecycle counters = %v", c)
	}
	for _, e := range rec.Events() {
		if e.Kind == obs.EvKill && (!e.HasWorker || e.Worker != victim || e.At != cut) {
			t.Fatalf("kill event = %+v", e)
		}
		if e.Kind == obs.EvCut && len(e.Attrs) == 0 {
			t.Fatalf("cut event carries no census: %+v", e)
		}
	}
}

// TestNopRecorderAddsNoAllocations is the disabled-path acceptance check:
// executing a Program with the Nop recorder allocates exactly as much as
// executing it with no recorder at all — the guard keeps span construction
// off the disabled path entirely.
func TestNopRecorderAddsNoAllocations(t *testing.T) {
	prog := compiledProgram(t, 1)
	bare := testing.AllocsPerRun(10, func() {
		if _, err := sim.ExecuteProgram(prog, sim.ProgramOptions{}); err != nil {
			t.Fatal(err)
		}
	})
	nop := testing.AllocsPerRun(10, func() {
		if _, err := sim.ExecuteProgram(prog, sim.ProgramOptions{Recorder: obs.Nop{}}); err != nil {
			t.Fatal(err)
		}
	})
	if nop > bare {
		t.Fatalf("Nop recorder adds allocations: %v with vs %v without (%d instructions)",
			nop, bare, len(prog.Instrs))
	}
}

// BenchmarkExecuteProgram compares the interpreter's per-instruction cost
// with recording off (Nop) and on (Trace) — the number the "lock-cheap
// when enabled, free when disabled" claim is held to.
func BenchmarkExecuteProgram(b *testing.B) {
	prog := compiledProgram(b, 1)
	b.Run("nop", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := sim.ExecuteProgram(prog, sim.ProgramOptions{Recorder: obs.Nop{}}); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("trace", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := sim.ExecuteProgram(prog, sim.ProgramOptions{Recorder: obs.NewTrace()}); err != nil {
				b.Fatal(err)
			}
		}
	})
}
