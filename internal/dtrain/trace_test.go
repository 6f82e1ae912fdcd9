package dtrain

import (
	"strings"
	"testing"

	"recycle/internal/obs"
	"recycle/internal/schedule"
	"recycle/internal/sim"
)

// TestTraceAgreementLiveVsDES extends the executor-agreement property to
// the recorded traces: the live runtime and the DES, interpreting the same
// faulted Program, must record span sets with identical instruction
// identities, dependency edges, resolved all-reduce joins (join, binding
// contributor, completion time) and logical spans — the recorder observes
// the shared IR, it does not perturb it.
func TestTraceAgreementLiveVsDES(t *testing.T) {
	cfg := Config{
		DP: 3, PP: 4, MB: 6,
		InDim: 8, Hidden: 16, OutDim: 4, MicroBatchSize: 5,
		Seed: 42, LR: 1e-2,
	}
	rt := New(cfg)
	liveRec := obs.NewTrace()
	rt.AttachRecorder(liveRec)
	rt.Fail(schedule.Worker{Stage: 2, Pipeline: 1})
	if _, err := rt.RunIteration(); err != nil {
		t.Fatal(err)
	}
	prog, _, _ := rt.ExecutedTimeline()

	desRec := obs.NewTrace()
	if _, err := sim.ExecuteProgram(prog, sim.ProgramOptions{Recorder: desRec, TraceLabel: "des"}); err != nil {
		t.Fatal(err)
	}

	live, des := liveRec.Segment("iter0"), desRec.Segment("des")
	if live == nil || des == nil {
		t.Fatalf("missing segments: live=%v des=%v", live, des)
	}
	if live.Len() != len(prog.Instrs) || des.Len() != len(prog.Instrs) {
		t.Fatalf("span counts: live %d, des %d, program %d", live.Len(), des.Len(), len(prog.Instrs))
	}
	for id := range prog.Instrs {
		ls, ok := live.Span(id)
		if !ok {
			t.Fatalf("live trace missing instruction %d", id)
		}
		ds, ok := des.Span(id)
		if !ok {
			t.Fatalf("DES trace missing instruction %d", id)
		}
		if ls.Op != ds.Op {
			t.Fatalf("instruction %d: live op %s != DES op %s", id, ls.Op, ds.Op)
		}
		if len(ls.Deps) != len(ds.Deps) {
			t.Fatalf("instruction %d: live has %d deps, DES %d", id, len(ls.Deps), len(ds.Deps))
		}
		for j := range ls.Deps {
			if ls.Deps[j] != ds.Deps[j] {
				t.Fatalf("instruction %d dep %d: live %+v != DES %+v", id, j, ls.Deps[j], ds.Deps[j])
			}
		}
		if ls.Join != ds.Join || ls.JoinBy != ds.JoinBy || ls.JoinAt != ds.JoinAt {
			t.Fatalf("instruction %d (%s): live join %d by %d at %d != DES join %d by %d at %d",
				id, ls.Op, ls.Join, ls.JoinBy, ls.JoinAt, ds.Join, ds.JoinBy, ds.JoinAt)
		}
		if ls.Start != ds.Start || ls.End != ds.End || ls.Sched != ds.Sched {
			t.Fatalf("instruction %d (%s): live span sched=%d [%d,%d) != DES sched=%d [%d,%d)",
				id, ls.Op, ls.Sched, ls.Start, ls.End, ds.Sched, ds.Start, ds.End)
		}
		if ds.Actual != 0 {
			t.Fatalf("instruction %d: virtual-time span claims wall time %v", id, ds.Actual)
		}
	}
	var measured int
	for _, s := range live.Spans() {
		if s.Actual > 0 {
			measured++
		}
	}
	if measured == 0 {
		t.Fatal("live trace measured no wall-clock compute time at all")
	}
	if evs := liveRec.SegmentEvents(0); len(evs) < 2 ||
		evs[0].Kind != obs.EvIterStart || evs[len(evs)-1].Kind != obs.EvIterEnd {
		t.Fatalf("live iteration not bracketed by iter-start/iter-end: %v", evs)
	}
}

// TestChaosCriticalPathGolden is the spliced-trace golden test: under a
// fixed chaos seed, the trace splits the kill iteration into pre-splice
// and post-splice segments, the critical-path attribution tiles both (the
// post-splice one tiling the full iteration makespan via its frozen prefix
// spans), and the splice windows partition the timeline at the recorded
// cut.
func TestChaosCriticalPathGolden(t *testing.T) {
	cfg := Config{
		DP: 2, PP: 2, MB: 4,
		InDim: 6, Hidden: 8, OutDim: 3, MicroBatchSize: 4,
		Seed: 11, LR: 1e-2,
	}
	rec := obs.NewTrace()
	res, err := Chaos(cfg, ChaosOptions{
		Seed: 1, Iterations: 4, KillIter: 2, Victims: 1, Point: KillBetweenOps,
		Recorder: rec,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.BitwiseEqual() {
		t.Fatal("chaos run diverged; trace assertions would be meaningless")
	}

	pre, post := rec.Segment("iter2/pre-splice"), rec.Segment("iter2/post-splice")
	if pre == nil || post == nil {
		t.Fatalf("spliced iteration did not record both phases; segments: %v", rec)
	}
	if pre.Makespan() > res.Cut {
		t.Fatalf("pre-splice spans run past the cut: makespan %d > cut %d", pre.Makespan(), res.Cut)
	}

	preRep, err := obs.CriticalPath(pre)
	if err != nil {
		t.Fatal(err)
	}
	postRep, err := obs.CriticalPath(post)
	if err != nil {
		t.Fatal(err)
	}
	if !preRep.Tiles() || !postRep.Tiles() {
		t.Fatalf("tiling failed: pre %v post %v", preRep, postRep)
	}
	if postRep.Makespan != post.Makespan() {
		t.Fatalf("post-splice attribution covers %d of %d slots", postRep.Makespan, post.Makespan())
	}

	// The post-splice segment owes its full-iteration coverage to the
	// frozen prefix installed from the splice's Done set.
	var frozen, beforeCut int
	for _, s := range post.Spans() {
		if s.Frozen {
			frozen++
			if s.End > res.Cut {
				t.Fatalf("frozen span %d ends at %d, after the cut %d", s.Instr, s.End, res.Cut)
			}
		}
		if s.End <= res.Cut {
			beforeCut++
		}
	}
	if frozen == 0 {
		t.Fatal("post-splice segment has no frozen prefix spans")
	}
	// The frozen prefix is the splice's kept Done set: at most what the
	// pre-splice phase executed (completed work stranded on a lost
	// dependency chain is re-executed live, not frozen).
	if frozen > pre.Len() {
		t.Fatalf("frozen prefix has %d spans, pre-splice phase executed only %d", frozen, pre.Len())
	}

	// The cut partitions the post-splice timeline into exactly two windows.
	ws := obs.SpliceWindows(post, []int64{res.Cut})
	if len(ws) != 2 || ws[0].From != 0 || ws[0].To != res.Cut || ws[1].To != post.Makespan() {
		t.Fatalf("splice windows = %+v (cut %d, makespan %d)", ws, res.Cut, post.Makespan())
	}

	// Every segment of the trace — the fault-free iterations and both
	// splice phases — passes the audit the CLIs gate on.
	summary, err := obs.AuditCriticalPaths(rec)
	if err != nil {
		t.Fatal(err)
	}
	for _, label := range []string{"iter0", "iter2/pre-splice", "iter2/post-splice", "iter3"} {
		if !strings.Contains(summary, label) {
			t.Fatalf("audit summary missing %q:\n%s", label, summary)
		}
	}

	// The splice lifecycle: kill and splice events at the cut, and the
	// flight recorder retained a black box alongside the trace.
	c := rec.Counters()
	if c["events.kill"] < 1 || c["events.splice"] != 1 || c["events.rejoin"] < 1 {
		t.Fatalf("lifecycle counters = %v", c)
	}
	for _, e := range rec.Events() {
		if e.Kind == obs.EvSplice && (e.At != res.Cut || e.Detail != res.Event) {
			t.Fatalf("splice event = %+v, want cut %d event %q", e, res.Cut, res.Event)
		}
	}
	if res.Flight == nil || len(res.Flight.Records()) == 0 {
		t.Fatal("chaos run retained no flight-recorder records")
	}
}

// TestRunIterationFailureDumpsFlightRecorder pins the post-mortem path: a
// chaos-killed iteration that errors out appends the flight recorder's
// dump to the returned error.
func TestRunIterationFailureDumpsFlightRecorder(t *testing.T) {
	cfg := Config{
		DP: 2, PP: 2, MB: 4,
		InDim: 6, Hidden: 8, OutDim: 3, MicroBatchSize: 4,
		Seed: 11, LR: 1e-2,
	}
	rt := New(cfg)
	rt.AttachRecorder(obs.NewFlightRecorder(32))
	// Killing both workers of a stage leaves the stage dead — the failure
	// path must reject it, and the error must carry the black box.
	_, err := rt.RunIterationFailure([]schedule.Worker{
		{Stage: 0, Pipeline: 0}, {Stage: 0, Pipeline: 1},
	}, 1)
	if err == nil {
		t.Fatal("stage wipe-out must fail")
	}
	if !strings.Contains(err.Error(), "flight recorder:") {
		t.Fatalf("error carries no flight dump: %v", err)
	}
}

// TestMetricsSnapshotFoldsAllGroups checks the unified registry: one
// snapshot holds the plan service's counters, the runtime's op totals and
// the trace's per-phase span counts, under the versioned wire shape.
func TestMetricsSnapshotFoldsAllGroups(t *testing.T) {
	cfg := Config{
		DP: 2, PP: 2, MB: 4,
		InDim: 6, Hidden: 8, OutDim: 3, MicroBatchSize: 4,
		Seed: 11, LR: 1e-2,
	}
	rt := New(cfg)
	rt.AttachRecorder(obs.NewTrace())
	if _, err := rt.RunIteration(); err != nil {
		t.Fatal(err)
	}
	snap := rt.MetricsSnapshot()
	if snap.Version != obs.SnapshotVersion {
		t.Fatalf("snapshot version = %d", snap.Version)
	}
	if snap.Groups["engine"]["Solves"] < 1 {
		t.Fatalf("engine group = %v", snap.Groups["engine"])
	}
	rtg := snap.Groups["runtime"]
	if rtg["Iterations"] != 1 || rtg["OpsF"] == 0 || rtg["OpsOPT"] == 0 {
		t.Fatalf("runtime group = %v", rtg)
	}
	tg := snap.Groups["trace"]
	if tg["segments"] != 1 || tg["spans.iter0"] == 0 {
		t.Fatalf("trace group = %v", tg)
	}

	// Without a buffering trace attached the snapshot still carries the
	// engine and runtime groups.
	rt2 := New(cfg)
	if _, err := rt2.RunIteration(); err != nil {
		t.Fatal(err)
	}
	snap2 := rt2.MetricsSnapshot()
	if _, ok := snap2.Groups["trace"]; ok {
		t.Fatal("trace group present without a trace recorder")
	}
	if snap2.Groups["runtime"]["Iterations"] != 1 {
		t.Fatalf("runtime group = %v", snap2.Groups["runtime"])
	}
}
