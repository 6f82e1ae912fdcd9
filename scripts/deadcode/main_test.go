package main

import "testing"

func TestNormalize(t *testing.T) {
	const prefix = "recycle/internal/"
	cases := []struct {
		sym  string
		want string // "" when the symbol must be ignored
	}{
		{"recycle/internal/failure.Monotonic", "failure.Monotonic"},
		// Closures, nested closures and go/defer wrappers count for the
		// function that declares them.
		{"recycle/internal/experiments.Gallery.func1", "experiments.Gallery"},
		{"recycle/internal/replay.Splice.func7.1", "replay.Splice"},
		{"recycle/internal/engine.(*Warmer).run.gowrap2", "engine.Warmer.run"},
		{"recycle/internal/obs.(*Trace).Segment.deferwrap1", "obs.Trace.Segment"},
		// Value and pointer methods share one key.
		{"recycle/internal/schedule.Shape.Validate", "schedule.Shape.Validate"},
		{"recycle/internal/schedule.(*Shape).Validate", "schedule.Shape.Validate"},
		{"recycle/internal/engine.(*Engine).Plan", "engine.Engine.Plan"},
		// Method values and range-over-func bodies.
		{"recycle/internal/engine.(*Engine).Plan-fm", "engine.Engine.Plan"},
		{"recycle/internal/obs.Spans-range1", "obs.Spans"},
		// Generic instantiations map to the declaration.
		{"recycle/internal/x.Map[go.shape.int,go.shape.string]", "x.Map"},
		{"recycle/internal/x.(*Set[go.shape.struct { A int }]).Add", "x.Set.Add"},
		{"recycle/internal/x.Map[go.shape.int].func1", "x.Map"},
		// Dependency annotations after the symbol are dropped.
		{"recycle/internal/baselines.Oobleck <UsedInIface>", "baselines.Oobleck"},
		// Shared metadata names a function it may not belong to: the linker
		// keeps one copy per content, so solver.newState can point at
		// ExactMakespan's arginfo although ExactMakespan is never linked.
		{"recycle/internal/solver.ExactMakespan.arginfo1", ""},
		{"recycle/internal/failure.Poisson.argliveinfo", ""},
		{"recycle/internal/obs.(*Registry).WriteJSON.stkobj", ""},
		{"recycle/internal/x.F.args_stackmap", ""},
		{"recycle/internal/x.F.func1.opendefer", ""},
		{"recycle/internal/x.(*T).M.wrapinfo", ""},
		// Package data and symbols outside the prefix.
		{"recycle/internal/engine..inittask", ""},
		{"recycle/internal/obs..stmp_3", ""},
		{"recycle/internal/x..dict.Map[int]", ""},
		{"type:recycle/internal/config.Job", ""},
		{"go:itab.*recycle/internal/sim.Execution,recycle/internal/sim.System", ""},
		{"runtime.throw", ""},
	}
	for _, c := range cases {
		got, ok := normalize(c.sym, prefix)
		if c.want == "" {
			if ok {
				t.Errorf("normalize(%q) = %q, want ignored", c.sym, got)
			}
			continue
		}
		if !ok || got != c.want {
			t.Errorf("normalize(%q) = %q, %v; want %q", c.sym, got, ok, c.want)
		}
	}
}

func TestMatchKeyFoldsPointerReceivers(t *testing.T) {
	for name, want := range map[string]string{
		"obs.(*Trace).Segment": "obs.Trace.Segment",
		"schedule.Shape.Valid": "schedule.Shape.Valid",
		"failure.Monotonic":    "failure.Monotonic",
	} {
		if got := matchKey(name); got != want {
			t.Errorf("matchKey(%q) = %q, want %q", name, got, want)
		}
	}
}
