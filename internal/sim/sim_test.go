package sim

import (
	"testing"
	"time"

	"recycle/internal/baselines"
	"recycle/internal/config"
	"recycle/internal/engine"
	"recycle/internal/failure"
	"recycle/internal/profile"
)

func testJob() config.Job {
	return config.Job{
		Model:    config.GPT3XL,
		Parallel: config.Parallelism{DP: 4, PP: 4, TP: 1},
		Batch:    config.Batch{GlobalBatch: 128, MicroBatch: 2},
		Hardware: config.A100x1,
	}
}

// testEngine is the plan service for testJob, unrolled over two
// iterations.
func testEngine(t *testing.T) (*engine.Engine, profile.Stats) {
	t.Helper()
	stats, err := profile.Analytic(testJob())
	if err != nil {
		t.Fatal(err)
	}
	return engine.New(testJob(), stats, engine.Options{UnrollIterations: 2}), stats
}

// testElastic is a baseline system for testJob: its reconfiguration
// stall is positive on every availability change.
func testElastic(t *testing.T) System {
	t.Helper()
	eng, stats := testEngine(t)
	p, err := eng.Plan(0)
	if err != nil {
		t.Fatal(err)
	}
	common, err := baselines.NewCommon(testJob(), stats, eng.ThroughputSamplesPerSec(p))
	if err != nil {
		t.Fatal(err)
	}
	return baselines.Elastic{C: common}
}

// TestReCycleThroughputBounded checks that throughput under failures never
// exceeds fault-free (adaptive schedules repair, they do not re-optimize)
// and degrades from it once failures exceed the bubble capacity. Between
// consecutive failure counts the list scheduler may wobble by a small
// factor (the MILP it stands in for is also only near-optimal), so strict
// monotonicity is not asserted.
func TestReCycleThroughputBounded(t *testing.T) {
	eng, _ := testEngine(t)
	throughput := func(f int) float64 {
		p, err := eng.Plan(f)
		if err != nil {
			t.Fatal(err)
		}
		return eng.ThroughputSamplesPerSec(p)
	}
	ff := throughput(0)
	for f := 1; f <= 4; f++ {
		cur := throughput(f)
		if cur > ff+1e-9 {
			t.Fatalf("throughput with %d failures (%v) exceeds fault-free (%v)", f, cur, ff)
		}
		if cur < 0.5*ff {
			t.Fatalf("throughput with %d failures (%v) collapsed below half of fault-free (%v)", f, cur, ff)
		}
	}
}

// TestRunAccounting checks interval bookkeeping: samples = sum of
// throughput x (interval - stall).
func TestRunAccounting(t *testing.T) {
	tr := failure.Monotonic(16, 2*time.Hour, 6*time.Hour)
	res := Run(testElastic(t), tr, 6*time.Hour)
	if res.Err != nil {
		t.Fatal(res.Err)
	}
	var want float64
	for _, p := range res.Timeline {
		want += p.Throughput * (p.End - p.Start - p.Stall).Seconds()
	}
	if diff := res.Samples - want; diff > 1e-6 || diff < -1e-6 {
		t.Fatalf("sample accounting off by %v", diff)
	}
	if res.Average <= 0 {
		t.Fatal("average throughput should be positive")
	}
}

// TestStallsChargedOnFailureEvents checks that each availability change
// after t=0 carries a reconfiguration stall.
func TestStallsChargedOnFailureEvents(t *testing.T) {
	tr := failure.Monotonic(16, time.Hour, 6*time.Hour)
	res := Run(testElastic(t), tr, 6*time.Hour)
	for i, p := range res.Timeline {
		if i == 0 {
			continue
		}
		if p.Stall <= 0 {
			t.Fatalf("interval %d (failed=%d) has no reconfiguration stall", i, p.Failed)
		}
	}
}
