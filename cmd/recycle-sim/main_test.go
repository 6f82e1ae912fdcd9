package main

import (
	"testing"
	"time"
)

// TestWorkloadSizesJobToTrace checks that every workload replays against a
// job with as many workers as the trace has machines: the 24-machine GCP
// trace selects the 24-worker Fig 9 job, and the generated traces follow
// the 32-worker Table 1 job.
func TestWorkloadSizesJobToTrace(t *testing.T) {
	modes := map[string]struct {
		gcp  bool
		mtbf time.Duration
	}{
		"monotonic": {},
		"gcp":       {gcp: true},
		"mtbf":      {mtbf: 4 * time.Hour},
	}
	for model := range table1Jobs {
		for name, m := range modes {
			job, tr, err := workload(model, m.gcp, 30*time.Minute, time.Hour, m.mtbf, 30*time.Minute, 1)
			if model == "3.35b" && m.gcp {
				if err == nil {
					t.Errorf("%s %s: no Fig 9 job has 24 workers, want an error", model, name)
				}
				continue
			}
			if err != nil {
				t.Fatalf("%s %s: %v", model, name, err)
			}
			if got := job.Parallel.Workers(); got != tr.Total {
				t.Errorf("%s %s: %d-worker job replays a %d-machine trace", model, name, got, tr.Total)
			}
		}
	}
	if _, _, err := workload("bogus", false, time.Hour, time.Hour, 0, 0, 1); err == nil {
		t.Error("unknown model accepted")
	}
}

// TestCheckFlagsRejectsIgnoredFlags checks that a flag the selected mode
// does not read is an error rather than silently dropped.
func TestCheckFlagsRejectsIgnoredFlags(t *testing.T) {
	cases := []struct {
		system string
		des    bool
		set    []string
		ok     bool
	}{
		{"recycle", false, []string{"model", "gcp", "events", "trace"}, true},
		{"recycle", false, []string{"mtbf", "mttr", "seed", "horizon", "freq"}, true},
		{"oobleck", false, []string{"system", "freq", "horizon"}, true},
		{"recycle", true, []string{"des", "straggle", "aware", "trace", "model"}, true},
		{"oobleck", false, []string{"system", "trace"}, false},
		{"bamboo", false, []string{"system", "events"}, false},
		{"recycle", false, []string{"straggle"}, false},
		{"recycle", false, []string{"aware"}, false},
		{"elastic", false, []string{"system", "aware"}, false},
		{"recycle", true, []string{"des", "events"}, false},
		{"recycle", true, []string{"des", "gcp"}, false},
		{"oobleck", true, []string{"des", "system"}, false},
		{"bogus", false, []string{"system"}, false},
	}
	for _, c := range cases {
		err := checkFlags(c.system, c.des, c.set)
		if (err == nil) != c.ok {
			t.Errorf("checkFlags(%q, des=%v, %v) = %v, want ok=%v", c.system, c.des, c.set, err, c.ok)
		}
	}
}
