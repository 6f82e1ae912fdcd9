// Command perfbench is the repository benchmark: it drives the ReCycle
// reproduction through its public entry points on four named workloads,
// checks every output, and prints the end-to-end metrics (or, with
// -trace 1, the per-layer metrics) with the last line a JSON object.
//
// Run it from the repository root through run.sh, which builds it:
//
//	bash perfbench/run.sh --workload live-interp --seed 1 --seconds 20 --trace 0
//
// README.md beside this file says why each workload exists, which layers
// it stresses and bypasses, and what each metric means on it.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"time"
)

// opts is what every workload receives: the seed its inputs derive from,
// the length of the timed window, and whether this is the traced run.
type opts struct {
	seed    int64
	seconds time.Duration
	trace   bool
	state   string // directory for span dumps
}

// metric is one printed number.
type metric struct {
	name, unit string
	value      float64
	note       string // sample count or definition, printed beside it
}

// report is what a workload returns.
type report struct {
	attempted, failed int
	problems          []string // the first failures, for the log
	// e2e holds the end-to-end metrics under the names BENCHMARK.json
	// lists, which also gives their units (a note says what the figure is
	// on the workload); detail holds the workload-specific figures behind
	// them.
	e2e, detail []metric
	// layer holds per-layer metrics by name (traced run only).
	layer map[string]float64
	sp    *spans
}

// fail counts one failed op and keeps its description.
func (r *report) fail(format string, args ...any) {
	r.failed++
	if len(r.problems) < 8 {
		r.problems = append(r.problems, fmt.Sprintf(format, args...))
	}
}

var workloads = map[string]func(opts) (*report, error){
	"live-interp":  func(o opts) (*report, error) { return runLive(liveInterp, o) },
	"live-paced":   func(o opts) (*report, error) { return runLive(livePaced, o) },
	"replay-trace": runReplay,
	"plan-scale":   runPlanScale,
}

// spec is the part of BENCHMARK.json, read from the repository root the
// benchmark runs in, that the result line follows: the name and unit of
// every metric, end-to-end and per layer.
type spec struct {
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

type specMetric struct{ Name, Unit string }

func loadSpec(path string) (*spec, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var sp spec
	if err := json.Unmarshal(data, &sp); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &sp, nil
}

func main() {
	workload := flag.String("workload", "", "workload name: live-interp, live-paced, replay-trace or plan-scale")
	seed := flag.Int64("seed", 1, "seed every generated input derives from")
	seconds := flag.Int("seconds", 20, "length of the timed window in seconds")
	trace := flag.Int("trace", 0, "1 runs the traced mode and prints per-layer metrics")
	state := flag.String("state", filepath.Join(".bench_build", "state"), "directory for span dumps")
	flag.Parse()
	run, ok := workloads[*workload]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need --workload (one of %v), --seconds >= 1 and --trace 0|1\n", names())
		os.Exit(2)
	}
	sp, err := loadSpec("BENCHMARK.json")
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(2)
	}
	printEnv(*workload, *seed, *seconds, *trace)
	o := opts{seed: *seed, seconds: time.Duration(*seconds) * time.Second, trace: *trace == 1, state: *state}
	rep, err := run(o)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", *workload, err)
		os.Exit(1)
	}
	if path, err := rep.sp.write(filepath.Join(*state, "spans"), *workload, *seed); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: writing spans: %v\n", err)
		os.Exit(1)
	} else if path != "" {
		fmt.Printf("spans: %d written to %s\n", len(rep.sp.list), path)
	}
	correct, err := emit(rep, sp, o.trace)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", *workload, err)
		os.Exit(1)
	}
	if !correct {
		os.Exit(1)
	}
}

func names() []string {
	var out []string
	for n := range workloads {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// printEnv prints what a reader needs to compare two runs.
func printEnv(workload string, seed int64, seconds, trace int) {
	commit := "unknown"
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				commit = s.Value
			}
			if s.Key == "vcs.modified" && s.Value == "true" {
				commit += "+dirty"
			}
		}
	}
	fmt.Printf("env: nproc=%d GOMAXPROCS=%d go=%s commit=%s\n", runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), commit)
	fmt.Printf("run: workload=%s seed=%d seconds=%d trace=%d\n", workload, seed, seconds, trace)
}

// emit prints the human-readable lines and the final JSON line, whose
// metrics are exactly those sp lists for the mode. It reports whether
// every output check passed, and an error, printing no result line, when
// the workload did not produce a metric sp lists or produced one it does
// not. A layer the workload never enters reports 0.
func emit(rep *report, sp *spec, traced bool) (bool, error) {
	for _, p := range rep.problems {
		fmt.Printf("FAILED: %s\n", p)
	}
	fmt.Printf("ops: attempted=%d failed=%d error_rate=%g fraction\n", rep.attempted, rep.failed, ratio(float64(rep.failed), float64(rep.attempted)))
	for _, m := range rep.detail {
		fmt.Printf("  %-28s %14.4f %-9s %s\n", m.name, m.value, m.unit, m.note)
	}
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := map[string]value{}
	if traced {
		for _, l := range sp.PerLayer {
			v := rep.layer[l.Name]
			fmt.Printf("  %-32s %14.4f %s\n", l.Name, v, l.Unit)
			out[l.Name] = value{v, l.Unit}
		}
		for name := range rep.layer {
			if _, ok := out[name]; !ok {
				return false, fmt.Errorf("layer metric %s is not in the benchmark definition", name)
			}
		}
	} else {
		units := map[string]string{}
		for _, m := range sp.EndToEnd {
			units[m.Name] = m.Unit
		}
		for _, m := range rep.e2e {
			unit, ok := units[m.name]
			if !ok {
				return false, fmt.Errorf("end-to-end metric %s is not in the benchmark definition", m.name)
			}
			fmt.Printf("e2e %-24s %14.4f %-6s %s\n", m.name, m.value, unit, m.note)
			out[m.name] = value{m.value, unit}
		}
		for name := range units {
			if _, ok := out[name]; !ok {
				return false, fmt.Errorf("the workload did not produce end-to-end metric %s", name)
			}
		}
	}
	correct := rep.failed == 0 && rep.attempted > 0
	line, _ := json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{correct, rep.attempted, rep.failed, out})
	fmt.Println(string(line))
	return correct, nil
}
