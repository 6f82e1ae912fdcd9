package main

import (
	"crypto/sha256"
	"fmt"
	"runtime"
	"time"
)

// mode is how one op runs. The untraced run runs every op bare; the traced
// run runs each input in all three modes.
type mode int

const (
	// bare ops attach nothing: the end-to-end figures come from them.
	bare mode = iota
	// recorded ops attach an obs.Trace and nothing else, so comparing them
	// with bare ops of the same input gives obs.overhead_pct.
	recorded
	// probed ops attach the recorder, open the benchmark's spans and take
	// the layer probes: the per-layer figures come from them.
	probed
)

func (m mode) String() string { return [...]string{"bare", "recorded", "probed"}[m] }

// setupReps is how many times a workload sets up; setup_s is the median.
const setupReps = 5

// medianSetup runs setup setupReps times, each from a collected heap, and
// returns the last result with the median wall time as setup_s. Every
// repetition derives from the same seed, so the seed-determined figures
// key returns must repeat exactly; a repetition that differs is a failed
// op. Their digest is printed, so runs of one seed can be compared.
func medianSetup[T any](rep *report, setup func() (T, error), key func(T) string) (T, metric, error) {
	var s T
	var secs samples
	var first string
	for i := 0; i < setupReps; i++ {
		runtime.GC()
		t := time.Now()
		var err error
		if s, err = setup(); err != nil {
			return s, metric{}, fmt.Errorf("setup: %w", err)
		}
		secs = append(secs, time.Since(t).Seconds())
		rep.attempted++
		k := key(s)
		if i == 0 {
			first = k
			fmt.Printf("set-up digest: %x\n", sha256.Sum256([]byte(k)))
		} else if k != first {
			rep.fail("set-up %d derived %q from the seed, set-up 0 %q", i, k, first)
		}
	}
	return s, metric{"setup_s", "s", secs.median(), fmt.Sprintf("p50, n=%d", len(secs))}, nil
}

// opStats is what runOps measured over the bare ops.
type opStats struct {
	n           int           // bare ops
	busy        time.Duration // their summed wall time
	heapMB      samples       // each bare op's peak in-use heap
	overheadPct float64       // recorded vs bare wall on the same inputs (traced run)
}

// runOps is the closed loop every workload runs: passes over its n inputs
// until the window ends, always finishing the first pass so every input
// runs at least once. op runs input i in mode m and returns the wall time
// of its measured part; probes it takes after that part stay outside. The
// traced run runs each input probed, then recorded and bare back to back,
// their order alternating by pass, so each overhead pair meets the host
// in the same state. cold ops are independent cold runs: each starts from
// a collected heap, so one op's garbage cannot bias the next. A failed op
// ends the loop, because the system's state after it is unknown.
func runOps(o opts, rep *report, n int, cold bool, op func(i int, m mode) (time.Duration, error)) opStats {
	var st opStats
	var recMs, bareMs float64
	runtime.GC()
	heap := startHeapPeak()
	defer heap.stop()
	start := time.Now()
	for pass := 0; ; pass++ {
		modes := []mode{bare}
		if o.trace {
			modes = []mode{probed, recorded, bare}
			if pass%2 == 1 {
				modes = []mode{probed, bare, recorded}
			}
		}
		for i := 0; i < n; i++ {
			if pass > 0 && time.Since(start) >= o.seconds {
				st.overheadPct = overheadPct(recMs, bareMs)
				return st
			}
			var wall [3]time.Duration
			for _, m := range modes {
				if cold {
					runtime.GC()
				}
				heap.reset()
				rep.attempted++
				d, err := op(i, m)
				peak := heap.lap()
				if err != nil {
					rep.fail("input %d, %s: %v", i, m, err)
					return st
				}
				wall[m] = d
				if m == bare {
					st.n++
					st.busy += d
					st.heapMB = append(st.heapMB, peak)
				}
			}
			recMs += ms(wall[recorded])
			bareMs += ms(wall[bare])
		}
	}
}
