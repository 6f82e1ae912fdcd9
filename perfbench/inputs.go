package main

import (
	"fmt"
	"math/rand"
	"sort"
	"time"

	"recycle/internal/failure"
	"recycle/internal/replay"
	"recycle/internal/schedule"
	"recycle/internal/sim"
)

// Every generated input derives from the run's seed through one rand
// stream per workload; the system under test receives only the inputs.

// drawVictims returns n single-worker victims, stratified so that stage
// i mod pp is hit on the i-th draw (every stage is exercised equally often
// whatever the seed) with the pipeline drawn at random. A single victim
// always leaves its stage a live peer when dp >= 2.
func drawVictims(rng *rand.Rand, n, dp, pp int) []schedule.Worker {
	out := make([]schedule.Worker, n)
	for i := range out {
		out[i] = schedule.Worker{Stage: i % pp, Pipeline: rng.Intn(dp)}
	}
	return out
}

// killCut draws a mid-iteration kill instant for victim on prog the way
// dtrain.Chaos draws its between-ops class: the end of one of the victim's
// compute instructions in the fault-free execution, admissible only while
// no optimizer instruction has completed (so the cut never straddles an
// all-reduce group) and some work is still pending.
func killCut(rng *rand.Rand, prog *schedule.Program, victim schedule.Worker) (int64, error) {
	full, err := sim.ExecuteProgram(prog, sim.ProgramOptions{})
	if err != nil {
		return 0, err
	}
	completed := func(i int, c int64) bool {
		if full.Start[i] < 0 || full.Start[i] >= c {
			return false
		}
		return prog.Instrs[i].Op.Worker() != victim || full.End[i] <= c
	}
	admissible := func(c int64) bool {
		if c < 1 {
			return false
		}
		pending := false
		for i, in := range prog.Instrs {
			done := completed(i, c)
			if in.Op.Type == schedule.Optimizer && done {
				return false
			}
			pending = pending || !done
		}
		return pending
	}
	var cands []int64
	for i, in := range prog.Instrs {
		if in.Op.Worker() == victim && in.Op.Type != schedule.Optimizer && full.End[i] >= 0 {
			cands = append(cands, full.End[i])
		}
	}
	sort.Slice(cands, func(i, j int) bool { return cands[i] < cands[j] })
	var ok []int64
	for i, c := range cands {
		if (i == 0 || c != cands[i-1]) && admissible(c) {
			ok = append(ok, c)
		}
	}
	if len(ok) == 0 {
		return 0, fmt.Errorf("no admissible kill instant on %s", victim)
	}
	return ok[rng.Intn(len(ok))], nil
}

// failureSet draws n distinct failed workers, keeping at least one live
// worker in every stage.
func failureSet(rng *rand.Rand, n, dp, pp int) ([]schedule.Worker, error) {
	if n > (dp-1)*pp {
		return nil, fmt.Errorf("%d failures cannot leave every stage of a %dx%d fleet live", n, dp, pp)
	}
	perStage := make([]int, pp)
	failed := map[schedule.Worker]bool{}
	var out []schedule.Worker
	for len(out) < n {
		w := schedule.Worker{Stage: rng.Intn(pp), Pipeline: rng.Intn(dp)}
		if failed[w] || perStage[w.Stage] == dp-1 {
			continue
		}
		failed[w] = true
		perStage[w.Stage]++
		out = append(out, w)
	}
	return out, nil
}

// poissonTrace draws a per-machine Poisson failure/repair trace with
// exactly events membership changes inside the horizon, so every replay op
// splices the same number of times, and whose every membership state keeps
// a live worker in each stage and at most maxFailed machines down, so no
// op fails on its input. A trace outside those bounds is redrawn from the
// next value of rng.
func poissonTrace(rng *rand.Rand, dp, pp, maxFailed, events int, mtbf, mttr, horizon time.Duration) failure.Trace {
	for {
		tr := failure.PoissonMachines(dp*pp, mtbf, mttr, horizon, rng.Int63())
		if len(tr.Steps) == events+1 && tr.Steps[0].At == 0 && len(tr.Steps[0].Failed) == 0 &&
			traceInEnvelope(tr, pp, dp, maxFailed) {
			return tr
		}
	}
}

func traceInEnvelope(tr failure.Trace, pp, dp, maxFailed int) bool {
	down := map[int]bool{}
	for _, st := range tr.Steps {
		for _, id := range st.Failed {
			down[id] = true
		}
		for _, id := range st.Rejoined {
			delete(down, id)
		}
		perStage := make([]int, pp)
		for id := range down {
			perStage[replay.MachineWorker(id, pp).Stage]++
		}
		for _, n := range perStage {
			if n >= dp {
				return false
			}
		}
		if len(down) > maxFailed {
			return false
		}
	}
	return true
}
