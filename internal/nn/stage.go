package nn

import (
	"fmt"
	"math/rand"
	"sort"

	"recycle/internal/tensor"
)

// MBKey identifies a micro-batch globally: its home data-parallel pipeline
// and its index within that pipeline's iteration.
type MBKey struct {
	Pipeline int
	MB       int
}

// Less orders keys canonically (pipeline-major) — the reduction order that
// makes data-parallel gradients bitwise identical regardless of where
// rerouted micro-batches executed.
func (k MBKey) Less(o MBKey) bool {
	if k.Pipeline != o.Pipeline {
		return k.Pipeline < o.Pipeline
	}
	return k.MB < o.MB
}

// Stage is one pipeline stage: an ordered list of layers plus the
// per-micro-batch stash bookkeeping and the WeightGradStore (§5) that
// holds deferred weight-gradient work.
type Stage struct {
	Layers []Layer

	stashes map[MBKey][]*Stash
	// store holds per-micro-batch weight gradients (one slice per param,
	// in Params() order) until the all-reduce collects them — the
	// WeightGradStore of the DeepSpeed implementation.
	store map[MBKey][]*tensor.Matrix
	// epoch counts the optimizer steps applied to this replica's
	// parameters — the PipeDream-style version stamp that makes step
	// re-execution idempotent. A re-delivered step whose target epoch the
	// stamp already reached is a no-op (StepOnce).
	epoch int
}

// NewStage wraps layers into a stage.
func NewStage(layers ...Layer) *Stage {
	return &Stage{
		Layers:  layers,
		stashes: make(map[MBKey][]*Stash),
		store:   make(map[MBKey][]*tensor.Matrix),
	}
}

// MLPStages builds a PP-stage multi-layer perceptron: each stage is
// Linear+Tanh except the last, which ends with a Linear regression head.
// Deterministic for a given seed.
func MLPStages(pp, inDim, hidden, outDim int, seed int64) []*Stage {
	rng := rand.New(rand.NewSource(seed))
	stages := make([]*Stage, pp)
	for i := 0; i < pp; i++ {
		in, out := hidden, hidden
		if i == 0 {
			in = inDim
		}
		if i == pp-1 {
			out = outDim
		}
		if i == pp-1 {
			stages[i] = NewStage(NewLinear(in, out, rng))
		} else {
			stages[i] = NewStage(NewLinear(in, out, rng), Tanh{})
		}
	}
	return stages
}

// Params returns the stage's parameters in deterministic order.
func (s *Stage) Params() []*Param {
	var ps []*Param
	for _, l := range s.Layers {
		ps = append(ps, l.Params()...)
	}
	return ps
}

// Forward runs the stage's forward pass for one micro-batch, stashing the
// per-layer state.
func (s *Stage) Forward(key MBKey, x *tensor.Matrix) *tensor.Matrix {
	if _, dup := s.stashes[key]; dup {
		panic(fmt.Sprintf("nn: duplicate forward for micro-batch %+v", key))
	}
	st := make([]*Stash, len(s.Layers))
	for i, l := range s.Layers {
		var stash *Stash
		x, stash = l.Forward(x)
		st[i] = stash
	}
	s.stashes[key] = st
	return x
}

// BackwardInput runs the decoupled input-gradient pass for the micro-batch
// and returns the gradient to send upstream. The stash is retained for the
// deferred BackwardWeight.
func (s *Stage) BackwardInput(key MBKey, dy *tensor.Matrix) *tensor.Matrix {
	st, ok := s.stashes[key]
	if !ok {
		panic(fmt.Sprintf("nn: BackwardInput without forward for %+v", key))
	}
	for i := len(s.Layers) - 1; i >= 0; i-- {
		dy = s.Layers[i].BackwardInput(st[i], dy)
	}
	return dy
}

// BackwardWeight runs the deferred weight-gradient pass, moving the
// micro-batch's contribution into the WeightGradStore. The activation
// stash is retained until ReleaseStashes at the iteration boundary
// (PipeDream-style stash discipline): a mid-iteration failure can
// invalidate an already-computed BackwardInput/BackwardWeight on a *live*
// peer (its downstream provenance died), and re-executing it needs the
// stash the old lifecycle would have freed here.
func (s *Stage) BackwardWeight(key MBKey) {
	st, ok := s.stashes[key]
	if !ok {
		panic(fmt.Sprintf("nn: BackwardWeight without forward for %+v", key))
	}
	var grads []*tensor.Matrix
	for i, l := range s.Layers {
		gs := l.BackwardWeight(st[i])
		if len(gs) != len(l.Params()) {
			panic("nn: BackwardWeight arity mismatch")
		}
		grads = append(grads, gs...)
	}
	if _, dup := s.store[key]; dup {
		panic(fmt.Sprintf("nn: duplicate BackwardWeight for %+v", key))
	}
	s.store[key] = grads
}

// PendingStashes returns the number of micro-batch activation stashes the
// stage holds — in-flight work plus completed-but-unreleased work awaiting
// the iteration-boundary ReleaseStashes.
func (s *Stage) PendingStashes() int { return len(s.stashes) }

// DiscardStash drops one micro-batch's activation stash — the effect of a
// forward whose provenance died in a mid-iteration failure, about to be
// re-executed from a re-sent upstream activation. Idempotent.
func (s *Stage) DiscardStash(key MBKey) { delete(s.stashes, key) }

// DiscardGrad drops one micro-batch's WeightGradStore contribution — the
// effect of an invalidated BackwardWeight, cleared so the re-execution can
// store a fresh (bitwise-identical) contribution without tripping the
// duplicate guard. Idempotent.
func (s *Stage) DiscardGrad(key MBKey) { delete(s.store, key) }

// ReleaseStashes frees every retained activation stash — the
// iteration-boundary acknowledgement of the stash lifecycle: once the
// iteration's optimizer steps are validated, no failure can re-request
// this iteration's backward work, so the stashes are garbage.
func (s *Stage) ReleaseStashes() {
	s.stashes = make(map[MBKey][]*Stash)
}

// StepEpoch returns the number of optimizer steps applied to this
// replica's parameters — the version stamp checked in the optimizer apply
// path.
func (s *Stage) StepEpoch() int { return s.epoch }

// SetStepEpoch overwrites the step-epoch stamp; used when a re-joining
// replica copies a donor's parameters, which carry the donor's epoch.
func (s *Stage) SetStepEpoch(e int) { s.epoch = e }

// StepOnce applies the optimizer step exactly once per target epoch: if
// the stamp already reached target the parameters are left untouched and
// StepOnce reports false (the idempotent no-op of a re-executed step);
// otherwise the step is applied and the stamp advances to target.
func (s *Stage) StepOnce(opt Optimizer, target int) bool {
	if s.epoch >= target {
		return false
	}
	opt.Step(s.Params())
	s.epoch = target
	return true
}

// RegressStepEpoch walks the stamp back n steps — the epoch half of an
// iteration rollback, paired with the optimizer's Rollback calls.
func (s *Stage) RegressStepEpoch(n int) {
	s.epoch -= n
	if s.epoch < 0 {
		s.epoch = 0
	}
}

// DrainStore removes and returns all stored contributions keyed by
// micro-batch.
func (s *Stage) DrainStore() map[MBKey][]*tensor.Matrix {
	out := s.store
	s.store = make(map[MBKey][]*tensor.Matrix)
	return out
}

// Reset clears all stashes and stored gradients (used when an iteration is
// aborted and replayed after a mid-iteration failure).
func (s *Stage) Reset() {
	s.stashes = make(map[MBKey][]*Stash)
	s.store = make(map[MBKey][]*tensor.Matrix)
}

// ReduceContributions sums per-micro-batch gradient contributions in
// canonical (pipeline, micro-batch) order and scales by 1/totalMBs,
// writing the result into the stage's parameter gradient accumulators.
// Because floating-point addition is order-sensitive, this canonical
// ordering is what makes adapted (rerouted) execution produce *bitwise*
// the same gradients as fault-free execution.
func (s *Stage) ReduceContributions(contribs map[MBKey][]*tensor.Matrix, totalMBs int) {
	params := s.Params()
	keys := make([]MBKey, 0, len(contribs))
	for k := range contribs {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(a, b int) bool { return keys[a].Less(keys[b]) })
	for _, p := range params {
		p.ZeroGrad()
	}
	for _, k := range keys {
		gs := contribs[k]
		if len(gs) != len(params) {
			panic(fmt.Sprintf("nn: contribution arity %d != params %d for %+v", len(gs), len(params), k))
		}
		for i, g := range gs {
			tensor.AddInPlace(params[i].Grad, g)
		}
	}
	inv := 1 / float64(totalMBs)
	for _, p := range params {
		for i := range p.Grad.Data {
			p.Grad.Data[i] *= inv
		}
	}
}
