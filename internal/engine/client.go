package engine

import (
	"fmt"

	"recycle/internal/config"
	"recycle/internal/core"
	"recycle/internal/planstore"
	"recycle/internal/profile"
	"recycle/internal/schedule"
)

// Client is a fetch-only view of a shared replicated plan store: it
// derives the same key namespace an Engine with the same configuration
// uses, but carries no planner, no solver and no caches. A remote
// executor holds one to pull compiled Program artifacts directly from
// the store — the coordinator that solved and compiled them
// does not have to be alive, which is what makes the plan service
// horizontally shardable.
type Client struct {
	store *planstore.Store
	fp    string
}

// NewClient builds a fetch-only store view for a job. opts supplies only
// the namespace-relevant knobs (Techniques, UnrollIterations, CostModel);
// the rest is ignored. The derived fingerprint must match the serving
// engine's, so pass the same options the engine was built with.
func NewClient(store *planstore.Store, job config.Job, stats profile.Stats, opts Options) *Client {
	planner := core.New(job, stats)
	if opts.Techniques != nil {
		planner.Techniques = *opts.Techniques
	}
	planner.Costs = opts.CostModel
	if opts.UnrollIterations > 0 {
		planner.UnrollIterations = opts.UnrollIterations
	}
	fp := Fingerprint(planner.Job, planner.Stats, planner.Techniques, planner.UnrollIterations, planner.Costs.Signature())
	return &Client{store: store, fp: fp}
}

// SplicedProgram fetches and decodes the mid-iteration spliced Program a
// coordinator published under the given event identifier — the artifact a
// remote executor needs to interpret the post-event suffix of an
// iteration it did not splice itself.
func (c *Client) SplicedProgram(event string) (*schedule.Program, error) {
	return fetchSpliced(c.store, c.fp, event)
}

// fetchSpliced is the shared store fetch for spliced-Program artifacts.
func fetchSpliced(store *planstore.Store, fp, event string) (*schedule.Program, error) {
	data, ok, err := store.Get(spliceKey(fp, event))
	if err != nil {
		return nil, fmt.Errorf("engine: spliced program fetch: %w", err)
	}
	if !ok {
		return nil, fmt.Errorf("engine: no replicated spliced program for event %q (namespace %s)", event, fp)
	}
	return DecodeProgram(data)
}

// ProgramFor fetches and decodes the compiled Program artifact for a
// concrete failed-worker set. It never compiles: the artifact exists iff
// an engine sharing the store lowered that schedule and replicated it.
func (c *Client) ProgramFor(failed map[schedule.Worker]bool) (*schedule.Program, error) {
	ws := workerList(failed)
	data, ok, err := c.store.Get(programKey(c.fp, ws))
	if err != nil {
		return nil, fmt.Errorf("engine: client program fetch: %w", err)
	}
	if !ok {
		return nil, fmt.Errorf("engine: no replicated program for %v (namespace %s)", ws, c.fp)
	}
	return DecodeProgram(data)
}
