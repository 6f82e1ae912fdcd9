package engine

import (
	"encoding/json"
	"fmt"

	"recycle/internal/schedule"
)

// ProgramCodecVersion is the wire-format version EncodeProgram stamps into
// every encoded Program. DecodeProgram rejects any other version, so a
// rolling upgrade of the plan service can never misread artifacts written
// by a newer codec. Version 2 stores each (iteration, stage) all-reduce as
// one join whose contributor list optimizers reference; version 1 carried
// one all-reduce edge per contributor on every optimizer and is rejected.
const ProgramCodecVersion = 2

// wireProgram is the serialized form of schedule.Program: the compiled
// artifact with stamped per-instruction durations and explicit dependency
// edges, exactly what a remote executor needs to interpret the schedule
// without being able to compile it. The failed-worker set and the streams
// become sorted lists (JSON cannot key maps by struct); instruction IDs
// are implicit in list order, and joins are referenced by their 1-based
// list position.
type wireProgram struct {
	Version   int
	Shape     schedule.Shape
	Durations schedule.Durations
	Failed    []schedule.Worker `json:",omitempty"`
	Instrs    []wireInstr
	Joins     []schedule.Join `json:",omitempty"`
	Streams   []wireStream
}

// wireInstr is one instruction without its ID (the list index is the ID —
// Programs index edges by position, so the order is load-bearing and the
// redundant field would only invite disagreement).
type wireInstr struct {
	Op   schedule.Op
	Deps []schedule.Dep   `json:",omitempty"`
	Join schedule.JoinRef `json:",omitempty"`
	Dur  int64            `json:",omitempty"`
}

// wireStream is one worker's execution-ordered instruction stream.
type wireStream struct {
	Worker schedule.Worker
	IDs    []int
}

// EncodeProgram serializes a compiled Program into the canonical versioned
// byte format stored in the replicated plan store. Streams are emitted in
// the deterministic (pipeline, stage) worker order, so encoding the same
// Program twice — or encoding a decoded copy — yields identical bytes.
func EncodeProgram(p *schedule.Program) ([]byte, error) {
	if p == nil || len(p.Instrs) == 0 {
		return nil, fmt.Errorf("engine: refusing to encode an empty program")
	}
	w := wireProgram{
		Version:   ProgramCodecVersion,
		Shape:     p.Shape,
		Durations: p.Durations,
		Failed:    workerList(p.Failed),
		Instrs:    make([]wireInstr, len(p.Instrs)),
		Joins:     p.Joins,
	}
	for i, in := range p.Instrs {
		if in.ID != i {
			return nil, fmt.Errorf("engine: program instruction %d carries ID %d — IDs must equal list positions", i, in.ID)
		}
		w.Instrs[i] = wireInstr{Op: in.Op, Deps: in.Deps, Join: in.Join, Dur: in.Dur}
	}
	for _, wk := range p.Workers() {
		w.Streams = append(w.Streams, wireStream{Worker: wk, IDs: p.Streams[wk]})
	}
	return json.Marshal(w)
}

// DecodeProgram parses bytes written by EncodeProgram, validates the codec
// version and the shape, rebuilds the Program with IDs re-stamped from
// list positions, and runs the full structural Validate (streams partition
// the instructions, every op fits the shape, edges and joins are
// consistent, the graph is acyclic) — a decoded artifact is executable or
// the decode fails.
func DecodeProgram(data []byte) (*schedule.Program, error) {
	var w wireProgram
	if err := json.Unmarshal(data, &w); err != nil {
		return nil, fmt.Errorf("engine: undecodable program: %w", err)
	}
	if w.Version != ProgramCodecVersion {
		return nil, fmt.Errorf("engine: program codec version %d, want %d", w.Version, ProgramCodecVersion)
	}
	if err := w.Shape.Validate(); err != nil {
		return nil, fmt.Errorf("engine: decoded program: %w", err)
	}
	if len(w.Instrs) == 0 {
		return nil, fmt.Errorf("engine: decoded program has no instructions")
	}
	p := &schedule.Program{
		Shape:     w.Shape,
		Durations: w.Durations,
		Failed:    make(map[schedule.Worker]bool, len(w.Failed)),
		Instrs:    make([]schedule.Instr, len(w.Instrs)),
		Joins:     w.Joins,
		Streams:   make(map[schedule.Worker][]int, len(w.Streams)),
	}
	for _, fw := range w.Failed {
		p.Failed[fw] = true
	}
	for i, in := range w.Instrs {
		p.Instrs[i] = schedule.Instr{ID: i, Op: in.Op, Deps: in.Deps, Join: in.Join, Dur: in.Dur}
	}
	for _, st := range w.Streams {
		if _, dup := p.Streams[st.Worker]; dup {
			return nil, fmt.Errorf("engine: decoded program repeats stream for %s", st.Worker)
		}
		p.Streams[st.Worker] = st.IDs
	}
	if err := p.Validate(); err != nil {
		return nil, fmt.Errorf("engine: decoded program: %w", err)
	}
	return p, nil
}
