package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// span is one call the benchmark made into a layer of the system: its
// name, wall interval relative to the run start, the span that caused it
// (-1 for a root) and the op it belongs to. Spans of one op share Op.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Op     int    `json:"op"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// spans records the benchmark's own spans in memory. A nil *spans, which
// every op but a probed one gets, records nothing: every method is a
// no-op, so timed code calls it unconditionally.
type spans struct {
	t0    time.Time
	list  []span
	stack []int // open spans, innermost last
	op    int
}

func newSpans() *spans { return &spans{t0: time.Now()} }

// beginOp starts a new op: spans opened until the next beginOp share its ID.
func (s *spans) beginOp() {
	if s != nil {
		s.op++
	}
}

// begin opens a span nested in the innermost open one and returns its ID.
func (s *spans) begin(name string) int {
	if s == nil {
		return -1
	}
	parent := -1
	if n := len(s.stack); n > 0 {
		parent = s.stack[n-1]
	}
	id := len(s.list)
	s.list = append(s.list, span{ID: id, Parent: parent, Op: s.op, Name: name, Start: int64(time.Since(s.t0)), End: -1})
	s.stack = append(s.stack, id)
	return id
}

// end closes span id, which must be the innermost open span.
func (s *spans) end(id int) {
	if s == nil {
		return
	}
	s.list[id].End = int64(time.Since(s.t0))
	s.stack = s.stack[:len(s.stack)-1]
}

// do runs f inside a span named name.
func (s *spans) do(name string, f func()) {
	id := s.begin(name)
	f()
	s.end(id)
}

// selfMs returns, per span name, the mean self time in milliseconds — a
// span's duration minus the part of it its children cover — and the
// number of spans of that name.
func (s *spans) selfMs() (mean map[string]float64, count map[string]int) {
	mean, count = map[string]float64{}, map[string]int{}
	if s == nil {
		return mean, count
	}
	children := make(map[int][]span)
	for _, sp := range s.list {
		if sp.Parent >= 0 {
			children[sp.Parent] = append(children[sp.Parent], sp)
		}
	}
	total := map[string]int64{}
	for _, sp := range s.list {
		if sp.End < 0 {
			continue
		}
		total[sp.Name] += sp.End - sp.Start - covered(sp, children[sp.ID])
		count[sp.Name]++
	}
	for name, ns := range total {
		mean[name] = float64(ns) / float64(count[name]) / 1e6
	}
	return mean, count
}

// covered returns how much of parent's interval the union of its
// children's intervals covers.
func covered(parent span, kids []span) int64 {
	sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
	var sum, reach int64 = 0, parent.Start
	for _, k := range kids {
		lo, hi := max(k.Start, reach), min(k.End, parent.End)
		if hi > lo {
			sum += hi - lo
			reach = hi
		}
	}
	return sum
}

// write dumps the spans as JSON into dir, named after the workload and seed.
func (s *spans) write(dir, workload string, seed int64) (string, error) {
	if s == nil {
		return "", nil
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, fmt.Sprintf("%s-seed%d.json", workload, seed))
	data, err := json.Marshal(struct {
		Workload string `json:"workload"`
		Seed     int64  `json:"seed"`
		Spans    []span `json:"spans"`
	}{workload, seed, s.list})
	if err != nil {
		return "", err
	}
	return path, os.WriteFile(path, data, 0o644)
}
