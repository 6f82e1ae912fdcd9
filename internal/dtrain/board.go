package dtrain

import (
	"sync"

	"recycle/internal/schedule"
)

// depBoard is the runtime's view of Program dependency state: the logical
// (slot-time) span of every completed instruction. Executors block on it
// until an instruction's dependency edges (and an optimizer's all-reduce
// join) are satisfied, so cross-worker ordering is enforced by the
// compiled Program — the runtime never re-derives op order itself. A join
// is counted down as its contributors post, so an optimizer waits on one
// completion time, not on every contributor.
//
// Posting logical times along the same edges the discrete-event simulator
// walks makes the two executions agree by construction: both compute
// start = max(worker clock, dep ends + comm), so the runtime's executed
// timeline under unit slots is bit-identical to the simulator's prediction.
type depBoard struct {
	mu    sync.Mutex
	cond  *sync.Cond
	start []int64
	end   []int64
	joins *schedule.JoinCounter
}

func newDepBoard(p *schedule.Program) *depBoard {
	n := len(p.Instrs)
	b := &depBoard{start: make([]int64, n), end: make([]int64, n), joins: schedule.NewJoinCounter(p)}
	for i := 0; i < n; i++ {
		b.start[i], b.end[i] = -1, -1
	}
	b.cond = sync.NewCond(&b.mu)
	return b
}

// wait blocks until every dependency of ins — and its all-reduce join,
// if any — has posted and returns the earliest dependency-ready logical
// time (max producer end, plus communication latency on cross-stage
// edges), with the join's binding contributor and completion time.
func (b *depBoard) wait(p *schedule.Program, ins *schedule.Instr) (ready int64, joinBy int, joinAt int64) {
	b.mu.Lock()
	defer b.mu.Unlock()
	for _, d := range ins.Deps {
		for b.end[d.From] < 0 {
			b.cond.Wait()
		}
		if r := b.end[d.From] + p.EdgeLatency(d.Kind); r > ready {
			ready = r
		}
	}
	if ins.Join != 0 {
		for {
			at, by, fired := b.joins.Fired(ins.Join)
			if fired {
				joinAt, joinBy = at, by
				break
			}
			b.cond.Wait()
		}
		ready = max(ready, joinAt)
	}
	return ready, joinBy, joinAt
}

// joinOf returns the resolved join of a posted prefix instruction: its
// binding contributor and completion time, or ok=false when ins has no
// join or it has not fired.
func (b *depBoard) joinOf(ins *schedule.Instr) (by int, at int64, ok bool) {
	if ins.Join == 0 {
		return 0, 0, false
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	at, by, ok = b.joins.Fired(ins.Join)
	return by, at, ok
}

// post publishes an instruction's logical span, counts it down on its
// join, and wakes waiters. Only the first post of an instruction counts.
func (b *depBoard) post(id int, start, end int64) {
	b.mu.Lock()
	if b.end[id] < 0 {
		b.joins.Post(id, end)
	}
	b.start[id], b.end[id] = start, end
	b.mu.Unlock()
	b.cond.Broadcast()
}

// snapshot copies the board's spans (after the iteration's executors have
// all finished).
func (b *depBoard) snapshot() (start, end []int64) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return append([]int64(nil), b.start...), append([]int64(nil), b.end...)
}
