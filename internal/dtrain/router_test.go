package dtrain

import (
	"math/rand"
	"testing"
	"time"

	"recycle/internal/nn"
	"recycle/internal/tensor"
)

// TestStashRingProperty drives the send stash through seeded interleavings
// of send and iteration GC, checking the protocol invariant after
// every step: a payload is replayable if and only if it was sent and not
// since collected by its iteration's boundary GC, and what replays is
// always the latest copy sent.
func TestStashRingProperty(t *testing.T) {
	keys := make([]msgKey, 0, 12)
	for i := 0; i < 12; i++ {
		keys = append(keys, msgKey{
			kind:  msgKind(i % 4),
			stage: i % 3,
			iter:  i % 2,
			mb:    nn.MBKey{Pipeline: i % 2, MB: i / 2},
			peer:  i % 2,
		})
	}
	for seed := int64(0); seed < 25; seed++ {
		rng := rand.New(rand.NewSource(seed))
		s := newSendStash()
		model := make(map[msgKey]*tensor.Matrix) // uncollected payloads only
		for step := 0; step < 300; step++ {
			k := keys[rng.Intn(len(keys))]
			switch rng.Intn(2) {
			case 0: // send (a re-send of a collected key re-opens it)
				m := &tensor.Matrix{Rows: step}
				s.put(k, payload{mat: m})
				model[k] = m
			case 1: // iteration-boundary GC
				it := rng.Intn(2)
				s.ackIteration(it)
				for mk := range model {
					if mk.iter == it {
						delete(model, mk)
					}
				}
			}
			for _, mk := range keys {
				p, ok := s.replay(mk)
				want, live := model[mk]
				if ok != live {
					t.Fatalf("seed %d step %d: key {%s} replayable=%v, want %v", seed, step, mk, ok, live)
				}
				if ok && p.mat != want {
					t.Fatalf("seed %d step %d: key {%s} replayed a stale payload", seed, step, mk)
				}
			}
		}
	}
}

// TestStashIterationGCBoundsMemory is the regression test that the
// iteration-boundary GC actually bounds stash memory: every iteration's
// entries are collected at its boundary, so the stash
// never holds more than one iteration's cross-worker traffic.
func TestStashIterationGCBoundsMemory(t *testing.T) {
	s := newSendStash()
	const perIter = 10
	for it := 0; it < 8; it++ {
		for i := 0; i < perIter; i++ {
			s.put(msgKey{kind: msgAct, stage: i, iter: it, mb: nn.MBKey{MB: i}}, payload{})
		}
		if got := s.len(); got != perIter {
			t.Fatalf("iteration %d: stash holds %d entries before its GC, want %d (leak across boundaries)", it, got, perIter)
		}
		if n := s.ackIteration(it); n != perIter {
			t.Fatalf("iteration %d: boundary GC collected %d entries, want %d", it, n, perIter)
		}
		if got := s.len(); got != 0 {
			t.Fatalf("iteration %d: boundary GC left %d entries", it, got)
		}
	}
}

// TestIterationBoundaryReleasesStashes is the stage-side half of the
// memory-bound regression: activation stashes are retained through the
// iteration for mid-failure re-execution, so the boundary must release
// them all — a leak here would panic the next iteration's forwards.
func TestIterationBoundaryReleasesStashes(t *testing.T) {
	cfg := Config{
		DP: 2, PP: 2, MB: 4,
		InDim: 6, Hidden: 8, OutDim: 3, MicroBatchSize: 4,
		Seed: 5, LR: 1e-2,
	}
	rt := New(cfg)
	for i := 0; i < 3; i++ {
		if _, err := rt.RunIteration(); err != nil {
			t.Fatal(err)
		}
		for w, st := range rt.stages {
			if n := st.PendingStashes(); n != 0 {
				t.Fatalf("iteration %d: worker %s still holds %d activation stashes after the boundary", i, w, n)
			}
		}
	}
}

// TestAbortMidSendNeverDeadlocks pins the teardown fix: a sender whose
// rendezvous slot is already full (its receiver died or was invalidated)
// must not block — pre-fix it parked forever on the cap-1 channel — and
// after an abort both send and recv report teardown symmetrically.
func TestAbortMidSendNeverDeadlocks(t *testing.T) {
	r := newRouter()
	k := msgKey{kind: msgAct, stage: 1, iter: 0, mb: nn.MBKey{Pipeline: 0, MB: 0}}
	if !r.send(k, payload{}) {
		t.Fatal("first send rejected on a live router")
	}
	done := make(chan bool, 1)
	go func() { done <- r.send(k, payload{}) }()
	select {
	case ok := <-done:
		if !ok {
			t.Fatal("duplicate send on a live router reported teardown")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("send deadlocked on a full rendezvous channel with no receiver")
	}

	r.abort()
	r.abort() // idempotent
	if r.send(k, payload{}) {
		t.Fatal("send after abort reported success")
	}
	if _, ok := r.recv(msgKey{kind: msgGrad, stage: 0, iter: 0, mb: nn.MBKey{MB: 1}}); ok {
		t.Fatal("recv after abort reported a message")
	}
}

// TestRecvPrefersLiveChannelThenStash pins the recv resolution order the
// re-send protocol relies on: a buffered original is consumed first; once
// consumed, a re-requesting receiver is served from the stash; an
// acknowledged stash entry no longer replays.
func TestRecvPrefersLiveChannelThenStash(t *testing.T) {
	r := newRouter()
	k := msgKey{kind: msgAct, stage: 1, iter: 0, mb: nn.MBKey{MB: 2}}
	m := &tensor.Matrix{Rows: 1}
	if !r.send(k, payload{mat: m}) {
		t.Fatal("send rejected")
	}
	p, ok := r.recv(k)
	if !ok || p.mat != m {
		t.Fatal("original copy not delivered from the rendezvous channel")
	}
	// The original was consumed; a re-executed consumer re-requests the
	// same key and must be served from the send stash.
	p, ok = r.recv(k)
	if !ok || p.mat != m {
		t.Fatal("re-requested payload not replayed from the stash")
	}
	r.ackIteration(0)
	go func() {
		time.Sleep(10 * time.Millisecond)
		r.abort()
	}()
	if _, ok := r.recv(k); ok {
		t.Fatal("acked payload was replayed after the iteration-boundary GC")
	}
}

// TestChaosRouterStashSurvivesSecondLoss is the premature-GC regression
// for cascading kills: when a second splice re-loses a suffix the first
// splice already re-executed, the consumer comes back for the same payload
// a second (and Nth) time. Nothing may acknowledge the stash mid-cascade —
// the only ack point is the iteration-boundary GC after the final phase —
// so every re-request before it must still replay, and a fresh send after
// it must re-open the obligation.
func TestChaosRouterStashSurvivesSecondLoss(t *testing.T) {
	s := newSendStash()
	k := msgKey{kind: msgAct, stage: 1, iter: 2, mb: nn.MBKey{Pipeline: 0, MB: 1}, peer: 1}
	m := tensor.New(1, 1)
	s.put(k, payload{mat: m})

	// First splice: the re-executed consumer replays the payload.
	if p, ok := s.replay(k); !ok || p.mat != m {
		t.Fatal("first re-request did not replay the stashed payload")
	}
	// Second splice re-loses the same suffix before any boundary ack: the
	// payload must replay again, bit-identical.
	for n := 0; n < 3; n++ {
		if p, ok := s.replay(k); !ok || p.mat != m {
			t.Fatalf("re-request %d after a later splice missed: premature stash GC", n+2)
		}
	}
	// Only the iteration-boundary GC — the cascade's single ack point —
	// retires the obligation.
	if got := s.ackIteration(k.iter); got != 1 {
		t.Fatalf("boundary GC collected %d entries, want 1", got)
	}
	if _, ok := s.replay(k); ok {
		t.Fatal("payload replayed after its iteration was acknowledged")
	}
	// A fresh send re-opens it: a re-planned producer's new send is a new
	// obligation.
	s.put(k, payload{mat: m})
	if _, ok := s.replay(k); !ok {
		t.Fatal("re-stash after the boundary GC did not re-open the obligation")
	}
}
