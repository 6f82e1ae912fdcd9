package dtrain

import (
	"fmt"
	"sync"

	"recycle/internal/nn"
	"recycle/internal/obs"
	"recycle/internal/tensor"
)

// msgKind tags router messages.
type msgKind int8

const (
	// msgAct carries a stage-boundary activation downstream (the
	// ReRouteAct path: the sender looks up the *executing* worker of the
	// next stage, which may be a data-parallel peer).
	msgAct msgKind = iota
	// msgGrad carries an input gradient upstream (ReRouteGrad).
	msgGrad
	// msgContrib carries a worker's WeightGradStore to its stage's
	// all-reduce root.
	msgContrib
	// msgReduced broadcasts reduced gradients from the root to peers.
	msgReduced
)

// msgKey addresses one rendezvous between two ops: the (sender, receiver,
// micro-batch) coordinate of the re-send protocol. Sender and receiver are
// implicit in (kind, stage, mb): an msgAct to stage s comes from stage
// s-1's executor of that micro-batch, an msgGrad to stage s from stage
// s+1's, and contribution/broadcast messages name the peer pipeline. The
// key deliberately addresses by the micro-batch's *home* pipeline, not by
// the executing worker, so a payload re-requested by re-routed work — the
// same logical message, a different physical executor — resolves to the
// same stash slot.
type msgKey struct {
	kind  msgKind
	stage int
	iter  int
	mb    nn.MBKey
	// peer disambiguates contribution/broadcast messages per pipeline.
	peer int
}

// payload is the router's unit of exchange.
type payload struct {
	mat      *tensor.Matrix
	contribs map[nn.MBKey][]*tensor.Matrix
	grads    []*tensor.Matrix
}

// sendStash is the PipeDream-style stash-and-replay send buffer: every
// cross-worker payload is stashed under its msgKey before it is offered to
// the rendezvous channel and stays replayable until the iteration-boundary
// GC (ackIteration) acknowledges and collects it. The ring is
// one slot deep per key by construction: a msgKey is sent at most twice in
// one iteration — the original send plus at most one re-derived send when
// the producer itself is re-executed after a failure — and both copies are
// bitwise identical (re-execution recomputes the same tensors from the
// same replica parameters), so latest-wins overwrite loses nothing.
type sendStash struct {
	mu sync.Mutex
	m  map[msgKey]payload
}

func newSendStash() *sendStash { return &sendStash{m: make(map[msgKey]payload)} }

// put stashes a payload for later replay. Re-stashing a key collected by
// its iteration's GC re-opens it (a fresh send is a fresh obligation).
func (s *sendStash) put(k msgKey, p payload) {
	s.mu.Lock()
	s.m[k] = p
	s.mu.Unlock()
}

// replay returns the stashed payload for k when one is replayable: sent
// and not yet collected by its iteration's boundary GC.
func (s *sendStash) replay(k msgKey) (payload, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	p, ok := s.m[k]
	return p, ok
}

// ackIteration acknowledges and garbage-collects every stashed payload of
// one iteration — the boundary GC that bounds stash memory to a single
// iteration's cross-worker traffic. Returns how many entries it collected.
func (s *sendStash) ackIteration(iter int) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	n := 0
	for k := range s.m {
		if k.iter == iter {
			delete(s.m, k)
			n++
		}
	}
	return n
}

// len returns the number of stashed entries.
func (s *sendStash) len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.m)
}

// router is an in-process rendezvous transport with an upstream re-send
// protocol: senders stash every payload in the sendStash before offering
// it on a content-addressed single-slot channel, so a receiver whose
// predecessor consumed the original copy — re-routed work re-requesting a
// tensor that died with a killed worker — replays it from the stash
// instead of blocking forever. An abort releases every blocked party so an
// erroring iteration can unwind instead of hanging peers whose producers
// will never send.
type router struct {
	mu    sync.Mutex
	m     map[msgKey]chan payload
	stash *sendStash
	done  chan struct{}
	once  sync.Once
	// rec, when enabled, records a re-send event each time a payload is
	// served from the stash instead of the live rendezvous (nil in tests
	// that build routers directly).
	rec obs.Recorder
}

func newRouter() *router {
	return &router{m: make(map[msgKey]chan payload), stash: newSendStash(), done: make(chan struct{})}
}

func (r *router) ch(k msgKey) chan payload {
	r.mu.Lock()
	defer r.mu.Unlock()
	c, ok := r.m[k]
	if !ok {
		c = make(chan payload, 1)
		r.m[k] = c
	}
	return c
}

// send stashes the payload, then offers it on the rendezvous channel.
// It never blocks: a full channel means a bitwise-identical copy of this
// key's payload is already buffered (a replayed producer re-sending after
// a failure), so the duplicate is dropped — which is also what makes a
// mid-send abort unable to strand the sender. ok=false means the iteration
// was aborted and the receiver will never come; the sender should unwind
// like an aborted receiver.
func (r *router) send(k msgKey, p payload) bool {
	// Check done first, symmetrically with recv: after an abort the
	// receiver will never come, so the sender unwinds instead of doing
	// work nobody consumes.
	select {
	case <-r.done:
		return false
	default:
	}
	r.stash.put(k, p)
	select {
	case r.ch(k) <- p:
	default:
		// Channel full: this key was already sent and not yet consumed.
		// The buffered copy is bitwise identical and serves any receiver,
		// so the duplicate is dropped rather than blocking on a
		// rendezvous nobody may ever complete.
	}
	return true
}

// recv blocks for the message under k; ok=false means the iteration was
// aborted and the message will never arrive. Resolution order: the live
// rendezvous channel first, then the send stash (the replay path — the
// original copy was consumed by an executor that has since died or been
// invalidated), then a blocking wait for a send still to come.
func (r *router) recv(k msgKey) (payload, bool) {
	c := r.ch(k)
	select {
	case p := <-c:
		return p, true
	default:
	}
	if p, ok := r.stash.replay(k); ok {
		if r.rec != nil && r.rec.Enabled() {
			r.rec.Event(obs.Event{Kind: obs.EvResend, At: -1, Iter: k.iter, Detail: k.String()})
		}
		return p, true
	}
	select {
	case p := <-c:
		return p, true
	case <-r.done:
		return payload{}, false
	}
}

// ackIteration acknowledges and garbage-collects the iteration's stashed
// sends — called at the iteration boundary, once the optimizer steps are
// validated and no failure can re-request this iteration's tensors.
func (r *router) ackIteration(iter int) int { return r.stash.ackIteration(iter) }

// abort releases every blocked party (idempotent).
func (r *router) abort() { r.once.Do(func() { close(r.done) }) }

func (k msgKey) String() string {
	return fmt.Sprintf("kind=%d stage=%d iter=%d mb=%+v peer=%d", k.kind, k.stage, k.iter, k.mb, k.peer)
}
