package main

import (
	"runtime/metrics"
	"sync"
	"sync/atomic"
	"time"
)

// heapObjects is the runtime metric for bytes held by heap objects, live
// or not yet swept: the in-use heap.
const heapObjects = "/memory/classes/heap/objects:bytes"

// heapPeak samples the in-use heap on its own goroutine until stop and
// keeps the maximum since the last reset, so each op's peak can be read.
// Reading runtime/metrics does not stop the world.
type heapPeak struct {
	done chan struct{}
	wg   sync.WaitGroup
	peak atomic.Uint64
}

// heapEvery is the sampling interval.
const heapEvery = 2 * time.Millisecond

func startHeapPeak() *heapPeak {
	h := &heapPeak{done: make(chan struct{})}
	h.sample()
	h.wg.Add(1)
	go func() {
		defer h.wg.Done()
		t := time.NewTicker(heapEvery)
		defer t.Stop()
		for {
			select {
			case <-h.done:
				return
			case <-t.C:
				h.sample()
			}
		}
	}()
	return h
}

func heapNow() uint64 {
	s := []metrics.Sample{{Name: heapObjects}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

func (h *heapPeak) sample() {
	v := heapNow()
	for {
		p := h.peak.Load()
		if v <= p || h.peak.CompareAndSwap(p, v) {
			return
		}
	}
}

// lap returns the peak since the previous lap or reset, in MB, and starts
// the next op from the current heap.
func (h *heapPeak) lap() float64 {
	h.sample()
	return float64(h.peak.Swap(heapNow())) / 1e6
}

// reset starts the next op's peak from the current heap.
func (h *heapPeak) reset() { h.peak.Store(heapNow()) }

// stop ends sampling and waits for the sampler to exit.
func (h *heapPeak) stop() {
	close(h.done)
	h.wg.Wait()
}
