package main

// hostprobe.go measures how fast the host runs right now. The shared VMs
// this benchmark runs on change speed by 10–40% over seconds to minutes,
// as neighbours load the machine, and a rep's wall follows them. So the
// run times a fixed kernel before its first rep and after every rep, and
// divides each rep's wall by the mean of the two probes around it. The
// kernel is a small discrete-event loop (a pointer heap of events, a map
// of completions, a sort), the same kind of work as the simulator, so it
// slows when the simulator does. It lives here, not in the simulator, so
// no change to the simulator changes it.

import (
	"container/heap"
	"math/rand"
	"runtime"
	"sort"
	"time"
)

// probeNominal is the kernel's typical time on the sandbox VM the
// benchmark was first run on (bench/README.md). Host-normalised timings
// are scaled by it, so they read as seconds on that host.
const probeNominal = 0.1

// probeRounds sizes the kernel to about probeNominal.
const probeRounds = 6

type probeEvent struct {
	at float64
	id int
}

type probeQueue []*probeEvent

func (q probeQueue) Len() int           { return len(q) }
func (q probeQueue) Less(i, j int) bool { return q[i].at < q[j].at }
func (q probeQueue) Swap(i, j int)      { q[i], q[j] = q[j], q[i] }
func (q *probeQueue) Push(x any)        { *q = append(*q, x.(*probeEvent)) }
func (q *probeQueue) Pop() any {
	old := *q
	e := old[len(old)-1]
	*q = old[:len(old)-1]
	return e
}

// probeSink keeps the kernel's result live, so the compiler cannot drop
// the work.
var probeSink float64

// probeRound is one fixed round of the kernel: 60k events through a
// queue held 64 deep, with the last 256 completions kept in a map, then a
// sort of 60k floats.
func probeRound() float64 {
	const events, depth, kept = 60_000, 64, 256
	r := rand.New(rand.NewSource(1))
	q := &probeQueue{}
	done := map[int]float64{}
	now := 0.0
	for i := 0; i < events; i++ {
		heap.Push(q, &probeEvent{at: now + r.ExpFloat64(), id: i})
		if q.Len() > depth {
			e := heap.Pop(q).(*probeEvent)
			now = e.at
			done[e.id] = now
			delete(done, e.id-kept)
		}
	}
	xs := make([]float64, events)
	for i := range xs {
		xs[i] = r.Float64()
	}
	sort.Float64s(xs)
	return now + xs[0] + float64(len(done))
}

// probeHost times the kernel and returns its wall time in seconds. It
// starts from a collected heap, so sweeping the last rep's garbage is not
// part of the probe and no change to the simulator's heap moves it.
func probeHost() float64 {
	runtime.GC()
	t := time.Now()
	for range probeRounds {
		probeSink += probeRound()
	}
	return time.Since(t).Seconds()
}
