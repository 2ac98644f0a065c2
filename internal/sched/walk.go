package sched

import (
	"math"
	"math/bits"
	"slices"

	"memsim/internal/core"
)

// walkDepth is the queue depth at which a dispatch of a single-band
// SPTF starts walking its queue outward from the device's position
// instead of bounding every request. On the open-arrival sweeps that
// reach it (striping, fig6, fig8) the end-to-end time is the same
// within noise for a crossover of 64, 128 or 256, while the index
// allocates less the higher it is; BenchmarkSPTFScan's starved queues,
// the walk's worst case, have it up to a fifth slower per dispatch
// below 256, even at 256 and 1.3–1.7× faster at 384–512. The TPC-C
// replays and the open random workloads stay below 64, so no choice
// in that range reaches them.
const walkDepth = 256

// cylIndex buckets a deep queue's keyed requests by key cylinder: one
// intrusive doubly linked list per cylinder, threaded through the queue
// indexes, and a bitmap of the cylinders that hold any. SPTF turns it
// on when a dispatch finds the queue walkDepth deep and drops it once
// the queue is down to half that, so a shallow queue never pays for
// it; its storage is kept for the next deep stretch.
type cylIndex struct {
	on bool
	// head[c] is a queue index keyed to cylinder c, or −1.
	head []int32
	// next and prev link the queue indexes of one cylinder; −1 ends a
	// list.
	next, prev []int32
	// occ has bit c set iff head[c] ≥ 0.
	occ []uint64
	// seen marks the queue indexes a walk has bounded, and bound holds
	// their bounds, so the walk can hand them to pick in queue order
	// without sorting.
	seen  []uint64
	bound []float64
	// bucket, bucketKeys and bucketReqs gather one cylinder's queue
	// indexes, keys and requests, so the walk bounds the cylinder in
	// one call.
	bucket     []int32
	bucketKeys []core.BoundKey
	bucketReqs []*core.Request
}

// insert files queue index i under cylinder c (non-negative).
func (x *cylIndex) insert(i int, c int32) {
	if int(c) >= len(x.head) {
		for len(x.head) <= int(c) {
			x.head = append(x.head, -1)
		}
		for len(x.occ) < (len(x.head)+63)/64 {
			x.occ = append(x.occ, 0)
		}
	}
	for len(x.next) <= i {
		x.next, x.prev = append(x.next, -1), append(x.prev, -1)
		x.bound = append(x.bound, 0)
		if len(x.seen)*64 < len(x.next) {
			x.seen = append(x.seen, 0)
		}
	}
	h := x.head[c]
	x.next[i], x.prev[i] = h, -1
	if h >= 0 {
		x.prev[h] = int32(i)
	} else {
		x.occ[c>>6] |= 1 << (c & 63)
	}
	x.head[c] = int32(i)
}

// remove follows the queue's swap-remove of index i: it unlinks i, then
// relinks the request at index last, which moves to i. keys are the
// queue's keys before the swap.
func (x *cylIndex) remove(i, last int, keys []core.BoundKey) {
	c := keys[i].Cyl
	p, n := x.prev[i], x.next[i]
	if p >= 0 {
		x.next[p] = n
	} else if x.head[c] = n; n < 0 {
		x.occ[c>>6] &^= 1 << (c & 63)
	}
	if n >= 0 {
		x.prev[n] = p
	}
	if i == last {
		return
	}
	c = keys[last].Cyl
	p, n = x.prev[last], x.next[last]
	x.prev[i], x.next[i] = p, n
	if p >= 0 {
		x.next[p] = int32(i)
	} else {
		x.head[c] = int32(i)
	}
	if n >= 0 {
		x.prev[n] = int32(i)
	}
}

// drop empties the index and turns it off, visiting only the occupied
// cylinders.
func (x *cylIndex) drop() {
	for w, m := range x.occ {
		for ; m != 0; m &= m - 1 {
			x.head[w<<6+bits.TrailingZeros64(m)] = -1
		}
		x.occ[w] = 0
	}
	x.on = false
}

// atOrAbove returns the least occupied cylinder ≥ c, or −1.
func (x *cylIndex) atOrAbove(c int32) int32 {
	c = max(c, 0)
	w := int(c >> 6)
	if w >= len(x.occ) {
		return -1
	}
	m := x.occ[w] &^ (1<<(c&63) - 1)
	for m == 0 {
		if w++; w == len(x.occ) {
			return -1
		}
		m = x.occ[w]
	}
	return int32(w<<6 + bits.TrailingZeros64(m))
}

// atOrBelow returns the greatest occupied cylinder ≤ c, or −1.
func (x *cylIndex) atOrBelow(c int32) int32 {
	if c < 0 || len(x.occ) == 0 {
		return -1
	}
	w := int(c >> 6)
	m := ^uint64(0)
	if w >= len(x.occ) {
		w = len(x.occ) - 1
	} else {
		m = 2<<(c&63) - 1
	}
	for m &= x.occ[w]; m == 0; m = x.occ[w] {
		if w--; w < 0 {
			return -1
		}
	}
	return int32(w<<6 + 63 - bits.LeadingZeros64(m))
}

// frontier is the next unvisited occupied cylinder on one side of the
// walk and its floor; cyl −1 (floor +Inf) when the side is exhausted.
type frontier struct {
	cyl   int32
	floor float64
}

// at moves the frontier to cylinder c and prices its floor.
func (f *frontier) at(c int32, lb core.LowerBounder, now float64) {
	f.cyl, f.floor = c, math.Inf(1)
	if c >= 0 {
		f.floor = lb.Floor(c, now)
	}
}

// walk is Next's scan of a deep, indexed queue. It visits the occupied
// key cylinders outward from the device's, the side with the lower
// floor first, and bounds each visited cylinder's requests in one
// call; since floors never decrease outward, the least unvisited floor
// bounds every unvisited request's bound. It walks
// until that floor is strictly above the least bound seen, so the least
// (bound, index) seen is the seed the linear scan finds; it prices the
// seed and walks on while the floor is at most that cost, so every
// request whose bound is at most the seed's cost has been seen. Those
// requests go to pick in queue order: pick then prices exactly what it
// prices after the linear scan, in the same order.
func (s *SPTF) walk(d core.Device, lb core.LowerBounder, now float64) int {
	x := &s.idx
	home := lb.KeyCyl()
	var hi, lo frontier
	hi.at(x.atOrAbove(home), lb, now)
	lo.at(x.atOrBelow(home-1), lb, now)
	seed, limit := candidate{i: -1}, math.Inf(1)
	priced, bestT := false, 0.0
	for {
		f := &hi
		if hi.cyl < 0 || lo.cyl >= 0 && lo.floor < hi.floor {
			f = &lo
		}
		if f.cyl < 0 || !(f.floor <= limit) {
			if priced {
				break
			}
			bestT = s.cost(d, s.q[seed.i], now)
			priced, limit = true, bestT
			continue
		}
		x.bucket, x.bucketKeys, x.bucketReqs = x.bucket[:0], x.bucketKeys[:0], x.bucketReqs[:0]
		for i := x.head[f.cyl]; i >= 0; i = x.next[i] {
			x.bucket = append(x.bucket, i)
			x.bucketKeys = append(x.bucketKeys, s.keys[i])
			x.bucketReqs = append(x.bucketReqs, s.q[i])
		}
		s.bounds = slices.Grow(s.bounds[:0], len(x.bucket))[:len(x.bucket)]
		s.bound(lb, x.bucketKeys, x.bucketReqs, now, s.bounds)
		for j, i := range x.bucket {
			c := candidate{i: i, bound: s.bounds[j]}
			x.seen[i>>6] |= 1 << (i & 63)
			x.bound[i] = c.bound
			if !priced && (seed.i < 0 || c.bound < seed.bound || c.bound == seed.bound && c.i < seed.i) {
				seed, limit = c, c.bound
			}
		}
		if f == &hi {
			hi.at(x.atOrAbove(hi.cyl+1), lb, now)
		} else {
			lo.at(x.atOrBelow(lo.cyl-1), lb, now)
		}
	}
	s.cands = s.cands[:0]
	for w, m := range x.seen[:(len(s.q)+63)/64] {
		for ; m != 0; m &= m - 1 {
			i := int32(w<<6 + bits.TrailingZeros64(m))
			if x.bound[i] <= bestT {
				s.cands = append(s.cands, candidate{i: i, bound: x.bound[i]})
			}
		}
		x.seen[w] = 0
	}
	return s.pick(d, now, seed, bestT, s.cands)
}
