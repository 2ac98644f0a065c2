// Package sched implements the four request-scheduling algorithms the
// paper compares (§4.1): First-Come-First-Served, Shortest-Seek-Time-First
// approximated by LBN distance (SSTF_LBN), Cyclical LOOK (C-LOOK), and
// Shortest-Positioning-Time-First (SPTF).
//
// All schedulers implement core.Scheduler. SSTF_LBN and C-LOOK use only
// logical block numbers, treating LBN distance as a proxy for positioning
// time — the information a host OS actually has (§4.1, Worthington et
// al.). SPTF asks the device model for an exact positioning estimate,
// which for disks captures rotational latency and for MEMS-based storage
// captures the overlapped X/Y seeks and settling time (§4.2).
//
// Every policy embeds one pending-request core (Add, Len, Reset and a
// swap-remove) and supplies its own Next; SPTF also keeps each queued
// request's bound key beside it, and FCFS serves from a head index
// rather than by swap-remove. The extensions are SPTF with a
// different cost model (SettleAware, ASPTF) or with class bands
// (Priority), never a new queue type.
package sched

import (
	"fmt"
	"math"

	"memsim/internal/core"
)

// New constructs a scheduler by algorithm name: one of the paper's four
// ("FCFS", "SSTF_LBN", "C-LOOK", "SPTF") or a cost-model extension
// ("SettleAware", "Priority"). It returns an error for unknown names.
func New(name string) (core.Scheduler, error) {
	switch name {
	case "FCFS":
		return NewFCFS(), nil
	case "SSTF_LBN", "SSTF":
		return NewSSTF(), nil
	case "C-LOOK", "CLOOK":
		return NewCLOOK(), nil
	case "SPTF":
		return NewSPTF(), nil
	case "SettleAware":
		return NewSettleAware(), nil
	case "Priority":
		return NewPriority(), nil
	default:
		return nil, fmt.Errorf("sched: unknown algorithm %q", name)
	}
}

// Names lists the paper's four algorithms in its presentation order.
// Artifact sweeps iterate this list, so it deliberately excludes the
// extensions; see AllNames.
func Names() []string { return []string{"FCFS", "SSTF_LBN", "C-LOOK", "SPTF"} }

// AllNames lists every name New accepts: the paper's four and the
// cost-model extensions.
func AllNames() []string { return append(Names(), "SettleAware", "Priority") }

// queue is the pending-request core every policy shares: the pending
// requests in scan order, and pos, the block following the most
// recently dispatched request — the reference point for the
// LBN-distance policies. Reset keeps the backing array (elements
// cleared so serviced requests are not pinned) so a reused scheduler
// does not regrow its queue from scratch every run.
type queue struct {
	q   []*core.Request
	pos int64
}

// Add implements core.Scheduler.
func (q *queue) Add(r *core.Request) { q.q = append(q.q, r) }

// Len implements core.Scheduler.
func (q *queue) Len() int { return len(q.q) }

// Reset implements core.Scheduler.
func (q *queue) Reset() {
	clear(q.q)
	q.q, q.pos = q.q[:0], 0
}

// take swap-removes and returns the i'th pending request, moving the
// head position past it. Swap-removal permutes the scan order; the
// policies' tie-breaks are defined on that permuted order.
func (q *queue) take(i int) *core.Request {
	r, last := q.q[i], len(q.q)-1
	q.q[i] = q.q[last]
	q.q[last] = nil
	q.q = q.q[:last]
	q.pos = r.LBN + int64(r.Blocks)
	return r
}

// FCFS services requests strictly in arrival order. It is the reference
// point that saturates first in Figs. 5 and 6.
//
// The pending requests are q[head:]; q[:head] is the dead prefix of
// served slots, each set to nil so the backing array pins no served
// request. A dispatch only advances head, and an Add that finds the
// array full compacts it instead of growing it when the dead prefix is
// at least a quarter of it. So every request is copied O(1) times
// amortized at any depth, and the array grows only when at least three
// quarters of it is pending.
type FCFS struct {
	queue
	head int
}

// NewFCFS returns an empty FCFS queue.
func NewFCFS() *FCFS { return &FCFS{} }

// Name implements core.Scheduler.
func (f *FCFS) Name() string { return "FCFS" }

// Add implements core.Scheduler.
func (f *FCFS) Add(r *core.Request) {
	if len(f.q) == cap(f.q) && 4*f.head >= len(f.q) {
		n := copy(f.q, f.q[f.head:])
		clear(f.q[n:])
		f.q, f.head = f.q[:n], 0
	}
	f.q = append(f.q, r)
}

// Len implements core.Scheduler.
func (f *FCFS) Len() int { return len(f.q) - f.head }

// Reset implements core.Scheduler.
func (f *FCFS) Reset() {
	f.queue.Reset()
	f.head = 0
}

// Next implements core.Scheduler.
func (f *FCFS) Next(core.Device, float64) *core.Request {
	if f.Len() == 0 {
		return nil
	}
	r := f.q[f.head]
	f.q[f.head] = nil
	f.head++
	return r
}

// Requeue implements core.Requeuer: a request retried after a failed
// service visit goes back to the head of the queue, ahead of fresh
// arrivals — it already waited its turn once. After a Next it takes
// back the slot that Next freed, in O(1); only when an Add has
// compacted the array since then does it shift the queue, once per
// compaction. The position-aware schedulers
// (SSTF_LBN, C-LOOK, SPTF) need no such method: they rescan the whole
// queue at every dispatch, so a retried request competes on position
// like any other and plain Add suffices.
func (f *FCFS) Requeue(r *core.Request) {
	if f.head == 0 {
		f.q = append(f.q, nil)
		copy(f.q[1:], f.q)
		f.q[0] = r
		return
	}
	f.head--
	f.q[f.head] = r
}

// SSTF schedules the pending request whose starting LBN is closest to the
// last accessed LBN ("SSTF_LBN" in the paper): a greedy policy with good
// average performance but poor starvation resistance.
type SSTF struct{ queue }

// NewSSTF returns an empty SSTF_LBN queue.
func NewSSTF() *SSTF { return &SSTF{} }

// Name implements core.Scheduler.
func (s *SSTF) Name() string { return "SSTF_LBN" }

// Next implements core.Scheduler.
func (s *SSTF) Next(core.Device, float64) *core.Request {
	if len(s.q) == 0 {
		return nil
	}
	best, bestDist := 0, int64(-1)
	for i, r := range s.q {
		d := r.LBN - s.pos
		if d < 0 {
			d = -d
		}
		if bestDist < 0 || d < bestDist {
			best, bestDist = i, d
		}
	}
	return s.take(best)
}

// CLOOK services requests in ascending LBN order, starting over with the
// lowest pending LBN once no request lies ahead of the most recent one
// (Seaman et al., 1966). It trades a little average performance for the
// best starvation resistance of the four policies.
type CLOOK struct{ queue }

// NewCLOOK returns an empty C-LOOK queue.
func NewCLOOK() *CLOOK { return &CLOOK{} }

// Name implements core.Scheduler.
func (c *CLOOK) Name() string { return "C-LOOK" }

// Next implements core.Scheduler.
func (c *CLOOK) Next(core.Device, float64) *core.Request {
	if len(c.q) == 0 {
		return nil
	}
	// The request with the smallest LBN ≥ pos; if none, wrap to the
	// smallest LBN overall.
	ahead, lowest := -1, 0
	for i, r := range c.q {
		if r.LBN < c.q[lowest].LBN {
			lowest = i
		}
		if r.LBN >= c.pos && (ahead < 0 || r.LBN < c.q[ahead].LBN) {
			ahead = i
		}
	}
	if ahead < 0 {
		ahead = lowest
	}
	return c.take(ahead)
}

// SPTF services the pending request with the smallest predicted cost
// under an injectable core.CostModel. The default model is the device's
// own service-time estimate from its current mechanical state — classic
// shortest-positioning-time-first (Seltzer et al.; Jacobson & Wilkes):
// for disks this accounts for rotational position; for MEMS-based
// storage it accounts for the parallel X/Y seeks, spring forces, and
// settling time. Variants plug in a different scoring function or a
// service band rather than a new queue type (see NewSettleAware,
// NewASPTF, NewPriority).
//
// Ties break on queue position: among equal-cost candidates in the same
// band the earliest-scanned wins, and the internal scan order is
// arrival order permuted by swap-removal. Determinism tests pin this.
type SPTF struct {
	queue
	cost core.CostModel
	// bound, when set, is a lower bound on cost that is cheaper to
	// evaluate: never above cost for the same arguments, bit for bit.
	// Next prices in full only the candidates whose bound could still
	// win. Nil means no bound.
	bound core.BoundModel
	name  string
	// band ranks a request's urgency at time now, lower first; the cost
	// model only orders requests within the most urgent pending band.
	// Nil means a single band.
	band func(r *core.Request, now float64) int
	// keys holds the device's bound key of q[i] at keys[i]. Next keys the
	// requests added since the last dispatch (Add has no device), and
	// take swap-removes a key with its request, so each queued request
	// is keyed once however many dispatches it waits through.
	keys []core.BoundKey
	// cands holds the candidates of the current dispatch, reused across
	// calls.
	cands []candidate
	// walkAt is the queue depth at which a dispatch starts walking the
	// queue outward from the device's position (see walk); 0 never
	// walks. Only a single-band SPTF whose bound is the device's own
	// LowerBound may walk: the device's Floor bounds nothing else.
	walkAt int
	// idx buckets the keyed requests by key cylinder while the queue is
	// deep.
	idx cylIndex
}

// candidate is one pending request's queue index, band and cost lower
// bound.
type candidate struct {
	i, band int32
	bound   float64
}

// NewSPTF returns an empty SPTF queue scoring by full estimated service
// time (core.AccessCost).
func NewSPTF() *SPTF {
	s := NewCostSPTF("SPTF", core.AccessCost)
	s.bound = core.AccessCostBound
	s.walkAt = walkDepth
	return s
}

// NewSettleAware returns an SPTF queue scoring by core.SettleAwareCost:
// the estimate minus its settle phase. Settle is the unschedulable
// floor of MEMS positioning — every access pays it wherever the sled
// starts — so discounting it ranks candidates by the seek work the
// scheduler can actually avoid. On devices that cannot estimate a
// breakdown it behaves exactly like SPTF. It prices every candidate in
// full: a request that crosses cylinders can pay more than one settle,
// so the estimate minus one settle has no proven cheap bound.
func NewSettleAware() *SPTF { return NewCostSPTF("SettleAware", core.SettleAwareCost) }

// NewCostSPTF returns an SPTF queue over an arbitrary cost model,
// reported under the given name; it prices every candidate in full. It
// panics on a nil model.
func NewCostSPTF(name string, cost core.CostModel) *SPTF {
	if cost == nil {
		panic("sched: nil cost model")
	}
	return &SPTF{cost: cost, name: name}
}

// Name implements core.Scheduler.
func (s *SPTF) Name() string { return s.name }

// Reset implements core.Scheduler.
func (s *SPTF) Reset() {
	s.queue.Reset()
	s.keys = s.keys[:0]
	s.idx.drop()
}

// take swap-removes the i'th pending request and, when the queue is
// keyed, its bound key and its place in the cylinder index. The index
// is dropped once the queue is down to half the depth that built it.
func (s *SPTF) take(i int) *core.Request {
	if last := len(s.keys) - 1; last == len(s.q)-1 {
		if s.idx.on {
			s.idx.remove(i, last, s.keys)
		}
		s.keys[i] = s.keys[last]
		s.keys = s.keys[:last]
	}
	r := s.queue.take(i)
	if s.idx.on && len(s.q) < s.walkAt/2 {
		s.idx.drop()
	}
	return r
}

// Next implements core.Scheduler: the pending request with the
// lexicographically least (band, cost, queue index). A lone pending
// request is that request, so it is returned unpriced. Otherwise the
// seed, the candidate with the least (band, bound, index), is priced in
// full, and pick prices in queue order only the candidates that could
// still beat the best so far: a worse band, a bound above the best
// cost, or a bound equal to it at a later index cannot win, because
// cost ≥ bound. Without a bound model, or on a device that cannot bound
// its estimates, every candidate's bound is −Inf (not 0, which derived
// cost models can go below), so every candidate in the most urgent band
// is priced.
//
// A shallow queue finds the seed and the candidates by bounding every
// request; a deep one walks outward from the device's position
// and bounds only the requests on cylinders whose floor could still
// hold a winner (walk). Both hand pick the same seed and the same
// candidates in the same order, so they price the same requests and
// make the same pick.
//
// The keys are the device's, so a scheduler must serve one device
// between Resets.
func (s *SPTF) Next(d core.Device, now float64) *core.Request {
	switch len(s.q) {
	case 0:
		return nil
	case 1:
		return s.take(0)
	}
	var lb core.LowerBounder
	if s.bound != nil {
		lb, _ = d.(core.LowerBounder)
	}
	if lb != nil {
		keyed := len(s.keys)
		for _, r := range s.q[keyed:] {
			s.keys = append(s.keys, lb.BoundKey(r))
		}
		if !s.idx.on && s.walkAt > 0 && len(s.q) >= s.walkAt {
			s.idx.on, keyed = true, 0
		}
		if s.idx.on {
			for i := keyed; i < len(s.keys); i++ {
				s.idx.insert(i, s.keys[i].Cyl)
			}
			return s.take(s.walk(d, lb, now))
		}
	}
	// The linear scan: every candidate's band and bound (−Inf with no
	// lb), the seed the least (band, bound, index).
	s.cands = s.cands[:0]
	seed := 0
	for i, r := range s.q {
		c := candidate{i: int32(i), bound: math.Inf(-1)}
		if s.band != nil {
			c.band = int32(s.band(r, now))
		}
		if lb != nil {
			c.bound = s.bound(lb, &s.keys[i], r, now)
		}
		s.cands = append(s.cands, c)
		if sc := s.cands[seed]; c.band < sc.band || c.band == sc.band && c.bound < sc.bound {
			seed = i
		}
	}
	return s.take(s.pick(d, now, s.cands[seed], s.cost(d, s.q[seed], now), s.cands))
}

// pick finishes a dispatch from the seed, whose full cost is bestT: in
// queue order it prices each candidate that could still beat the best
// so far and returns the winner's queue index. cands must hold, in
// ascending queue index, every candidate whose band is the seed's and
// whose bound is at most bestT; others are skipped.
func (s *SPTF) pick(d core.Device, now float64, seed candidate, bestT float64, cands []candidate) int {
	best := seed.i
	for _, c := range cands {
		if c.i == seed.i || c.band > seed.band || c.bound > bestT || c.bound == bestT && c.i > best {
			continue
		}
		if t := s.cost(d, s.q[c.i], now); t < bestT || t == bestT && c.i < best {
			best, bestT = c.i, t
		}
	}
	return int(best)
}
