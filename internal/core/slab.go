package core

// SlabLen is the most requests one slab holds. At 80 B a request, 1024
// of them are 81 920 B: exactly 10 pages of 8 KiB, which the allocator
// serves with nothing rounded up, so a request costs its own 80 B. The
// size was picked on the closed MEMS loop, where 1024-request slabs ran
// as fast as 195-request (32 KiB) ones and 5% faster than 4096-request
// ones (DESIGN §10), when a request was 168 B.
const SlabLen = 1024

// Slab carves requests out of shared allocations, so a request stream
// pays one heap allocation per SlabLen requests instead of one per
// request. Each slab holds min(SlabLen, remaining) requests, where
// remaining is what the caller says it will still draw, so a short
// stream allocates only what it uses.
//
// A request handed back with Put is handed out again by a later New
// before anything new is carved, so a stream whose requests are put
// back as they finish holds only as many as are in use at once, plus
// the rest of its first slab. Put keeps up to slabPut requests; one put
// back while that many wait is left to the garbage collector.
//
// A slab is one allocation: it stays live while any request carved
// from it is referenced, by a caller or by the Slab's list of requests
// put back. A caller that keeps one request of a stream that is not put
// back keeps up to SlabLen−1 of its neighbours' 80 B with it, at most
// 80 KiB per retained request, and no more than the stream itself
// would have held had it kept every request. A request that was put
// back belongs to the Slab again: whoever kept a pointer to it sees it
// refilled by a later New.
//
// The zero value is ready to use. A Slab is not safe for concurrent use.
type Slab struct {
	rest []Request // the unused rest of the newest slab
	put  [slabPut]*Request
	nput int
}

// slabPut is how many requests put back a Slab keeps for reuse. The
// list is part of the Slab, so keeping requests allocates nothing,
// where a growing list would allocate in every short run. At 64 it
// reuses as many requests on memsperf's open-observed and
// volume-rebuild workloads as an unbounded list does; a queue that
// drains from deeper than that leaves the rest to the collector.
const slabPut = 64

// New returns a zeroed request: the one put back last, if any, else a
// fresh one. remaining is the number of requests the caller will still
// draw from this slab, this one included; it sizes the next allocation
// when the current one is used up.
func (s *Slab) New(remaining int) *Request {
	if s.nput > 0 {
		s.nput--
		r := s.put[s.nput]
		*r = Request{}
		return r
	}
	if len(s.rest) == 0 {
		s.rest = make([]Request, min(SlabLen, max(remaining, 1)))
	}
	r := &s.rest[0]
	s.rest = s.rest[1:]
	return r
}

// Put hands r back for a later New to reuse. The caller must not touch
// r afterwards. r need not have come from this slab.
func (s *Slab) Put(r *Request) {
	if s.nput < len(s.put) {
		s.put[s.nput] = r
		s.nput++
	}
}

// NewRequests returns n zeroed requests carved from slabs, for callers
// that build a whole request list before a run.
func NewRequests(n int) []*Request {
	reqs := make([]*Request, n)
	var s Slab
	for i := range reqs {
		reqs[i] = s.New(n - i)
	}
	return reqs
}
