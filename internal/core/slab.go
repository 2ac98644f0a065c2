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
// A slab is one allocation: it stays live while any request carved
// from it does. A caller that keeps one request of a stream keeps up to
// SlabLen−1 of its neighbours' 80 B with it, at most 80 KiB per
// retained request, and no more than the stream itself would have held
// had it kept every request.
//
// The zero value is ready to use. A Slab is not safe for concurrent use.
type Slab struct {
	free []Request
}

// New returns a zeroed request. remaining is the number of requests the
// caller will still draw from this slab, this one included; it sizes
// the next allocation when the current one is used up.
func (s *Slab) New(remaining int) *Request {
	if len(s.free) == 0 {
		s.free = make([]Request, min(SlabLen, max(remaining, 1)))
	}
	r := &s.free[0]
	s.free = s.free[1:]
	return r
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
