// Package workload generates the synthetic request streams used in the
// paper's experiments (§3): the open-arrival "random" workload (Poisson
// arrivals, 67% reads, exponentially-distributed sizes with a 4 KB mean,
// uniformly-distributed starting locations) and the closed bipartite
// small/large workload of the data-placement study (§5.3).
//
// Generators are deterministic given their seed, so every experiment in
// this repository is exactly reproducible.
package workload

import (
	"fmt"
	"math"
	"math/rand"

	"memsim/internal/core"
	"memsim/internal/layout"
)

// Source produces a stream of requests with non-decreasing Arrival times.
// Next returns nil when the stream is exhausted. A source that is also a
// Recycler gets each request back once a run has finished with it, and
// may return it again from a later Next.
type Source interface {
	Next() *core.Request
}

// Recycler is implemented by sources that reuse the requests they hand
// out. The simulator calls Recycle once per top-level request, after
// the request's complete event has been observed and counted; from then
// on the request is the source's again, and a later Next may return it
// refilled. So a request from a recycling source belongs to the run
// until its complete event returns: a probe copies what it keeps past
// that event, and a caller reads results from the run's Result or a
// probe, not from the requests. Sources that do not implement Recycler
// keep their requests as handed out: FromSlice callers can still read
// Start and Finish from their own slice after a run.
type Recycler interface {
	Recycle(*core.Request)
}

// RandomConfig parameterizes the paper's random workload.
type RandomConfig struct {
	// Rate is the mean arrival rate in requests per second; interarrival
	// times are exponential (a Poisson process).
	Rate float64
	// ReadFraction is the probability a request is a read (0.67).
	ReadFraction float64
	// MeanBytes is the mean of the exponential request-size distribution
	// (4096). Sizes are rounded up to whole sectors, minimum one sector.
	MeanBytes float64
	// MaxBytes caps the size distribution's tail so that a single
	// request cannot exceed the device (and to keep the simulated queue
	// comparable across devices). Zero means 64× the mean.
	MaxBytes float64
	// SectorSize and Capacity describe the target device.
	SectorSize int
	Capacity   int64
	// Count is the number of requests to generate.
	Count int
	// Seed makes the stream reproducible.
	Seed int64
}

// Validate reports configuration errors. The float checks are written
// so that NaN, which compares false against everything, fails them: a
// NaN rate would put every arrival at a NaN time and the open loop
// would never drain.
func (c *RandomConfig) Validate() error {
	switch {
	case !(c.Rate > 0) || math.IsInf(c.Rate, 1):
		return fmt.Errorf("workload: rate must be positive and finite, got %g", c.Rate)
	case !(c.ReadFraction >= 0 && c.ReadFraction <= 1):
		return fmt.Errorf("workload: read fraction %g out of [0,1]", c.ReadFraction)
	case !(c.MeanBytes > 0) || math.IsInf(c.MeanBytes, 1):
		return fmt.Errorf("workload: mean size must be positive and finite, got %g", c.MeanBytes)
	case c.SectorSize <= 0:
		return fmt.Errorf("workload: sector size must be positive")
	case c.Capacity <= 0:
		return fmt.Errorf("workload: capacity must be positive")
	case c.Count <= 0:
		return fmt.Errorf("workload: count must be positive")
	}
	return nil
}

// Random is the paper's random workload generator. Its requests come
// from a core.Slab, which takes back the requests a run recycles, so a
// run keeps only as many as it has in flight.
type Random struct {
	cfg  RandomConfig
	rng  *rand.Rand
	now  float64 // ms
	left int
	slab core.Slab
}

// NewRandom builds a generator; it panics if cfg is invalid (configuration
// is programmer-controlled).
func NewRandom(cfg RandomConfig) *Random {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	if cfg.MaxBytes <= 0 {
		cfg.MaxBytes = 64 * cfg.MeanBytes
	}
	return &Random{cfg: cfg, rng: rand.New(rand.NewSource(cfg.Seed)), left: cfg.Count}
}

// DefaultRandom returns the paper's parameters (67% reads, 4 KB mean) at
// the given arrival rate for a device of the given geometry.
func DefaultRandom(rate float64, sectorSize int, capacity int64, count int, seed int64) *Random {
	return NewRandom(RandomConfig{
		Rate:         rate,
		ReadFraction: 0.67,
		MeanBytes:    4096,
		SectorSize:   sectorSize,
		Capacity:     capacity,
		Count:        count,
		Seed:         seed,
	})
}

// Next implements Source.
func (w *Random) Next() *core.Request {
	if w.left == 0 {
		return nil
	}
	w.left--
	w.now += w.rng.ExpFloat64() * 1000 / w.cfg.Rate
	op := core.Write
	if w.rng.Float64() < w.cfg.ReadFraction {
		op = core.Read
	}
	bytes := w.rng.ExpFloat64() * w.cfg.MeanBytes
	if bytes > w.cfg.MaxBytes {
		bytes = w.cfg.MaxBytes
	}
	blocks := int(bytes)/w.cfg.SectorSize + 1
	maxStart := w.cfg.Capacity - int64(blocks)
	r := w.slab.New(w.left + 1)
	r.Arrival, r.Op, r.LBN, r.Blocks = w.now, op, w.rng.Int63n(maxStart+1), blocks
	return r
}

// Recycle implements Recycler.
func (w *Random) Recycle(r *core.Request) { w.slab.Put(r) }

// Bipartite generates the closed workload of §5.3: a fraction of small
// (4 KB) requests and the remainder large (400 KB), placed by a layout
// policy. Arrival times are all zero — the experiment measures service
// time back-to-back, not queueing. Like Random's, its requests come from
// a core.Slab that takes back the requests a run recycles.
type Bipartite struct {
	placer      layout.Placer
	rng         *rand.Rand
	smallFrac   float64
	smallBlocks int
	largeBlocks int
	left        int
	slab        core.Slab
}

// BipartiteConfig parameterizes the §5.3 workload.
type BipartiteConfig struct {
	// SmallFraction is the probability a request is small (0.89).
	SmallFraction float64
	// SmallBytes and LargeBytes are the two request sizes (4 KB, 400 KB).
	SmallBytes, LargeBytes int
	// SectorSize of the target device.
	SectorSize int
	// Count is the number of requests (10 000 in the paper).
	Count int
	// Seed makes the stream reproducible.
	Seed int64
}

// DefaultBipartite returns the paper's parameters: 10 000 reads, 89%
// 4 KB, 11% 400 KB.
func DefaultBipartite(seed int64) BipartiteConfig {
	return BipartiteConfig{
		SmallFraction: 0.89,
		SmallBytes:    4096,
		LargeBytes:    400 * 1024,
		SectorSize:    512,
		Count:         10000,
		Seed:          seed,
	}
}

// NewBipartite builds the generator over the given placement policy.
func NewBipartite(cfg BipartiteConfig, p layout.Placer) *Bipartite {
	if cfg.SmallFraction < 0 || cfg.SmallFraction > 1 ||
		cfg.SmallBytes <= 0 || cfg.LargeBytes <= 0 || cfg.SectorSize <= 0 || cfg.Count <= 0 {
		panic(fmt.Sprintf("workload: invalid bipartite config %+v", cfg))
	}
	return &Bipartite{
		placer:      p,
		rng:         rand.New(rand.NewSource(cfg.Seed)),
		smallFrac:   cfg.SmallFraction,
		smallBlocks: (cfg.SmallBytes + cfg.SectorSize - 1) / cfg.SectorSize,
		largeBlocks: (cfg.LargeBytes + cfg.SectorSize - 1) / cfg.SectorSize,
		left:        cfg.Count,
	}
}

// Next implements Source.
func (w *Bipartite) Next() *core.Request {
	if w.left == 0 {
		return nil
	}
	w.left--
	class, blocks := layout.Small, w.smallBlocks
	if w.rng.Float64() >= w.smallFrac {
		class, blocks = layout.Large, w.largeBlocks
	}
	r := w.slab.New(w.left + 1)
	r.Op, r.LBN, r.Blocks = core.Read, w.placer.Place(w.rng, class, blocks), blocks
	return r
}

// Recycle implements Recycler.
func (w *Bipartite) Recycle(r *core.Request) { w.slab.Put(r) }

// Thinker is implemented by sources that attach a think-time delay to
// each request. The closed-loop simulator (sim.RunClosed) consults it:
// after a completion, the next request issues only once the most
// recently drawn think time has elapsed, modeling a multiprogrammed
// closed regime (a TPC-C-style terminal pool) instead of the default
// back-to-back loop. Sources that do not implement Thinker keep the
// historical zero-think behavior.
type Thinker interface {
	// ThinkMs returns the think time in milliseconds drawn for the most
	// recent request returned by Next.
	ThinkMs() float64
}

// ThinkDist draws one think time in milliseconds from rng.
type ThinkDist func(rng *rand.Rand) float64

// ExpThink returns an exponential think-time distribution with the
// given mean in milliseconds; a non-positive mean always draws zero.
func ExpThink(meanMs float64) ThinkDist {
	return func(rng *rand.Rand) float64 {
		if meanMs <= 0 {
			return 0
		}
		return rng.ExpFloat64() * meanMs
	}
}

// ThinkSource wraps a Source with per-request think-time draws; see
// ThinkTime.
type ThinkSource struct {
	src  Source
	rc   Recycler // src, when it recycles
	dist ThinkDist
	rng  *rand.Rand
	last float64
}

// ThinkTime wraps src so every request carries a think-time draw from
// dist, seeded independently of the wrapped stream (the arrival rng is
// untouched, so the request sequence is identical with or without the
// wrapper — only issue timing changes, and only in regimes that consult
// Thinker). A nil dist draws zero think time.
func ThinkTime(src Source, dist ThinkDist, seed int64) *ThinkSource {
	rc, _ := src.(Recycler)
	return &ThinkSource{src: src, rc: rc, dist: dist, rng: rand.New(rand.NewSource(seed))}
}

// Next implements Source, drawing the think time that precedes the
// returned request.
func (t *ThinkSource) Next() *core.Request {
	r := t.src.Next()
	if r == nil {
		return nil
	}
	if t.dist == nil {
		t.last = 0
	} else {
		t.last = t.dist(t.rng)
	}
	return r
}

// ThinkMs implements Thinker.
func (t *ThinkSource) ThinkMs() float64 { return t.last }

// Recycle implements Recycler, handing r back to the wrapped source
// when it recycles.
func (t *ThinkSource) Recycle(r *core.Request) {
	if t.rc != nil {
		t.rc.Recycle(r)
	}
}

// Slice drains a source into a slice; tests and experiments use it when
// they need the whole stream at once.
func Slice(s Source) []*core.Request {
	var out []*core.Request
	for r := s.Next(); r != nil; r = s.Next() {
		out = append(out, r)
	}
	return out
}

// FromSlice adapts a pre-built request list into a Source.
type FromSlice struct {
	reqs []*core.Request
	i    int
}

// NewFromSlice wraps reqs; the requests are not copied.
func NewFromSlice(reqs []*core.Request) *FromSlice { return &FromSlice{reqs: reqs} }

// Next implements Source.
func (s *FromSlice) Next() *core.Request {
	if s.i >= len(s.reqs) {
		return nil
	}
	r := s.reqs[s.i]
	s.i++
	return r
}
