package sched

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"memsim/internal/core"
	"memsim/internal/mems"
	"memsim/internal/power"
)

// countingDevice counts full estimates and bound evaluations (the keys
// LowerBounds bounds, and Floor calls) and, when record is set, logs
// each estimated request in call order by its extent and serial number
// (by value: a ManagedDevice above it estimates a remapped copy).
// Embedding the MEMS device keeps every optional interface it
// implements, its lower bound included.
type countingDevice struct {
	*mems.Device
	estimates, bounds int
	record            bool
	priced            []extent
}

// extent is a request's LBN and length, and the serial number a test
// keeps in its Arrival, which neither SPTF nor the devices read: it
// tells apart two queued copies of one extent.
type extent struct {
	lbn    int64
	blocks int
	serial float64
}

func (c *countingDevice) EstimateAccess(r *core.Request, now float64) float64 {
	c.estimates++
	if c.record {
		c.priced = append(c.priced, extent{r.LBN, r.Blocks, r.Arrival})
	}
	return c.Device.EstimateAccess(r, now)
}

func (c *countingDevice) LowerBounds(keys []core.BoundKey, now float64, out []float64) {
	c.bounds += len(keys)
	c.Device.LowerBounds(keys, now, out)
}

func (c *countingDevice) Floor(cyl int32, now float64) float64 {
	c.bounds++
	return c.Device.Floor(cyl, now)
}

// halfSwap is a layout that exchanges the two halves of the device, so
// a ManagedDevice's keys must come from the remapped request. It splits
// only extents that cross the midpoint, which the differential workload
// never issues.
type halfSwap struct{ half int64 }

func (h halfSwap) Name() string { return "halfswap" }

func (h halfSwap) Map(lbn int64) int64 {
	if lbn < h.half {
		return lbn + h.half
	}
	return lbn - h.half
}

// boundedPolicies are the schedulers that prune with a lower bound.
// Only SPTF runs the differential test's deep queues: the others scan
// linearly at every depth.
var boundedPolicies = []struct {
	name string
	mk   func() *SPTF
	deep bool
}{
	{"SPTF", NewSPTF, true},
	// SPTF walking its queue from depth 2 up, far below walkDepth.
	{"SPTF-walk", func() *SPTF {
		s := NewSPTF()
		s.walkAt = 2
		return s
	}, false},
	{"Priority", NewPriority, false},
	{"ASPTF(0.05)", func() *SPTF { return NewASPTF(0.05) }, false},
	// A weight this large makes most aged costs round to the same
	// value, so ties dominate.
	{"ASPTF(1e6)", func() *SPTF { return NewASPTF(1e6) }, false},
	// Costs floored to quarter milliseconds tie across distinct
	// requests whose bounds differ, the case where a bound equal to
	// the best cost must still be priced at an earlier index. Floor
	// is monotone, so the floored bound stays a bound.
	{"coarse", func() *SPTF {
		s := NewCostSPTF("coarse", func(d core.Device, r *core.Request, now float64) float64 {
			return math.Floor(4*core.AccessCost(d, r, now)) / 4
		})
		s.bound = func(lb core.LowerBounder, keys []core.BoundKey, q []*core.Request, now float64, out []float64) {
			core.AccessCostBound(lb, keys, q, now, out)
			for i := range q {
				out[i] = math.Floor(4*out[i]) / 4
			}
		}
		return s
	}, false},
}

// deviceStacks are the devices the differential test dispatches on,
// each built twice: a bare MEMS device, a ManagedDevice over a
// half-swap layout and a power.Managed with a 5 ms idle timeout. Each
// returns the stack and the MEMS device whose estimates it counts.
var deviceStacks = []struct {
	name string
	mk   func() (core.Device, *countingDevice)
}{
	{"mems", func() (core.Device, *countingDevice) {
		c := &countingDevice{Device: mems.MustDevice(mems.DefaultConfig())}
		return c, c
	}},
	{"managed", func() (core.Device, *countingDevice) {
		c := &countingDevice{Device: mems.MustDevice(mems.DefaultConfig())}
		return core.NewManagedDevice(c, halfSwap{c.Capacity() / 2}), c
	}},
	{"power", func() (core.Device, *countingDevice) {
		c := &countingDevice{Device: mems.MustDevice(mems.DefaultConfig())}
		return power.NewManaged(c, power.MEMSModel(), power.Policy{TimeoutMs: 5}), c
	}},
}

// TestPrunedDispatchMatchesFullPricing runs each bound-pruned scheduler
// beside a full-pricing reference — the same policy with its bound
// removed, so it keys nothing and prices every candidate of its band —
// on each device stack, feeding both the same requests and advancing
// both devices by the pick. Every pick must be the same request. Queue
// depths run from 1 to 600, and to 4096 for SPTF, whose deep queues
// walk outward from the sled (so its queues also cross walkDepth both
// ways, building and dropping the cylinder index); the queue is
// refilled to a random level near the depth before each dispatch, so
// it also shrinks and regrows between keyed dispatches; one dispatch in eight is requeued, as the
// engine returns a failed service visit; one step in fifty resets both
// queues mid-run; a fifth of the requests duplicate an earlier one
// field for field (so estimates tie exactly and the queue-index
// tie-break decides); classes are mixed, arrivals fall on both sides
// of DefaultPromoteMs, and one dispatch in ten follows an idle gap past
// power.Managed's timeout, so its bound carries a restart penalty.
func TestPrunedDispatchMatchesFullPricing(t *testing.T) {
	classes := []core.Class{core.ClassForeground, core.ClassDegradedRead, core.ClassRebuild}
	for _, p := range boundedPolicies {
		depths := []int{1, 2, 3, 5, 8, 17, 64, 256, 600}
		if p.deep {
			depths = append(depths, 2048, 4096)
		}
		for _, depth := range depths {
			t.Run(fmt.Sprintf("%s/depth=%d", p.name, depth), func(t *testing.T) {
				for _, stack := range deviceStacks {
					keyed, ref := p.mk(), p.mk()
					ref.bound = nil
					kd, kc := stack.mk()
					rd, rc := stack.mk()
					half := kd.Capacity() / 2
					rng := rand.New(rand.NewSource(int64(depth)))
					var issued []*core.Request
					now := 0.0
					add := func(r *core.Request) {
						keyed.Add(r)
						ref.Add(r)
					}
					fresh := func() *core.Request {
						r := &core.Request{
							Arrival: now - 2*DefaultPromoteMs*rng.Float64(),
							Op:      core.Read,
							LBN:     rng.Int63n(kd.Capacity() - 64),
							Blocks:  1 + rng.Intn(64),
							Class:   classes[rng.Intn(len(classes))],
						}
						if r.LBN < half && r.LBN+int64(r.Blocks) > half {
							r.LBN = half
						}
						if len(issued) > 0 && rng.Intn(5) == 0 {
							*r = *issued[rng.Intn(len(issued))]
						}
						issued = append(issued, r)
						return r
					}
					dispatch := func(step int) *core.Request {
						if rng.Intn(10) == 0 {
							now += 10
						}
						got, want := keyed.Next(kd, now), ref.Next(rd, now)
						if got != want {
							t.Fatalf("%s dispatch %d at depth %d: keyed picked %+v, full pricing %+v",
								stack.name, step, keyed.Len()+1, *got, *want)
						}
						kd.Access(got, now)
						now += rd.Access(want, now)
						return got
					}
					for step := 0; step < 300; step++ {
						if rng.Intn(50) == 0 {
							keyed.Reset()
							ref.Reset()
						}
						for target := depth - rng.Intn(depth/4+1); keyed.Len() < target; {
							add(fresh())
						}
						if r := dispatch(step); rng.Intn(8) == 0 {
							add(r)
						}
					}
					for step := 300; keyed.Len() > 0; step++ {
						dispatch(step)
					}
					if depth >= 8 && kc.estimates >= rc.estimates {
						t.Fatalf("%s: keyed scan priced %d candidates in full, full pricing %d: nothing was pruned",
							stack.name, kc.estimates, rc.estimates)
					}
				}
			})
		}
	}
}

// TestKeyedNextAllocatesNothing checks that a steady-state dispatch of a
// keyed scheduler at depth 64 allocates nothing: the keys, candidates
// and cylinder index reuse their backing arrays, and a dispatched
// request re-added keeps the depth.
func TestKeyedNextAllocatesNothing(t *testing.T) {
	for _, p := range boundedPolicies {
		s := p.mk()
		d := mems.MustDevice(mems.DefaultConfig())
		rng := rand.New(rand.NewSource(64))
		for s.Len() < 64 {
			s.Add(&core.Request{Op: core.Read, LBN: rng.Int63n(d.Capacity() - 64), Blocks: 1 + rng.Intn(64)})
		}
		dispatch := func() {
			r := s.Next(d, 0)
			d.Access(r, 0)
			s.Add(r)
		}
		for i := 0; i < 64; i++ {
			dispatch()
		}
		if a := testing.AllocsPerRun(200, dispatch); a != 0 {
			t.Errorf("%s: %v allocations per dispatch at depth 64, want 0", p.name, a)
		}
	}
}

// orderedVsLinear runs two SPTF queues on two builds of one device
// stack: one that walks at every depth from 2 up, one that always scans
// linearly. Both get the same requests: refill draws target depths in
// [1, depth], fresh requests come from next, and one dispatch in eight
// is re-added, as the engine requeues a failed visit; one dispatch in
// ten follows an idle gap past power.Managed's timeout. Every dispatch
// must pick the same request after pricing the same requests in full,
// in the same order. next numbers its requests in Arrival, so a
// duplicate extent priced at the wrong queue index shows.
func orderedVsLinear(t *testing.T, mk func() (core.Device, *countingDevice), rng *rand.Rand, depth, steps int, next func() *core.Request) {
	t.Helper()
	walk, scan := NewSPTF(), NewSPTF()
	walk.walkAt, scan.walkAt = 2, 0
	wd, wc := mk()
	sd, sc := mk()
	wc.record, sc.record = true, true
	now := 0.0
	dispatch := func(step int) *core.Request {
		if rng.Intn(10) == 0 {
			now += 10
		}
		wc.priced, sc.priced = wc.priced[:0], sc.priced[:0]
		got, want := walk.Next(wd, now), scan.Next(sd, now)
		if got != want {
			t.Fatalf("dispatch %d at depth %d: walk picked %+v, scan %+v", step, walk.Len()+1, *got, *want)
		}
		if len(wc.priced) != len(sc.priced) {
			t.Fatalf("dispatch %d: walk priced %d requests in full, scan %d", step, len(wc.priced), len(sc.priced))
		}
		for i := range wc.priced {
			if wc.priced[i] != sc.priced[i] {
				t.Fatalf("dispatch %d: estimate %d was of %+v on the walk, %+v on the scan", step, i, wc.priced[i], sc.priced[i])
			}
		}
		wd.Access(got, now)
		now += sd.Access(want, now)
		return got
	}
	for step := 0; step < steps; step++ {
		for target := 1 + rng.Intn(depth); walk.Len() < target; {
			r := next()
			walk.Add(r)
			scan.Add(r)
		}
		if r := dispatch(step); rng.Intn(8) == 0 {
			walk.Add(r)
			scan.Add(r)
		}
	}
	for step := steps; walk.Len() > 0; step++ {
		dispatch(step)
	}
}

// TestOrderedWalkPricesLikeLinearScan checks, on every device stack,
// that walking the queue outward from the sled asks the device for the
// same full estimates as the linear scan, call for call, from depth 2
// to 4096, a fifth of the requests duplicating an earlier one, so
// bounds and costs tie exactly. Requests run to 64 sectors, so some
// cross a track and their bounds are loose, which widens the walk.
func TestOrderedWalkPricesLikeLinearScan(t *testing.T) {
	for _, stack := range deviceStacks {
		for _, depth := range []int{2, 8, 64, 512, 4096} {
			t.Run(fmt.Sprintf("%s/depth=%d", stack.name, depth), func(t *testing.T) {
				rng := rand.New(rand.NewSource(int64(depth)))
				capacity := mems.MustDevice(mems.DefaultConfig()).Capacity()
				var issued []*core.Request
				next := func() *core.Request {
					r := &core.Request{Op: core.Read, LBN: rng.Int63n(capacity/2 - 64), Blocks: 1 + rng.Intn(64)}
					if len(issued) > 0 && rng.Intn(5) == 0 {
						*r = *issued[rng.Intn(len(issued))]
					}
					r.Arrival = float64(len(issued))
					issued = append(issued, r)
					return r
				}
				orderedVsLinear(t, stack.mk, rng, depth, 300, next)
			})
		}
	}
}

// FuzzSPTFOrderedDispatch checks the ordered walk against the linear
// scan on fuzzed queues: requests packed into a fuzzed number of
// cylinder-sized windows (so buckets hold many requests and bounds
// tie), a fuzzed share duplicating an earlier request, on a fuzzed
// device stack.
func FuzzSPTFOrderedDispatch(f *testing.F) {
	f.Add(int64(1), uint16(64), uint8(0), uint8(20), uint8(0))
	f.Add(int64(2), uint16(600), uint8(3), uint8(50), uint8(1))
	f.Add(int64(3), uint16(33), uint8(255), uint8(0), uint8(2))
	f.Add(int64(4), uint16(1500), uint8(9), uint8(90), uint8(0))
	f.Fuzz(func(t *testing.T, seed int64, depth uint16, windows, dupPct, stack uint8) {
		st := deviceStacks[int(stack)%len(deviceStacks)]
		rng := rand.New(rand.NewSource(seed))
		g := mems.MustDevice(mems.DefaultConfig()).Geometry()
		perCyl := g.TotalSectors / int64(g.Cylinders)
		starts := make([]int64, 1+int(windows)%32)
		for i := range starts {
			starts[i] = rng.Int63n(g.TotalSectors/2 - 2*perCyl)
		}
		var issued []*core.Request
		next := func() *core.Request {
			r := &core.Request{Op: core.Read, Blocks: 1 + rng.Intn(32)}
			if windows == 255 {
				r.LBN = rng.Int63n(g.TotalSectors/2 - 64)
			} else {
				r.LBN = starts[rng.Intn(len(starts))] + rng.Int63n(perCyl)
			}
			if len(issued) > 0 && rng.Intn(100) < int(dupPct)%101 {
				*r = *issued[rng.Intn(len(issued))]
			}
			r.Arrival = float64(len(issued))
			issued = append(issued, r)
			return r
		}
		orderedVsLinear(t, st.mk, rng, 2+int(depth)%2048, 100, next)
	})
}
