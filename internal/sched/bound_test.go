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

// countingDevice counts full estimates. Embedding the MEMS device keeps
// every optional interface it implements, its lower bound included.
type countingDevice struct {
	*mems.Device
	estimates int
}

func (c *countingDevice) EstimateAccess(r *core.Request, now float64) float64 {
	c.estimates++
	return c.Device.EstimateAccess(r, now)
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
var boundedPolicies = []struct {
	name string
	mk   func() *SPTF
}{
	{"SPTF", NewSPTF},
	{"Priority", NewPriority},
	{"ASPTF(0.05)", func() *SPTF { return NewASPTF(0.05) }},
	// A weight this large makes most aged costs round to the same
	// value, so ties dominate.
	{"ASPTF(1e6)", func() *SPTF { return NewASPTF(1e6) }},
	// Costs floored to quarter milliseconds tie across distinct
	// requests whose bounds differ, the case where a bound equal to
	// the best cost must still be priced at an earlier index. Floor
	// is monotone, so the floored bound stays a bound.
	{"coarse", func() *SPTF {
		s := NewCostSPTF("coarse", func(d core.Device, r *core.Request, now float64) float64 {
			return math.Floor(4*core.AccessCost(d, r, now)) / 4
		})
		s.bound = func(lb core.LowerBounder, k *core.BoundKey, r *core.Request, now float64) float64 {
			return math.Floor(4*core.AccessCostBound(lb, k, r, now)) / 4
		}
		return s
	}},
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
// depths run from 1 to 600; the queue is refilled to a random level
// near the depth before each dispatch, so it also shrinks and regrows
// between keyed dispatches; one dispatch in eight is requeued, as the
// engine returns a failed service visit; one step in fifty resets both
// queues mid-run; a fifth of the requests duplicate an earlier one
// field for field (so estimates tie exactly and the queue-index
// tie-break decides); classes are mixed, arrivals fall on both sides
// of DefaultPromoteMs, and one dispatch in ten follows an idle gap past
// power.Managed's timeout, so its bound carries a restart penalty.
func TestPrunedDispatchMatchesFullPricing(t *testing.T) {
	classes := []core.Class{core.ClassForeground, core.ClassDegradedRead, core.ClassRebuild}
	for _, p := range boundedPolicies {
		for _, depth := range []int{1, 2, 3, 5, 8, 17, 64, 256, 600} {
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
// keyed scheduler at depth 64 allocates nothing: the keys and
// candidates reuse their backing arrays, and a dispatched request
// re-added keeps the depth.
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
