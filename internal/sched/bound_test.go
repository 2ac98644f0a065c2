package sched

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"memsim/internal/core"
	"memsim/internal/mems"
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

// fullPricing hides every optional interface of the device it wraps,
// core.LowerBounder among them, so a scheduler over it prices each
// candidate in full: the oracle the pruned scan must agree with.
type fullPricing struct{ core.Device }

// TestPrunedDispatchMatchesFullPricing runs each bound-pruned scheduler
// beside the same scheduler over a device that hides its bound, feeding
// both the same requests and advancing both devices by the pick. Every
// pick must be the same request. Queue depths run from 1 to 600, a
// fifth of the requests duplicate an earlier one field for field (so
// estimates tie exactly and the queue-index tie-break decides), classes
// are mixed, and arrivals fall on both sides of DefaultPromoteMs.
func TestPrunedDispatchMatchesFullPricing(t *testing.T) {
	policies := []struct {
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
			s.bound = func(d core.Device, r *core.Request, now float64) float64 {
				return math.Floor(4*core.AccessCostBound(d, r, now)) / 4
			}
			return s
		}},
	}
	classes := []core.Class{core.ClassForeground, core.ClassDegradedRead, core.ClassRebuild}
	for _, p := range policies {
		for _, depth := range []int{1, 2, 3, 5, 8, 17, 64, 256, 600} {
			t.Run(fmt.Sprintf("%s/depth=%d", p.name, depth), func(t *testing.T) {
				pruned, oracle := p.mk(), p.mk()
				pd := &countingDevice{Device: mems.MustDevice(mems.DefaultConfig())}
				od := &countingDevice{Device: mems.MustDevice(mems.DefaultConfig())}
				rng := rand.New(rand.NewSource(int64(depth)))
				var issued []*core.Request
				now := 0.0
				add := func() {
					r := &core.Request{
						Arrival: now - 2*DefaultPromoteMs*rng.Float64(),
						Op:      core.Read,
						LBN:     rng.Int63n(pd.Capacity() - 64),
						Blocks:  1 + rng.Intn(64),
						Class:   classes[rng.Intn(len(classes))],
					}
					if len(issued) > 0 && rng.Intn(5) == 0 {
						*r = *issued[rng.Intn(len(issued))]
					}
					issued = append(issued, r)
					pruned.Add(r)
					oracle.Add(r)
				}
				dispatch := func(step int) {
					got, want := pruned.Next(pd, now), oracle.Next(fullPricing{od}, now)
					if got != want {
						t.Fatalf("dispatch %d at depth %d: pruned picked %+v, full pricing %+v", step, pruned.Len()+1, *got, *want)
					}
					pd.Access(got, now)
					now += od.Access(want, now)
				}
				for pruned.Len() < depth {
					add()
				}
				for step := 0; step < 150; step++ {
					dispatch(step)
					for pruned.Len() < depth {
						add()
					}
				}
				for step := 150; pruned.Len() > 0; step++ {
					dispatch(step)
				}
				if depth >= 8 && pd.estimates >= od.estimates {
					t.Fatalf("pruned scan priced %d candidates in full, full pricing %d: nothing was pruned", pd.estimates, od.estimates)
				}
			})
		}
	}
}
