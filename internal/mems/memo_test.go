package mems

import (
	"math"
	"math/rand"
	"testing"

	"memsim/internal/core"
	"memsim/internal/power"
)

// memoTwins is a device stack that estimates before every Access and an
// identical stack that never does, with the MEMS devices underneath.
// fits reports whether a request may go to the stack: the half-swap
// layout must not split it.
type memoTwins struct {
	name         string
	dev, twin    core.Device
	inner, tin   *Device
	mapLBN       func(int64) int64
	fits         func(lbn int64, blocks int) bool
	hits, misses int
}

func newMemoTwins(cfg Config) []*memoTwins {
	d, t := MustDevice(cfg), MustDevice(cfg)
	total := d.geo.TotalSectors
	within := func(lbn int64, n int) bool { return lbn+int64(n) <= total }
	half := halfSwap{total / 2}
	md, mt := MustDevice(cfg), MustDevice(cfg)
	pd, pt := MustDevice(cfg), MustDevice(cfg)
	policy := power.Policy{TimeoutMs: 5}
	return []*memoTwins{
		{name: "device", dev: d, twin: t, inner: d, tin: t,
			mapLBN: func(l int64) int64 { return l }, fits: within},
		{name: "managed", dev: core.NewManagedDevice(md, half), twin: core.NewManagedDevice(mt, half),
			inner: md, tin: mt, mapLBN: half.Map,
			fits: func(lbn int64, n int) bool {
				return within(lbn, n) && (lbn >= half.half || lbn+int64(n) <= half.half)
			}},
		{name: "power", dev: power.NewManaged(pd, power.MEMSModel(), policy),
			twin:  power.NewManaged(pt, power.MEMSModel(), policy),
			inner: pd, tin: pt, mapLBN: func(l int64) int64 { return l }, fits: within},
	}
}

// TestAccessReusesEstimate checks that Access serving a request from
// the estimate memo is exact. Each stack — a bare device, a
// ManagedDevice over a half-swap layout and a power.Managed — runs the
// differential workload twice: one copy prices candidates before every
// Access, the other never does (its memo is cleared after the one
// estimate the comparison needs). Access, LastBreakdown, State,
// EstimateBreakdown and ErrorPenalty must agree bit for bit, across
// Reset and SetState, the same LBN at several sizes, and more estimates
// between two accesses than the memo holds. All estimates go through
// one reused Request, as ManagedDevice passes them. The memo must serve
// every access whose request it still holds, and no other.
func TestAccessReusesEstimate(t *testing.T) {
	for name, cfg := range map[string]Config{"gen1": ConfigGen1(), "gen3": ConfigGen3(), "nospring": yTableConfigs()["nospring"]} {
		for _, tw := range newMemoTwins(cfg) {
			label := name + "/" + tw.name
			g := tw.inner.geo
			rng := rand.New(rand.NewSource(19))
			q := &core.Request{}
			estimate := func(lbn int64, blocks int, now float64) core.Breakdown {
				*q = core.Request{LBN: lbn, Blocks: blocks}
				return core.EstimateBreakdown(tw.dev, q, now)
			}
			now := 0.0
			for k, req := range diffRequests(g) {
				// Decoys share req's LBN with more blocks, so they must fit.
				if !tw.fits(req.LBN, req.Blocks+memoSize+2) {
					continue
				}
				if k%200 == 0 {
					// A stale estimate the state change must drop.
					estimate(req.LBN, req.Blocks, now)
				}
				switch k % 400 {
				case 0:
					tw.dev.Reset()
					tw.twin.Reset()
				case 200:
					cyl := rng.Intn(g.Cylinders)
					yB := rng.Float64() * float64(g.BitsY)
					vdir := rng.Intn(3) - 1
					tw.inner.SetState(cyl, yB, vdir)
					tw.tin.SetState(cyl, yB, vdir)
				}
				decoys := func(n int) {
					for i := 0; i < n; i++ {
						if i%2 == 0 {
							*q = core.Request{LBN: req.LBN, Blocks: req.Blocks + 1 + i}
							tw.dev.EstimateAccess(q, now)
						} else {
							estimate(req.LBN, req.Blocks+1+i, now)
						}
					}
				}
				// The pattern decides whether req is still in the memo
				// when Access runs.
				pattern := k % 5
				switch pattern {
				case 0: // priced alone
					*q = core.Request{LBN: req.LBN, Blocks: req.Blocks}
					tw.dev.EstimateAccess(q, now)
				case 1: // priced, then evicted
					estimate(req.LBN, req.Blocks, now)
					decoys(memoSize)
				case 2: // priced last among several
					decoys(memoSize - 1)
					estimate(req.LBN, req.Blocks, now)
				case 3: // priced after the memo wrapped
					decoys(memoSize + 1)
					estimate(req.LBN, req.Blocks, now)
				case 4: // never priced
				}
				if pattern != 1 && pattern != 4 {
					got := estimate(req.LBN, req.Blocks, now)
					want := core.EstimateBreakdown(tw.twin, req, now)
					tw.tin.memoN = 0
					if !sameBits(got, want) {
						t.Fatalf("%s req %d: EstimateBreakdown %+v, twin %+v", label, k, got, want)
					}
				}
				if k%7 == 3 {
					u := rng.Float64()
					a, aok := tw.dev.(core.RecoveryModel).ErrorPenalty(req, now, u)
					b, bok := tw.twin.(core.RecoveryModel).ErrorPenalty(req, now, u)
					if aok != bok || math.Float64bits(a) != math.Float64bits(b) {
						t.Fatalf("%s req %d: ErrorPenalty %v, twin %v", label, k, a, b)
					}
				}

				hit := tw.inner.memoized(&core.Request{LBN: tw.mapLBN(req.LBN), Blocks: req.Blocks}) != nil
				if want := pattern != 1 && pattern != 4; hit != want {
					t.Fatalf("%s req %d (pattern %d): memo hit %v, want %v", label, k, pattern, hit, want)
				}
				if hit {
					tw.hits++
				} else {
					tw.misses++
				}
				*q = core.Request{LBN: req.LBN, Blocks: req.Blocks}
				a, b := tw.dev.Access(q, now), tw.twin.Access(req, now)
				if math.Float64bits(a) != math.Float64bits(b) {
					t.Fatalf("%s req %d: Access %v, twin %v", label, k, a, b)
				}
				la, _ := tw.dev.(core.BreakdownReporter).LastBreakdown()
				lb, _ := tw.twin.(core.BreakdownReporter).LastBreakdown()
				if !sameBits(la, lb) {
					t.Fatalf("%s req %d: LastBreakdown %+v, twin %+v", label, k, la, lb)
				}
				c1, y1, v1 := tw.inner.State()
				c2, y2, v2 := tw.tin.State()
				if c1 != c2 || math.Float64bits(y1) != math.Float64bits(y2) || v1 != v2 {
					t.Fatalf("%s req %d: state (%d,%v,%d), twin (%d,%v,%d)", label, k, c1, y1, v1, c2, y2, v2)
				}
				if tw.inner.memoN != 0 {
					t.Fatalf("%s req %d: memo holds %d estimates after Access", label, k, tw.inner.memoN)
				}
				now += a
				if k%13 == 0 {
					now += 20 // idle past the power timeout
				}
			}
			if tw.hits == 0 || tw.misses == 0 {
				t.Fatalf("%s: %d memo hits, %d misses; want both", label, tw.hits, tw.misses)
			}
		}
	}
}
