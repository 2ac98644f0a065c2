package mems

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"

	"memsim/internal/core"
	"memsim/internal/power"
)

// boundConfigs are the configurations the lower-bound tests cover:
// every generation at spring 0 and 0.75, with and without settle. At
// spring 0 the X bound is the solved seek's own expression, so float
// rounding is what the bound's safety factor must absorb; at 0.75 the
// spring term is what the bound's acceleration must cover.
func boundConfigs() map[string]Config {
	gens := map[string]Config{"gen1": ConfigGen1(), "gen2": ConfigGen2(), "gen3": ConfigGen3()}
	out := make(map[string]Config)
	for name, cfg := range gens {
		for _, spring := range []float64{0, 0.75} {
			for _, settle := range []float64{cfg.SettleConstants, 0} {
				c := cfg
				c.SpringFactor, c.SettleConstants = spring, settle
				out[fmt.Sprintf("%s/spring=%g/settle=%g", name, spring, settle)] = c
			}
		}
	}
	return out
}

// halfSwap is a layout that exchanges the two halves of the device, so
// ManagedDevice's bound must use the remapped request to stay below its
// estimate. It splits only extents that cross the midpoint.
type halfSwap struct{ half int64 }

func (h halfSwap) Name() string { return "halfswap" }

func (h halfSwap) Map(lbn int64) int64 {
	if lbn < h.half {
		return lbn + h.half
	}
	return lbn - h.half
}

// boundOf is lb's bound for the one key k at now: a batch of one.
func boundOf(lb core.LowerBounder, k core.BoundKey, now float64) float64 {
	out := []float64{math.NaN()}
	lb.LowerBounds([]core.BoundKey{k}, now, out)
	return out[0]
}

// keyedBound is d's two-step lower bound for req at now: the key, then
// the bound from it.
func keyedBound(d core.Device, req *core.Request, now float64) float64 {
	lb := d.(core.LowerBounder)
	return boundOf(lb, lb.BoundKey(req), now)
}

// checkBound fails t unless d's floor for req's key cylinder is at most
// its lower bound for req at now, and that at most its estimate, bit
// for bit, with no tolerance.
func checkBound(t *testing.T, label string, d core.Device, req *core.Request, now float64) (lb, est float64) {
	t.Helper()
	lb = keyedBound(d, req, now)
	est = d.EstimateAccess(req, now)
	if !(lb <= est) {
		t.Fatalf("%s: bound %v > estimate %v for [%d,+%d) at %v (excess %.3g)",
			label, lb, est, req.LBN, req.Blocks, now, lb-est)
	}
	lbr := d.(core.LowerBounder)
	if k := lbr.BoundKey(req); !(lbr.Floor(k.Cyl, now) <= lb) {
		t.Fatalf("%s: floor %v of cylinder %d > bound %v for [%d,+%d) at %v",
			label, lbr.Floor(k.Cyl, now), k.Cyl, lb, req.LBN, req.Blocks, now)
	}
	return lb, est
}

// checkFloorMonotone fails t unless lb's floor never decreases from its
// key cylinder outward, on either side, over all cylinders cylinders.
func checkFloorMonotone(t *testing.T, label string, lb core.LowerBounder, cylinders int, now float64) {
	t.Helper()
	home := lb.KeyCyl()
	for _, step := range []int32{-1, 1} {
		prev := lb.Floor(home, now)
		for c := home + step; c >= 0 && int(c) < cylinders; c += step {
			f := lb.Floor(c, now)
			if !(f >= prev) {
				t.Fatalf("%s: floor %v at cylinder %d below %v one step nearer cylinder %d", label, f, c, prev, home)
			}
			prev = f
		}
	}
}

// TestAccessLowerBound drives a bare device, a ManagedDevice over a
// half-swap layout and a power.Managed through the same requests — 1 to
// 1200 sectors, many crossing track and cylinder boundaries — returning
// to the off-grid states (the park position after Reset, and a
// SetState at rest between row boundaries) every 400 requests. Before
// each access every bound must be at most its estimate, and the floor
// of its key cylinder at most the bound; power.Managed is checked both
// with a restart pending and without. Every 100 requests each stack's
// floors must not decrease outward from its key cylinder. A single-segment
// request on the current cylinder from a row boundary pays exactly the
// Y seek the bound reads from the table, so there the bound must equal
// the estimate. A key may not depend on the sled, so every key must
// equal the one a parked device of the same configuration makes.
func TestAccessLowerBound(t *testing.T) {
	for name, cfg := range boundConfigs() {
		d, parked := MustDevice(cfg), MustDevice(cfg)
		g := d.geo
		md := core.NewManagedDevice(MustDevice(cfg), halfSwap{g.TotalSectors / 2})
		pm := power.NewManaged(MustDevice(cfg), power.MEMSModel(), power.Policy{TimeoutMs: 5})
		rng := rand.New(rand.NewSource(18))
		now, exact := 0.0, 0
		for k, req := range diffRequests(g) {
			switch k % 400 {
			case 0:
				d.Reset()
				md.Reset()
			case 200:
				cyl := rng.Intn(g.Cylinders)
				yB := float64(rng.Intn(g.RowsPerTrack))*float64(g.TipSectorBits) + 0.5 + rng.Float64()*float64(g.TipSectorBits-1)
				d.SetState(cyl, yB, 0)
			}
			label := fmt.Sprintf("%s req %d", name, k)
			if k%100 == 0 {
				checkFloorMonotone(t, label+" device", d, g.Cylinders, now)
				checkFloorMonotone(t, label+" managed", md, g.Cylinders, now)
				checkFloorMonotone(t, label+" power, idle", pm, g.Cylinders, now+100)
				checkFloorMonotone(t, label+" power, busy", pm, g.Cylinders, now)
			}
			if got, want := d.BoundKey(req), parked.BoundKey(req); got != want {
				t.Fatalf("%s: key %+v from cylinder %d, %+v from the park position", label, got, d.st.cyl, want)
			}
			lb, est := checkBound(t, label+" device", d, req, now)
			if cyl, _, _, n := g.segment(req.LBN, req.Blocks); d.st.yRow >= 0 && cyl == d.st.cyl && n == req.Blocks {
				if math.Float64bits(lb) != math.Float64bits(est) {
					t.Fatalf("%s: same-cylinder single-segment bound %v, estimate %v", label, lb, est)
				}
				exact++
			}
			d.Access(req, now)

			if half := g.TotalSectors / 2; req.LBN >= half || req.LBN+int64(req.Blocks) <= half {
				checkBound(t, label+" managed", md, req, now)
				md.Access(req, now)
			}

			checkBound(t, label+" power, idle", pm, req, now+100)
			checkBound(t, label+" power, busy", pm, req, now)
			now += pm.Access(req, now)
		}
		if exact == 0 {
			t.Fatalf("%s: no request exercised the exact same-cylinder case", name)
		}
	}
}

// boundStack is one device stack the batch fuzz bounds on: the stack,
// the MEMS device at its bottom (whose state the fuzz sets) and the
// times it is bounded at.
type boundStack struct {
	name string
	dev  core.Device
	mems *Device
	nows []float64
}

// FuzzAccessLowerBound checks the keyed bound against the estimate from
// a fuzzed state — on the grid, reached through a warm-up access, or
// forced off it with SetState — for a fuzzed request and a batch of up
// to 64 more drawn from a fuzzed seed, all keyed while the device was
// still parked, as queued requests are keyed before the sled moves. It
// bounds the whole batch in one call on a bare device, a ManagedDevice
// over a half-swap layout and a power.Managed (with a restart pending
// and without), and checks each element bit for bit: it equals the
// one-key call's bound, it is at most the estimate, and the floor of its
// key cylinder is at most it. power.Managed's bounds must be the bare
// device's from the same state plus the restart penalty. Floors must
// never decrease from the sled's cylinder outward.
func FuzzAccessLowerBound(f *testing.F) {
	cfgs := boundConfigs()
	names := make([]string, 0, len(cfgs))
	for name := range cfgs {
		names = append(names, name)
	}
	sort.Strings(names)
	stacks := make([][]boundStack, len(names))
	for i, name := range names {
		d, md, pd := MustDevice(cfgs[name]), MustDevice(cfgs[name]), MustDevice(cfgs[name])
		stacks[i] = []boundStack{
			{"device", d, d, []float64{0}},
			{"managed", core.NewManagedDevice(md, halfSwap{d.geo.TotalSectors / 2}), md, []float64{0}},
			{"power", power.NewManaged(pd, power.MEMSModel(), power.Policy{TimeoutMs: 5}), pd, []float64{0, 100}},
		}
	}
	f.Add(uint8(0), true, int64(12345), uint32(0), 0.0, int8(0), int64(777), uint16(8), int64(1), uint8(0))
	f.Add(uint8(1), false, int64(0), uint32(1234), 1237.5, int8(1), int64(99999), uint16(1200), int64(2), uint8(17))
	f.Add(uint8(4), false, int64(0), uint32(0), 0.0, int8(-1), int64(1<<30), uint16(1), int64(3), uint8(63))
	f.Add(uint8(7), true, int64(5), uint32(0), 0.0, int8(0), int64(3), uint16(40), int64(4), uint8(200))
	f.Fuzz(func(t *testing.T, cfg uint8, warm bool, warmLBN int64, cyl uint32, yB float64, vdir int8, lbn int64, blocks uint16, batchSeed int64, batch uint8) {
		name := names[int(cfg)%len(names)]
		g := stacks[int(cfg)%len(names)][0].mems.geo
		half := g.TotalSectors / 2
		// clamp folds l into the device for an n-sector request, and
		// moves one that would cross the half-swap layout's midpoint,
		// which the layout splits, to start there.
		clamp := func(l int64, n int) int64 {
			if l < 0 {
				l = -(l + 1)
			}
			l %= g.TotalSectors - int64(n) + 1
			if l < half && l+int64(n) > half {
				l = half
			}
			return l
		}
		n := 1 + int(blocks)%1200
		reqs := []*core.Request{{LBN: clamp(lbn, n), Blocks: n}}
		rng := rand.New(rand.NewSource(batchSeed))
		for range int(batch) % 65 {
			m := 1 + rng.Intn(1200)
			if rng.Intn(2) == 0 {
				m = 1 + rng.Intn(8)
			}
			reqs = append(reqs, &core.Request{LBN: clamp(rng.Int63n(g.TotalSectors), m), Blocks: m})
		}
		if math.IsNaN(yB) || math.IsInf(yB, 0) {
			yB = 0
		}
		var bare []float64
		for _, st := range stacks[int(cfg)%len(names)] {
			st.dev.Reset()
			lb := st.dev.(core.LowerBounder)
			keys := make([]core.BoundKey, len(reqs))
			for i, r := range reqs {
				keys[i] = lb.BoundKey(r)
			}
			if warm {
				st.mems.Access(&core.Request{LBN: clamp(warmLBN, 8), Blocks: 8}, 0)
			} else {
				st.mems.SetState(int(cyl%uint32(g.Cylinders)), math.Mod(math.Abs(yB), float64(g.BitsY)), int(vdir%2))
			}
			for _, now := range st.nows {
				label := fmt.Sprintf("%s %s at %v", name, st.name, now)
				out := make([]float64, len(keys))
				lb.LowerBounds(keys, now, out)
				for i, k := range keys {
					b := out[i]
					if one := boundOf(lb, k, now); math.Float64bits(one) != math.Float64bits(b) {
						t.Fatalf("%s: key %d of %d: batch bound %v, one-key bound %v", label, i, len(keys), b, one)
					}
					if est := st.dev.EstimateAccess(reqs[i], now); !(b <= est) {
						t.Fatalf("%s: key %d: bound %v > estimate %v (excess %.3g)", label, i, b, est, b-est)
					}
					if fl := lb.Floor(k.Cyl, now); !(fl <= b) {
						t.Fatalf("%s: key %d: floor %v of cylinder %d > bound %v", label, i, fl, k.Cyl, b)
					}
				}
				switch st.name {
				case "device":
					bare = out
				case "power":
					pen := 0.0
					if now > 5 {
						pen = power.MEMSModel().RestartMs
					}
					for i := range out {
						if want := pen + bare[i]; math.Float64bits(out[i]) != math.Float64bits(want) {
							t.Fatalf("%s: key %d: bound %v, want restart %v + device bound %v", label, i, out[i], pen, bare[i])
						}
					}
				}
				checkFloorMonotone(t, label, lb, g.Cylinders, now)
			}
		}
	})
}
