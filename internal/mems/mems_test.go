package mems

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"memsim/internal/core"
)

func testDevice(t testing.TB) *Device {
	t.Helper()
	d, err := NewDevice(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func TestGeometryDerivation(t *testing.T) {
	g, err := NewGeometry(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	// Every anchor below is derived in DESIGN.md §3 from Table 1 of the
	// paper; together they pin the whole geometry.
	if g.TipSectorBits != 90 {
		t.Errorf("TipSectorBits = %d, want 90", g.TipSectorBits)
	}
	if g.StripeTips != 64 {
		t.Errorf("StripeTips = %d, want 64", g.StripeTips)
	}
	if g.SectorsPerRow != 20 {
		t.Errorf("SectorsPerRow = %d, want 20", g.SectorsPerRow)
	}
	if g.RowsPerTrack != 27 {
		t.Errorf("RowsPerTrack = %d, want 27", g.RowsPerTrack)
	}
	if g.SectorsPerTrack != 540 {
		t.Errorf("SectorsPerTrack = %d, want 540", g.SectorsPerTrack)
	}
	if g.TracksPerCylinder != 5 {
		t.Errorf("TracksPerCylinder = %d, want 5", g.TracksPerCylinder)
	}
	if g.Cylinders != 2500 {
		t.Errorf("Cylinders = %d, want 2500", g.Cylinders)
	}
	if g.TotalSectors != 6750000 {
		t.Errorf("TotalSectors = %d, want 6750000", g.TotalSectors)
	}
	if got := g.CapacityBytes(); got != 3456000000 {
		t.Errorf("capacity = %d B, want 3.456 GB", got)
	}
}

func TestGeometryRates(t *testing.T) {
	g, err := NewGeometry(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	// §5.2 quotes 79.6 MB/s streaming for exactly this configuration.
	if bw := g.StreamBandwidth() / 1e6; math.Abs(bw-79.6) > 0.1 {
		t.Errorf("stream bandwidth = %.2f MB/s, want 79.6", bw)
	}
	if math.Abs(g.AccessSpeed-0.028) > 1e-9 {
		t.Errorf("access speed = %g m/s, want 0.028", g.AccessSpeed)
	}
	if math.Abs(g.RowTimeMs-90.0/700e3*1e3) > 1e-12 {
		t.Errorf("row time = %g ms", g.RowTimeMs)
	}
	// One settle constant at 739 Hz ≈ 0.215 ms — the paper's "0.2 ms"
	// settling example (§2.4.2).
	if g.SettleMs < 0.20 || g.SettleMs > 0.23 {
		t.Errorf("settle = %g ms, want ≈ 0.215", g.SettleMs)
	}
	if math.Abs(g.HalfRange-50e-6) > 1e-12 {
		t.Errorf("half range = %g m, want 50 µm", g.HalfRange)
	}
}

func TestGeometryValidation(t *testing.T) {
	bad := []func(*Config){
		func(c *Config) { c.Tips = 0 },
		func(c *Config) { c.ActiveTips = 0 },
		func(c *Config) { c.SpareTips = -1 },
		func(c *Config) { c.SpareTips = 100 }, // not a multiple of ActiveTips
		func(c *Config) { c.Tips = 7000 },     // usable not multiple of active
		func(c *Config) { c.DataBytes = 7 },   // sector not multiple
		func(c *Config) { c.BitWidth = 0 },
		func(c *Config) { c.BitsY = 50 }, // shorter than one tip sector
		func(c *Config) { c.SpringFactor = 1.5 },
		func(c *Config) { c.SpringFactor = -0.1 },
		func(c *Config) { c.PerTipRate = 0 },
		func(c *Config) { c.ResonantHz = 0 },
		func(c *Config) { c.SettleConstants = -1 },
		func(c *Config) { c.ActiveTips = 1248 }, // not multiple of stripe width
		// NaN passes every ordered comparison, so each float field
		// gets its own NaN case; ±Inf settling yields Inf or NaN times.
		func(c *Config) { c.SettleConstants = math.NaN() },
		func(c *Config) { c.SettleConstants = math.Inf(1) },
		func(c *Config) { c.SettleConstants = math.Inf(-1) },
		func(c *Config) { c.ResonantHz = math.NaN() },
		func(c *Config) { c.SpringFactor = math.NaN() },
		func(c *Config) { c.BitWidth = math.NaN() },
		func(c *Config) { c.PerTipRate = math.NaN() },
		func(c *Config) { c.SledAccel = math.NaN() },
	}
	for i, mutate := range bad {
		cfg := DefaultConfig()
		mutate(&cfg)
		if _, err := NewGeometry(cfg); err == nil {
			t.Errorf("case %d: expected validation error", i)
		}
	}
	if _, err := NewGeometry(DefaultConfig()); err != nil {
		t.Errorf("default config rejected: %v", err)
	}
}

func TestSpareTipsReduceCapacity(t *testing.T) {
	cfg := DefaultConfig()
	cfg.SpareTips = 1280 // one whole track group reserved
	g, err := NewGeometry(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if g.TracksPerCylinder != 4 {
		t.Errorf("TracksPerCylinder = %d, want 4", g.TracksPerCylinder)
	}
	if g.TotalSectors != 5400000 {
		t.Errorf("TotalSectors = %d, want 5400000", g.TotalSectors)
	}
}

func TestLBNDecomposeRoundTrip(t *testing.T) {
	g, _ := NewGeometry(DefaultConfig())
	f := func(raw uint32) bool {
		lbn := int64(raw) % g.TotalSectors
		c, tr, r, s := g.Decompose(lbn)
		return g.LBN(c, tr, r, s) == lbn
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

// decomposeByDivision is Decompose as plain integer division: the form
// the reciprocals must match.
func decomposeByDivision(g *Geometry, lbn int64) (cyl, track, row, slot int) {
	rem := lbn % int64(g.SectorsPerCylinder)
	return int(lbn / int64(g.SectorsPerCylinder)), int(rem) / g.SectorsPerTrack,
		int(rem) % g.SectorsPerTrack / g.SectorsPerRow, int(rem) % g.SectorsPerTrack % g.SectorsPerRow
}

// checkDecompose fails t unless Decompose agrees with plain division at
// lbn.
func checkDecompose(t *testing.T, g *Geometry, lbn int64) {
	c, tr, r, s := g.Decompose(lbn)
	wc, wtr, wr, ws := decomposeByDivision(g, lbn)
	if c != wc || tr != wtr || r != wr || s != ws {
		t.Fatalf("Decompose(%d) = (%d,%d,%d,%d), division gives (%d,%d,%d,%d) (sectors per cylinder %d, track %d, row %d)",
			lbn, c, tr, r, s, wc, wtr, wr, ws, g.SectorsPerCylinder, g.SectorsPerTrack, g.SectorsPerRow)
	}
}

// TestDecomposeEveryG1LBN checks Decompose against plain division at
// every LBN of the default device.
func TestDecomposeEveryG1LBN(t *testing.T) {
	g, _ := NewGeometry(DefaultConfig())
	for lbn := range g.TotalSectors {
		checkDecompose(t, g, lbn)
	}
}

// FuzzDecompose checks Decompose against plain division on fuzzed valid
// geometries: 1 to 40 sectors per row, 1 to 40 rows per track and 1 to
// 8 tracks per cylinder, so every divisor can be 1, and up to 2²³
// cylinders, so LBNs reach past 2³² and take the division fallback. It
// also checks the reciprocal division itself for a fuzzed divisor and
// dividend.
func FuzzDecompose(f *testing.F) {
	f.Add(uint8(19), uint8(26), uint8(4), uint32(2499), uint64(6749999), uint32(2700), uint64(1<<32-1))
	f.Add(uint8(19), uint8(26), uint8(4), uint32(2499), uint64(2700+540+20), uint32(540), uint64(540*7))
	f.Add(uint8(0), uint8(0), uint8(0), uint32(1<<23-1), uint64(1<<32+5), uint32(1), uint64(1<<32))
	f.Add(uint8(39), uint8(39), uint8(7), uint32(400000), uint64(1<<32-1), uint32(1<<31+1), uint64(1<<33))
	f.Add(uint8(0), uint8(5), uint8(3), uint32(7), uint64(3), uint32(1<<32-1), uint64(1<<64-1))
	f.Fuzz(func(t *testing.T, perRow, rows, tracks uint8, bitsX uint32, lbn uint64, d uint32, n uint64) {
		cfg := DefaultConfig()
		stripe := cfg.SectorSize / cfg.DataBytes
		cfg.ActiveTips = stripe * (1 + int(perRow)%40)
		cfg.BitsY = (cfg.ServoBits + cfg.EncodedBits) * (1 + int(rows)%40)
		cfg.SpareTips = 0
		cfg.Tips = cfg.ActiveTips * (1 + int(tracks)%8)
		cfg.BitsX = 1 + int(bitsX%(1<<23))
		g, err := NewGeometry(cfg)
		if err != nil {
			t.Fatal(err)
		}
		checkDecompose(t, g, int64(lbn%uint64(g.TotalSectors)))

		v := newDivisor(int(max(d, 1)))
		if q, r := v.divmod(n); q != n/v.d || r != n%v.d {
			t.Fatalf("%d divmod %d = (%d, %d), want (%d, %d)", n, v.d, q, r, n/v.d, n%v.d)
		}
	})
}

func TestLBNPanicsOutOfRange(t *testing.T) {
	g, _ := NewGeometry(DefaultConfig())
	for _, f := range []func(){
		func() { g.LBN(-1, 0, 0, 0) },
		func() { g.LBN(0, 5, 0, 0) },
		func() { g.LBN(0, 0, 27, 0) },
		func() { g.LBN(0, 0, 0, 20) },
		func() { g.Decompose(-1) },
		func() { g.Decompose(g.TotalSectors) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("expected panic")
				}
			}()
			f()
		}()
	}
}

func TestLBNSequentialIsCylinderMajor(t *testing.T) {
	// §2.4.3: the lowest-level mapping is optimized for sequential
	// access. Consecutive LBNs advance slot, then row, then track, then
	// cylinder.
	g, _ := NewGeometry(DefaultConfig())
	c, tr, r, s := g.Decompose(0)
	if c != 0 || tr != 0 || r != 0 || s != 0 {
		t.Fatalf("LBN 0 at (%d,%d,%d,%d)", c, tr, r, s)
	}
	c, tr, r, s = g.Decompose(int64(g.SectorsPerRow))
	if r != 1 || c != 0 || tr != 0 || s != 0 {
		t.Fatalf("row not second-fastest: (%d,%d,%d,%d)", c, tr, r, s)
	}
	c, tr, _, _ = g.Decompose(int64(g.SectorsPerTrack))
	if tr != 1 || c != 0 {
		t.Fatalf("track not third-fastest")
	}
	c, _, _, _ = g.Decompose(int64(g.SectorsPerCylinder))
	if c != 1 {
		t.Fatalf("cylinder not slowest")
	}
}

// reqAt builds a request; the helper keeps test intent readable.
func reqAt(lbn int64, blocks int) *core.Request {
	return &core.Request{Op: core.Read, LBN: lbn, Blocks: blocks}
}

func TestTransferTimeAnchorsTable2(t *testing.T) {
	// Table 2 of the paper: an 8-sector MEMS transfer takes 0.13 ms and a
	// 334-sector transfer takes 2.19 ms — exactly ⌈n/20⌉ row passes.
	d := testDevice(t)
	g := d.Geometry()
	bd := d.EstimateBreakdown(reqAt(0, 8), 0)
	if want := 1 * g.RowTimeMs; math.Abs(bd.Transfer-want) > 1e-9 {
		t.Errorf("8-sector transfer = %g ms, want %g", bd.Transfer, want)
	}
	bd = d.EstimateBreakdown(reqAt(0, 334), 0)
	if want := 17 * g.RowTimeMs; math.Abs(bd.Transfer-want) > 1e-9 {
		t.Errorf("334-sector transfer = %g ms, want %g (2.19 ms)", bd.Transfer, want)
	}
	if bd.Transfer < 2.18 || bd.Transfer > 2.20 {
		t.Errorf("334-sector transfer = %g ms, paper says 2.19", bd.Transfer)
	}
}

func TestReadModifyWriteCostsOneTurnaround(t *testing.T) {
	// §6.2/Table 2: returning to the same sector costs only a turnaround
	// (~0.07 ms at the sled center), not a second full positioning.
	d := testDevice(t)
	g := d.Geometry()
	mid := g.LBN(g.Cylinders/2, 2, g.RowsPerTrack/2, 0)
	d.Access(reqAt(mid, 8), 0)
	bd := d.EstimateBreakdown(reqAt(mid, 8), 0)
	if bd.SeekX != 0 {
		t.Errorf("re-access moved in X: %g ms", bd.SeekX)
	}
	if bd.Positioning() < 0.03 || bd.Positioning() > 0.12 {
		t.Errorf("re-access positioning = %g ms, want ≈ 0.07 (one turnaround)", bd.Positioning())
	}
}

func TestSequentialAccessHasNoReposition(t *testing.T) {
	// Reading on from where the sled stopped must cost pure transfer:
	// the sled is already at speed at the right boundary.
	d := testDevice(t)
	g := d.Geometry()
	start := g.LBN(g.Cylinders/2, 0, 0, 0)
	// Park the sled at the top of the track moving forward (as it would
	// be mid-stream) so the first row is read in the forward direction.
	d.SetState(g.Cylinders/2, 0, 1)
	if bd := d.EstimateBreakdown(reqAt(start, 20), 0); bd.Positioning() > 1e-9 {
		t.Fatalf("aligned first row repositioned for %g ms", bd.Positioning())
	}
	d.Access(reqAt(start, 20), 0) // exactly one row
	bd := d.EstimateBreakdown(reqAt(start+20, 20), 0)
	if bd.Positioning() > 1e-9 {
		t.Errorf("sequential continuation repositioned for %g ms", bd.Positioning())
	}
}

func TestTrackSwitchCostsTurnaround(t *testing.T) {
	// Crossing a track boundary mid-request turns the sled around but
	// does not seek in X (§2.3).
	d := testDevice(t)
	g := d.Geometry()
	start := g.LBN(g.Cylinders/2, 0, g.RowsPerTrack-1, 0)
	bd := d.EstimateBreakdown(reqAt(start, g.SectorsPerRow*2), 0) // last row of track 0 + first row of track 1
	if bd.Segments != 2 {
		t.Fatalf("segments = %d, want 2", bd.Segments)
	}
	if bd.SeekX != 0 {
		t.Errorf("track switch moved in X: %g ms", bd.SeekX)
	}
	if bd.Transfer != 2*g.RowTimeMs {
		t.Errorf("transfer = %g, want 2 rows", bd.Transfer)
	}
}

func TestCylinderSwitchPaysSettle(t *testing.T) {
	d := testDevice(t)
	g := d.Geometry()
	// Request spanning the last row of one cylinder and the first of the
	// next.
	start := g.LBN(100, g.TracksPerCylinder-1, g.RowsPerTrack-1, 0)
	d.SetState(100, float64(g.BitsY)/2, 0)
	bd := d.EstimateBreakdown(reqAt(start, g.SectorsPerRow*2), 0)
	if bd.Segments != 2 {
		t.Fatalf("segments = %d, want 2", bd.Segments)
	}
	// The second segment's positioning must include settle time.
	single := d.EstimateBreakdown(reqAt(start, g.SectorsPerRow), 0)
	if bd.Positioning()-single.Positioning() < g.SettleMs*0.9 {
		t.Errorf("cylinder switch positioning %g barely exceeds %g; settle=%g",
			bd.Positioning(), single.Positioning(), g.SettleMs)
	}
}

func TestEstimateMatchesAccess(t *testing.T) {
	d := testDevice(t)
	g := d.Geometry()
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 2000; i++ {
		lbn := rng.Int63n(g.TotalSectors - 1024)
		n := 1 + rng.Intn(900)
		r := reqAt(lbn, n)
		est := d.EstimateAccess(r, 0)
		got := d.Access(r, 0)
		if est != got {
			t.Fatalf("estimate %g != access %g for %+v", est, got, r)
		}
	}
}

func TestEstimateDoesNotMutate(t *testing.T) {
	d := testDevice(t)
	c0, y0, v0 := d.State()
	d.EstimateAccess(reqAt(123456, 64), 0)
	c1, y1, v1 := d.State()
	if c0 != c1 || y0 != y1 || v0 != v1 {
		t.Fatal("EstimateAccess changed device state")
	}
}

func TestAccessDependsOnDistance(t *testing.T) {
	// §2.4.4: seek time grows with distance; a request one full stroke
	// away must cost more than a request in the same cylinder.
	d := testDevice(t)
	g := d.Geometry()
	d.Reset()
	near := d.EstimateAccess(reqAt(g.LBN(g.Cylinders/2, 0, 0, 0), 8), 0)
	far := d.EstimateAccess(reqAt(g.LBN(g.Cylinders-1, 0, 0, 0), 8), 0)
	if near >= far {
		t.Errorf("near=%g far=%g", near, far)
	}
}

func TestLargeTransferDistanceInsensitive(t *testing.T) {
	// §5.2/Fig. 10: a 256 KB request traveling 1000+ cylinders costs only
	// ~10–12% more than one in place, because transfer dominates.
	d := testDevice(t)
	g := d.Geometry()
	blocks := 256 * 1024 / g.SectorSize
	d.Reset()
	base := d.EstimateAccess(reqAt(g.LBN(g.Cylinders/2, 0, 0, 0), blocks), 0)
	farCyl := g.Cylinders/2 + 1000
	far := d.EstimateAccess(reqAt(g.LBN(farCyl, 0, 0, 0), blocks), 0)
	ratio := far / base
	if ratio > 1.25 {
		t.Errorf("1000-cylinder 256KB penalty = %.1f%%, paper says ≈ 10–12%%", (ratio-1)*100)
	}
	if ratio <= 1.0 {
		t.Errorf("far transfer should not be cheaper (ratio %g)", ratio)
	}
}

func TestAccessPanicsOnBadRequests(t *testing.T) {
	d := testDevice(t)
	for _, r := range []*core.Request{
		reqAt(-1, 8),
		reqAt(0, 0),
		reqAt(d.Capacity(), 1),
		reqAt(d.Capacity()-1, 2),
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("expected panic for %+v", r)
				}
			}()
			d.Access(r, 0)
		}()
	}
}

func TestSetStatePanicsOutOfRange(t *testing.T) {
	d := testDevice(t)
	for _, f := range []func(){
		func() { d.SetState(-1, 0, 0) },
		func() { d.SetState(0, -1, 0) },
		func() { d.SetState(0, float64(d.Geometry().BitsY)+1, 0) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("expected panic")
				}
			}()
			f()
		}()
	}
}

func TestServiceTimeAlwaysPositive(t *testing.T) {
	d := testDevice(t)
	g := d.Geometry()
	f := func(raw uint32, nraw uint16) bool {
		lbn := int64(raw) % (g.TotalSectors - 2048)
		n := 1 + int(nraw)%1024
		return d.Access(reqAt(lbn, n), 0) > 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 1000}); err != nil {
		t.Error(err)
	}
}

func TestRandom4KAccessTimeBallpark(t *testing.T) {
	// §2.1: "the average random 4 KB access time is 500 µs" for the
	// paper's example device. Our Table 1 re-derivation lands in the same
	// sub-millisecond regime; assert the order of magnitude.
	d := testDevice(t)
	g := d.Geometry()
	rng := rand.New(rand.NewSource(42))
	sum := 0.0
	const n = 5000
	for i := 0; i < n; i++ {
		lbn := rng.Int63n(g.TotalSectors - 8)
		sum += d.Access(reqAt(lbn, 8), 0)
	}
	avg := sum / n
	if avg < 0.3 || avg > 1.2 {
		t.Errorf("average random 4 KB access = %.3f ms, want sub-millisecond (paper: ≈0.5)", avg)
	}
	t.Logf("average random 4 KB access time: %.3f ms", avg)
}

func TestResetRestoresState(t *testing.T) {
	d := testDevice(t)
	d.Access(reqAt(0, 8), 0)
	d.Reset()
	c, y, v := d.State()
	g := d.Geometry()
	if c != g.Cylinders/2 || y != float64(g.BitsY)/2 || v != 0 {
		t.Errorf("reset state = (%d,%g,%d)", c, y, v)
	}
}

func TestSeekXZeroForSameCylinder(t *testing.T) {
	d := testDevice(t)
	if d.SeekX(5, 5) != 0 {
		t.Error("same-cylinder SeekX should be 0")
	}
	if d.SeekX(0, 2499) <= d.SeekX(0, 100) {
		t.Error("longer X seeks should take longer")
	}
}

func TestEdgeSubregionSlowerThanCenter(t *testing.T) {
	// Fig. 9's headline: average service time differs by 10–20% between
	// the centermost and outermost subregions. Spot-check with seeks of
	// identical distance at center vs corner.
	d := testDevice(t)
	g := d.Geometry()
	centerCyl := g.Cylinders / 2
	hop := 200 // cylinders
	center := d.SeekX(centerCyl-hop/2, centerCyl+hop/2)
	edge := d.SeekX(g.Cylinders-hop, g.Cylinders-1)
	if edge <= center {
		t.Errorf("edge seek %g should exceed center seek %g", edge, center)
	}
}

func TestMustDevicePanicsOnBadConfig(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	cfg := DefaultConfig()
	cfg.Tips = -1
	MustDevice(cfg)
}

func TestTipsForSector(t *testing.T) {
	g, _ := NewGeometry(DefaultConfig())
	// Sector 0: track 0, slot 0 → tips 0..63.
	first, n := g.TipsForSector(0)
	if n != 64 || first != 0 {
		t.Fatalf("sector 0 tips = [%d, %d)", first, first+n)
	}
	// Next sector in the same row: the adjacent 64-tip group.
	if first, _ = g.TipsForSector(1); first != 64 {
		t.Errorf("sector 1 starts at tip %d, want 64", first)
	}
	// A sector on track 2 uses the third active-tip group.
	lbn := g.LBN(5, 2, 3, 4)
	want := 2*g.ActiveTips + 4*g.StripeTips
	if first, _ = g.TipsForSector(lbn); first != want {
		t.Errorf("track-2 sector starts at tip %d, want %d", first, want)
	}
	// All tips within the device, and same row position ⇒ same tips
	// regardless of cylinder and row (only track and slot matter).
	a, na := g.TipsForSector(g.LBN(0, 1, 0, 7))
	b, nb := g.TipsForSector(g.LBN(999, 1, 20, 7))
	if a != b || na != nb {
		t.Fatal("tips should depend only on track and slot")
	}
	if a < 0 || a+na > g.Tips {
		t.Fatalf("tips [%d, %d) out of range", a, a+na)
	}
}

func TestTipsForSectorCoverRowDisjointly(t *testing.T) {
	// The 20 sectors of one row are served by disjoint tip groups that
	// together cover all active tips.
	g, _ := NewGeometry(DefaultConfig())
	seen := map[int]bool{}
	for slot := 0; slot < g.SectorsPerRow; slot++ {
		first, n := g.TipsForSector(g.LBN(0, 0, 0, slot))
		for tip := first; tip < first+n; tip++ {
			if seen[tip] {
				t.Fatalf("tip %d serves two sectors of one row", tip)
			}
			seen[tip] = true
		}
	}
	if len(seen) != g.ActiveTips {
		t.Errorf("row uses %d tips, want all %d active", len(seen), g.ActiveTips)
	}
}
