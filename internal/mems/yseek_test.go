package mems

import (
	"math"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"

	"memsim/internal/core"
)

// yTableConfigs are the configurations the exactness tests cover: every
// generation, a settle-free variant and a spring-free sled.
func yTableConfigs() map[string]Config {
	noSettle := DefaultConfig()
	noSettle.SettleConstants = 0
	noSpring := DefaultConfig()
	noSpring.SpringFactor = 0
	return map[string]Config{
		"gen1":     ConfigGen1(),
		"gen2":     ConfigGen2(),
		"gen3":     ConfigGen3(),
		"nosettle": noSettle,
		"nospring": noSpring,
	}
}

// TestYSeekTableExact checks every table entry against the closed-form
// solver expression Access used before the table, bit for bit.
func TestYSeekTableExact(t *testing.T) {
	for name, cfg := range yTableConfigs() {
		d := MustDevice(cfg)
		g, sled, tab := d.geo, d.sled, d.ytab
		n := g.RowsPerTrack + 1
		if tab.n != n || len(tab.ms) != n*n*4 {
			t.Fatalf("%s: table n=%d len=%d, want n=%d len=%d", name, tab.n, len(tab.ms), n, n*n*4)
		}
		tb := float64(g.TipSectorBits)
		for i := 0; i < n; i++ {
			for _, vdir := range []int{-1, 1} {
				for j := 0; j < n; j++ {
					wantF := sled.SeekTime(g.YPos(float64(i)*tb), float64(vdir)*g.AccessSpeed,
						g.YPos(float64(j)*tb), g.AccessSpeed) * 1e3
					wantR := sled.SeekTime(g.YPos(float64(i)*tb), float64(vdir)*g.AccessSpeed,
						g.YPos(float64(j)*tb), -g.AccessSpeed) * 1e3
					gotF, gotR := tab.seeks(i, vdir, j, j)
					if math.Float64bits(gotF) != math.Float64bits(wantF) ||
						math.Float64bits(gotR) != math.Float64bits(wantR) {
						t.Fatalf("%s: boundary %d dir %+d → %d: table (%v, %v), solver (%v, %v)",
							name, i, vdir, j, gotF, gotR, wantF, wantR)
					}
				}
			}
		}
	}
}

// sameBits reports whether two breakdowns agree bit for bit.
func sameBits(a, b core.Breakdown) bool {
	fa := []float64{a.Seek, a.SeekX, a.SeekY, a.Settle, a.Turnaround, a.Transfer, a.Overhead, a.Recovery, a.ServiceMs}
	fb := []float64{b.Seek, b.SeekX, b.SeekY, b.Settle, b.Turnaround, b.Transfer, b.Overhead, b.Recovery, b.ServiceMs}
	for i := range fa {
		if math.Float64bits(fa[i]) != math.Float64bits(fb[i]) {
			return false
		}
	}
	return a.Segments == b.Segments
}

// diffRequests is the differential workload: seeded random requests of
// 1 to 1200 sectors (so many span tracks and cylinders), a sequential
// run, read-modify-write pairs, and requests placed to cross a track
// and a cylinder boundary.
func diffRequests(g *Geometry) []*core.Request {
	rng := rand.New(rand.NewSource(15))
	var reqs []*core.Request
	add := func(lbn int64, n int) {
		if lbn+int64(n) > g.TotalSectors {
			lbn = g.TotalSectors - int64(n)
		}
		reqs = append(reqs, &core.Request{LBN: lbn, Blocks: n})
	}
	for i := 0; i < 2000; i++ {
		add(rng.Int63n(g.TotalSectors), 1+rng.Intn(1200))
	}
	seq := rng.Int63n(g.TotalSectors / 2)
	for i := 0; i < 300; i++ {
		add(seq, 8)
		seq += 8
	}
	for i := 0; i < 300; i++ {
		lbn := rng.Int63n(g.TotalSectors)
		add(lbn, 8)
		add(lbn, 8)
	}
	for i := 0; i < 300; i++ {
		cyl := rng.Intn(g.Cylinders - 1)
		track := rng.Intn(g.TracksPerCylinder)
		end := g.LBN(cyl, track, g.RowsPerTrack-1, g.SectorsPerRow-1) + 1
		add(end-int64(1+rng.Intn(40)), 2+rng.Intn(80))
		cylEnd := int64(cyl+1) * int64(g.SectorsPerCylinder)
		add(cylEnd-int64(1+rng.Intn(40)), 2+rng.Intn(80))
	}
	return reqs
}

// TestAccessTableMatchesSolver drives two identical devices through the
// same requests. The second has its boundary index cleared before every
// call, so it solves every Y seek; the first reads the table whenever
// it can. Every result and state must agree bit for bit.
func TestAccessTableMatchesSolver(t *testing.T) {
	for name, cfg := range yTableConfigs() {
		tab, sol := MustDevice(cfg), MustDevice(cfg)
		lookups := 0
		for k, req := range diffRequests(tab.geo) {
			if tab.st.yRow >= 0 {
				lookups++
			}
			sol.st.yRow = -1
			if a, b := tab.EstimateAccess(req, 0), sol.EstimateAccess(req, 0); math.Float64bits(a) != math.Float64bits(b) {
				t.Fatalf("%s req %d: EstimateAccess table %v, solver %v", name, k, a, b)
			}
			if a, b := tab.EstimateBreakdown(req, 0), sol.EstimateBreakdown(req, 0); !sameBits(a, b) {
				t.Fatalf("%s req %d: EstimateBreakdown table %+v, solver %+v", name, k, a, b)
			}
			if a, b := tab.Access(req, 0), sol.Access(req, 0); math.Float64bits(a) != math.Float64bits(b) {
				t.Fatalf("%s req %d: Access table %v, solver %v", name, k, a, b)
			}
			la, _ := tab.LastBreakdown()
			lb, _ := sol.LastBreakdown()
			if !sameBits(la, lb) {
				t.Fatalf("%s req %d: LastBreakdown table %+v, solver %+v", name, k, la, lb)
			}
			c1, y1, v1 := tab.State()
			c2, y2, v2 := sol.State()
			if c1 != c2 || math.Float64bits(y1) != math.Float64bits(y2) || v1 != v2 {
				t.Fatalf("%s req %d: state table (%d,%v,%d), solver (%d,%v,%d)", name, k, c1, y1, v1, c2, y2, v2)
			}
		}
		if lookups == 0 {
			t.Fatalf("%s: no access took the table path", name)
		}
	}
}

// TestYSeekOffGrid covers the states the table does not hold: the park
// position after Reset and an arbitrary SetState. Both solve, and the
// access that follows lands back on the grid. A SetState exactly on a
// boundary also solves, and agrees with the table.
func TestYSeekOffGrid(t *testing.T) {
	d := testDevice(t)
	g := d.geo
	req := &core.Request{LBN: g.LBN(g.Cylinders/3, 2, 11, 4), Blocks: 16}
	check := func(label string) {
		t.Helper()
		if d.st.yRow != -1 {
			t.Fatalf("%s: yRow = %d, want -1 (off grid)", label, d.st.yRow)
		}
		d.Access(req, 0)
		if d.st.yRow < 0 || float64(d.st.yRow*g.TipSectorBits) != d.st.yB {
			t.Fatalf("%s: after Access yRow = %d, yB = %v: not on the grid", label, d.st.yRow, d.st.yB)
		}
	}
	d.Reset()
	check("Reset")
	d.SetState(g.Cylinders/2, 1237.0, 0)
	check("SetState(1237, 0)")

	// Reach a boundary state through Access, then force the same state
	// on a second device: the solved and tabulated seeks must agree.
	c, yB, vdir := d.State()
	forced := testDevice(t)
	forced.SetState(c, yB, vdir)
	next := &core.Request{LBN: g.LBN(g.Cylinders/4, 0, 3, 0), Blocks: 40}
	if a, b := d.EstimateBreakdown(next, 0), forced.EstimateBreakdown(next, 0); !sameBits(a, b) {
		t.Fatalf("boundary via Access %+v, via SetState %+v", a, b)
	}
}

// TestYSeekTableShared checks that the table is built once per set of Y
// mechanics: devices that differ only in settle or overhead share it,
// and a different sled does not.
func TestYSeekTableShared(t *testing.T) {
	a, b := MustDevice(DefaultConfig()), MustDevice(DefaultConfig())
	if a.ytab != b.ytab {
		t.Fatal("two default devices built separate tables")
	}
	settle := DefaultConfig()
	settle.SettleConstants = 2
	settle.Overhead = 0.1
	if MustDevice(settle).ytab != a.ytab {
		t.Fatal("a settle/overhead-only variant built its own table")
	}
	if MustDevice(ConfigGen2()).ytab == a.ytab {
		t.Fatal("gen2 shares gen1's table")
	}
}

// TestNewDeviceAllocs pins the cost of building a device once its table
// exists: the geometry, the sled and the device.
func TestNewDeviceAllocs(t *testing.T) {
	MustDevice(DefaultConfig())
	allocs := testing.AllocsPerRun(100, func() {
		if _, err := NewDevice(DefaultConfig()); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 3 {
		t.Fatalf("NewDevice allocates %v times, want 3", allocs)
	}
}

// freshSleds numbers the sleds TestYSeekTableConcurrentBuild invents,
// so every run of it (-count=N) starts from a table nobody has built.
var freshSleds atomic.Int64

// TestYSeekTableConcurrentBuild builds devices of a configuration no
// other test uses from 8 goroutines at once; all must get one table.
// Run under -race.
func TestYSeekTableConcurrentBuild(t *testing.T) {
	cfg := DefaultConfig()
	cfg.SledAccel = 700 + float64(freshSleds.Add(1))*1e-3
	devs := make([]*Device, 8)
	var wg sync.WaitGroup
	for i := range devs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			devs[i] = MustDevice(cfg)
		}(i)
	}
	wg.Wait()
	for i, d := range devs {
		if d.ytab != devs[0].ytab {
			t.Fatalf("device %d got a different table", i)
		}
	}
}
