package disk

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"memsim/internal/core"
)

func testDisk(t testing.TB) *Device {
	t.Helper()
	d, err := NewDevice(Atlas10K())
	if err != nil {
		t.Fatal(err)
	}
	d.Reset()
	return d
}

func reqAt(lbn int64, blocks int) *core.Request {
	return &core.Request{Op: core.Read, LBN: lbn, Blocks: blocks}
}

func TestConfigValidation(t *testing.T) {
	bad := []func(*Config){
		func(c *Config) { c.Cylinders = 1 },
		func(c *Config) { c.Surfaces = 0 },
		func(c *Config) { c.RPM = 0 },
		func(c *Config) { c.Zones = 0 },
		func(c *Config) { c.Zones = c.Cylinders + 1 },
		func(c *Config) { c.SPTInner = 0 },
		func(c *Config) { c.SPTInner = c.SPTOuter + 1 },
		func(c *Config) { c.SectorSize = 0 },
		func(c *Config) { c.SeekSingle = 0 },
		func(c *Config) { c.SeekAvg = c.SeekSingle / 2 },
		func(c *Config) { c.SeekMax = c.SeekAvg / 2 },
		func(c *Config) { c.HeadSwitch = -1 },
		func(c *Config) { c.Overhead = -1 },
	}
	for i, mutate := range bad {
		cfg := Atlas10K()
		mutate(&cfg)
		if _, err := NewDevice(cfg); err == nil {
			t.Errorf("case %d: expected validation error", i)
		}
	}
}

func TestRotationPeriod(t *testing.T) {
	d := testDisk(t)
	// 10 025 RPM → 5.985 ms per revolution; Table 2's "reposition 5.98".
	if p := d.RotationPeriod(); math.Abs(p-5.985) > 0.001 {
		t.Errorf("period = %g ms, want 5.985", p)
	}
}

func TestCapacityBallpark(t *testing.T) {
	d := testDisk(t)
	gb := float64(d.Capacity()) * 512 / 1e9
	// The 9.1 GB Atlas 10K; zoned geometry re-derivation lands within a
	// few percent.
	if gb < 8 || gb > 10 {
		t.Errorf("capacity = %.2f GB, want ≈ 9", gb)
	}
}

func TestSeekCurveAnchors(t *testing.T) {
	d := testDisk(t)
	cfg := Atlas10K()
	if got := d.SeekTime(1); math.Abs(got-cfg.SeekSingle) > 1e-9 {
		t.Errorf("single-cylinder seek = %g, want %g", got, cfg.SeekSingle)
	}
	if got := d.SeekTime(cfg.Cylinders / 3); math.Abs(got-cfg.SeekAvg) > 0.05 {
		t.Errorf("1/3-stroke seek = %g, want %g", got, cfg.SeekAvg)
	}
	if got := d.SeekTime(cfg.Cylinders - 1); math.Abs(got-cfg.SeekMax) > 1e-9 {
		t.Errorf("full-stroke seek = %g, want %g", got, cfg.SeekMax)
	}
	if d.SeekTime(0) != 0 {
		t.Error("zero-distance seek should be free")
	}
}

func TestSeekCurveMonotonic(t *testing.T) {
	d := testDisk(t)
	prev := 0.0
	for dist := 0; dist < Atlas10K().Cylinders; dist += 13 {
		cur := d.SeekTime(dist)
		if cur < prev {
			t.Fatalf("seek time decreased at distance %d: %g < %g", dist, cur, prev)
		}
		prev = cur
	}
}

func TestZonedRecording(t *testing.T) {
	d := testDisk(t)
	outer := d.ZoneSPT(0)
	inner := d.ZoneSPT(d.Capacity() - 1)
	if outer != 334 || inner != 229 {
		t.Errorf("spt outer/inner = %d/%d, want 334/229", outer, inner)
	}
	// §2.4.12: as much as a 46% difference between innermost and
	// outermost track bandwidth.
	spread := float64(outer-inner) / float64(inner)
	if spread < 0.40 || spread < 0.45 && spread > 0.47 {
		t.Logf("bandwidth spread = %.0f%%", spread*100)
	}
	if spread < 0.40 || spread > 0.50 {
		t.Errorf("bandwidth spread = %.2f, want ≈ 0.46", spread)
	}
}

func TestStreamingBandwidth(t *testing.T) {
	// §5.2: 28.5–19.5 MB/s streaming for the Atlas 10K.
	d := testDisk(t)
	outerBW := float64(d.ZoneSPT(0)) * 512 / d.RotationPeriod() * 1000 / 1e6
	innerBW := float64(d.ZoneSPT(d.Capacity()-1)) * 512 / d.RotationPeriod() * 1000 / 1e6
	if math.Abs(outerBW-28.6) > 0.5 {
		t.Errorf("outer bandwidth = %.1f MB/s, want ≈ 28.6", outerBW)
	}
	if math.Abs(innerBW-19.6) > 0.5 {
		t.Errorf("inner bandwidth = %.1f MB/s, want ≈ 19.6", innerBW)
	}
}

func TestLocateRoundTripOrdering(t *testing.T) {
	// LBNs are sequential within a track, across heads, then cylinders.
	d := testDisk(t)
	c0, h0, s0 := d.Locate(0)
	if c0 != 0 || h0 != 0 || s0 != 0 {
		t.Fatalf("LBN 0 at (%d,%d,%d)", c0, h0, s0)
	}
	spt := d.ZoneSPT(0)
	c1, h1, s1 := d.Locate(int64(spt))
	if c1 != 0 || h1 != 1 || s1 != 0 {
		t.Fatalf("LBN spt at (%d,%d,%d), want head 1", c1, h1, s1)
	}
	c2, _, _ := d.Locate(int64(spt * 6))
	if c2 != 1 {
		t.Fatalf("LBN spt·surfaces at cyl %d, want 1", c2)
	}
}

func TestLocateMonotonic(t *testing.T) {
	d := testDisk(t)
	f := func(raw uint32) bool {
		lbn := int64(raw) % (d.Capacity() - 1)
		c1, h1, s1 := d.Locate(lbn)
		c2, h2, s2 := d.Locate(lbn + 1)
		// Next LBN must not move backwards in (cyl, head, sector) order.
		if c2 != c1 {
			return c2 == c1+1 && h2 == 0 && s2 == 0
		}
		if h2 != h1 {
			return h2 == h1+1 && s2 == 0
		}
		return s2 == s1+1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

func TestLocatePanics(t *testing.T) {
	d := testDisk(t)
	for _, lbn := range []int64{-1, d.Capacity()} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("expected panic for LBN %d", lbn)
				}
			}()
			d.Locate(lbn)
		}()
	}
}

func TestAccessServiceComponents(t *testing.T) {
	d := testDisk(t)
	cfg := Atlas10K()
	// Same-track access: no seek, latency ∈ [0, period], plus transfer.
	d.SetState(0, 0)
	r := reqAt(0, 8)
	svc := d.Access(r, 0)
	minSvc := cfg.Overhead + 8*d.RotationPeriod()/334
	maxSvc := minSvc + d.RotationPeriod()
	if svc < minSvc-1e-9 || svc > maxSvc+1e-9 {
		t.Errorf("same-track 8-sector service = %g, want in [%g, %g]", svc, minSvc, maxSvc)
	}
}

func TestAccessRotationDependsOnTime(t *testing.T) {
	// §2.4.8: disks rotate at constant velocity independent of ongoing
	// accesses, so the same request at different times costs different
	// rotational latency.
	d := testDisk(t)
	r := reqAt(1000, 8)
	t0 := d.EstimateAccess(r, 0)
	t1 := d.EstimateAccess(r, d.RotationPeriod()/2)
	if math.Abs(t0-t1) < 1e-9 {
		t.Error("service time should vary with rotational phase")
	}
	// But shifting by exactly one period must give the same answer.
	t2 := d.EstimateAccess(r, d.RotationPeriod())
	if math.Abs(t0-t2) > 1e-6 {
		t.Errorf("one full period shift changed service: %g vs %g", t0, t2)
	}
}

func TestEstimateMatchesAccess(t *testing.T) {
	d := testDisk(t)
	rng := rand.New(rand.NewSource(9))
	now := 0.0
	for i := 0; i < 2000; i++ {
		lbn := rng.Int63n(d.Capacity() - 1024)
		r := reqAt(lbn, 1+rng.Intn(128))
		est := d.EstimateAccess(r, now)
		got := d.Access(r, now)
		if est != got {
			t.Fatalf("estimate %g != access %g", est, got)
		}
		now += got + rng.Float64()
	}
}

func TestEstimateDoesNotMutate(t *testing.T) {
	d := testDisk(t)
	c0, h0 := d.State()
	d.EstimateAccess(reqAt(d.Capacity()/2, 16), 0)
	c1, h1 := d.State()
	if c0 != c1 || h0 != h1 {
		t.Fatal("EstimateAccess changed device state")
	}
}

func TestFullRotationForReadModifyWrite(t *testing.T) {
	// Table 2: a disk read-modify-write of the same sectors waits nearly
	// a full rotation between the read and the write.
	d := testDisk(t)
	r := reqAt(0, 8)
	d.Access(r, 0)
	// Immediately re-accessing the same sectors: the start sector just
	// passed under the head, so latency ≈ period − transfer.
	svc := d.EstimateAccess(r, 0+d.cfg.Overhead) // any "now" just after
	if svc < d.RotationPeriod()*0.7 {
		t.Errorf("re-access service = %g ms, want near a full rotation (%g)", svc, d.RotationPeriod())
	}
}

func TestSequentialTransferApproachesStreamingRate(t *testing.T) {
	d := testDisk(t)
	// Read 10 full tracks' worth sequentially from LBN 0 in one request.
	n := 334 * 10
	svc := d.EstimateAccess(reqAt(0, n), 0)
	bytes := float64(n) * 512
	mbps := bytes / (svc / 1000) / 1e6
	// Skews cost some rotation on head switches; expect within 2× of the
	// 28.6 MB/s outer rate and well above the inner rate.
	if mbps < 14 || mbps > 29 {
		t.Errorf("sequential rate = %.1f MB/s, want 14–29", mbps)
	}
}

func TestAccessPanicsOnBadRequests(t *testing.T) {
	d := testDisk(t)
	for _, r := range []*core.Request{
		reqAt(-1, 8),
		reqAt(0, 0),
		reqAt(d.Capacity(), 1),
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

func TestSetStatePanics(t *testing.T) {
	d := testDisk(t)
	for _, f := range []func(){
		func() { d.SetState(-1, 0) },
		func() { d.SetState(0, 6) },
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

func TestAverageRandomAccessBallpark(t *testing.T) {
	// A 10K RPM drive with 5 ms average seek: random 4 KB accesses should
	// average ≈ overhead + avg seek + half rotation + transfer ≈ 8–9 ms.
	d := testDisk(t)
	rng := rand.New(rand.NewSource(17))
	now, sum := 0.0, 0.0
	const n = 3000
	for i := 0; i < n; i++ {
		lbn := rng.Int63n(d.Capacity() - 8)
		svc := d.Access(reqAt(lbn, 8), now)
		sum += svc
		now += svc
	}
	avg := sum / n
	if avg < 6 || avg > 11 {
		t.Errorf("average random 4 KB access = %.2f ms, want ≈ 8–9", avg)
	}
	t.Logf("average random 4 KB disk access: %.2f ms", avg)
}

func TestMustDevicePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	cfg := Atlas10K()
	cfg.RPM = -5
	MustDevice(cfg)
}

// FuzzRotFrac checks rotFrac against the math.Mod formula it replaces,
// bit for bit, on any time and any period, random bit patterns (NaN,
// ±Inf, ±0, subnormals) included. The period is taken as its absolute
// value, as a device's is positive.
func FuzzRotFrac(f *testing.F) {
	f.Add(0.0, 6.0)
	f.Add(math.Copysign(0, -1), 6.0)
	f.Add(123456.789, 6.0)
	f.Add(-3.5, 6.0)
	f.Add(math.Inf(1), 6.0)
	f.Add(1e300, 1e-300)
	f.Add(math.Float64frombits(1), 7.5)
	f.Add(math.NaN(), 6.0)
	f.Fuzz(func(t *testing.T, now, period float64) {
		d := &Device{period: math.Abs(period)}
		want := math.Mod(now/d.period, 1)
		if want < 0 {
			want += 1
		}
		got := d.rotFrac(now)
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("rotFrac(%v) with period %v = %v (%#x), Mod formula %v (%#x)",
				now, d.period, got, math.Float64bits(got), want, math.Float64bits(want))
		}
	})
}
