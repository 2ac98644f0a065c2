package workload

import (
	"math"
	"testing"

	"memsim/internal/core"
	"memsim/internal/layout"
	"memsim/internal/mems"
)

func TestRandomValidation(t *testing.T) {
	base := RandomConfig{
		Rate: 100, ReadFraction: 0.67, MeanBytes: 4096,
		SectorSize: 512, Capacity: 1 << 20, Count: 10, Seed: 1,
	}
	if err := base.Validate(); err != nil {
		t.Fatalf("valid config rejected: %v", err)
	}
	bad := []func(*RandomConfig){
		func(c *RandomConfig) { c.Rate = 0 },
		func(c *RandomConfig) { c.ReadFraction = -0.1 },
		func(c *RandomConfig) { c.ReadFraction = 1.1 },
		func(c *RandomConfig) { c.MeanBytes = 0 },
		func(c *RandomConfig) { c.SectorSize = 0 },
		func(c *RandomConfig) { c.Capacity = 0 },
		func(c *RandomConfig) { c.Count = 0 },
		// NaN passes every ordered comparison, so each float field
		// gets its own NaN case; a NaN rate hangs the open loop.
		func(c *RandomConfig) { c.Rate = math.NaN() },
		func(c *RandomConfig) { c.Rate = math.Inf(1) },
		func(c *RandomConfig) { c.ReadFraction = math.NaN() },
		func(c *RandomConfig) { c.MeanBytes = math.NaN() },
		func(c *RandomConfig) { c.MeanBytes = math.Inf(1) },
	}
	for i, mutate := range bad {
		cfg := base
		mutate(&cfg)
		if err := cfg.Validate(); err == nil {
			t.Errorf("case %d: expected validation error", i)
		}
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Error("NewRandom should panic on invalid config")
			}
		}()
		cfg := base
		cfg.Rate = -1
		NewRandom(cfg)
	}()
}

func TestRandomStatisticalProperties(t *testing.T) {
	const n = 50000
	w := DefaultRandom(200, 512, 1<<22, n, 42)
	reads := 0
	var sumBytes, lastArrival float64
	var sumGap float64
	prev := 0.0
	minLBN, maxLBN := int64(1<<62), int64(0)
	for i := 0; i < n; i++ {
		r := w.Next()
		if r == nil {
			t.Fatalf("stream ended early at %d", i)
		}
		if r.Arrival < prev {
			t.Fatal("arrival times must be non-decreasing")
		}
		sumGap += r.Arrival - prev
		prev = r.Arrival
		lastArrival = r.Arrival
		if r.Op == core.Read {
			reads++
		}
		sumBytes += float64(r.Blocks) * 512
		if r.LBN < minLBN {
			minLBN = r.LBN
		}
		if r.LBN > maxLBN {
			maxLBN = r.LBN
		}
		if r.Blocks < 1 {
			t.Fatal("requests must span at least one sector")
		}
		if r.LBN < 0 || r.LBN+int64(r.Blocks) > 1<<22 {
			t.Fatalf("request outside capacity: lbn=%d blocks=%d", r.LBN, r.Blocks)
		}
	}
	if w.Next() != nil {
		t.Error("stream should be exhausted")
	}
	readFrac := float64(reads) / n
	if math.Abs(readFrac-0.67) > 0.01 {
		t.Errorf("read fraction = %.3f, want ≈ 0.67", readFrac)
	}
	meanBytes := sumBytes / n
	// Rounding up to sectors biases the mean up by ~half a sector.
	if meanBytes < 4000 || meanBytes > 4700 {
		t.Errorf("mean request size = %.0f B, want ≈ 4096–4400", meanBytes)
	}
	meanGap := sumGap / n
	if math.Abs(meanGap-5.0) > 0.15 { // 200 req/s → 5 ms
		t.Errorf("mean interarrival = %.3f ms, want ≈ 5", meanGap)
	}
	if lastArrival <= 0 {
		t.Error("arrivals never advanced")
	}
	// Uniform placement should cover most of the LBN space.
	if minLBN > 1<<18 || maxLBN < (1<<22)-(1<<18) {
		t.Errorf("LBN coverage [%d, %d] too narrow", minLBN, maxLBN)
	}
}

func TestRandomDeterminism(t *testing.T) {
	a := DefaultRandom(500, 512, 1<<20, 100, 7)
	b := DefaultRandom(500, 512, 1<<20, 100, 7)
	for i := 0; i < 100; i++ {
		ra, rb := a.Next(), b.Next()
		if ra.Arrival != rb.Arrival || ra.LBN != rb.LBN || ra.Blocks != rb.Blocks || ra.Op != rb.Op {
			t.Fatalf("streams diverge at %d: %+v vs %+v", i, ra, rb)
		}
	}
	c := DefaultRandom(500, 512, 1<<20, 100, 8)
	diff := false
	a = DefaultRandom(500, 512, 1<<20, 100, 7)
	for i := 0; i < 100; i++ {
		if a.Next().LBN != c.Next().LBN {
			diff = true
			break
		}
	}
	if !diff {
		t.Error("different seeds produced identical streams")
	}
}

func TestRandomSizeCap(t *testing.T) {
	cfg := RandomConfig{
		Rate: 100, ReadFraction: 0.5, MeanBytes: 4096, MaxBytes: 8192,
		SectorSize: 512, Capacity: 1 << 20, Count: 20000, Seed: 3,
	}
	w := NewRandom(cfg)
	for r := w.Next(); r != nil; r = w.Next() {
		if r.Blocks > 8192/512+1 {
			t.Fatalf("request of %d blocks exceeds cap", r.Blocks)
		}
	}
}

func TestBipartiteMix(t *testing.T) {
	g, err := mems.NewGeometry(mems.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	w := NewBipartite(DefaultBipartite(1), layout.NewSimple(g.TotalSectors))
	small, large := 0, 0
	for r := w.Next(); r != nil; r = w.Next() {
		switch r.Blocks {
		case 8:
			small++
		case 800:
			large++
		default:
			t.Fatalf("unexpected request size %d blocks", r.Blocks)
		}
		if r.Op != core.Read {
			t.Fatal("bipartite workload is read-only")
		}
		if r.LBN < 0 || r.LBN+int64(r.Blocks) > g.TotalSectors {
			t.Fatalf("request outside device: %d+%d", r.LBN, r.Blocks)
		}
	}
	total := small + large
	if total != 10000 {
		t.Fatalf("count = %d, want 10000", total)
	}
	frac := float64(small) / float64(total)
	if math.Abs(frac-0.89) > 0.02 {
		t.Errorf("small fraction = %.3f, want ≈ 0.89", frac)
	}
}

func TestBipartitePanicsOnBadConfig(t *testing.T) {
	g, _ := mems.NewGeometry(mems.DefaultConfig())
	cfg := DefaultBipartite(1)
	cfg.Count = 0
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	NewBipartite(cfg, layout.NewSimple(g.TotalSectors))
}

func TestSliceAndFromSlice(t *testing.T) {
	w := DefaultRandom(100, 512, 1<<20, 50, 9)
	reqs := Slice(w)
	if len(reqs) != 50 {
		t.Fatalf("Slice returned %d requests, want 50", len(reqs))
	}
	s := NewFromSlice(reqs)
	for i := 0; i < 50; i++ {
		if got := s.Next(); got != reqs[i] {
			t.Fatalf("FromSlice out of order at %d", i)
		}
	}
	if s.Next() != nil {
		t.Error("FromSlice should be exhausted")
	}
}

func TestThinkTimePassthrough(t *testing.T) {
	// The wrapper must not disturb the wrapped stream: same requests, in
	// order, regardless of the think distribution.
	base := Slice(DefaultRandom(100, 512, 1<<20, 30, 4))
	wrapped := ThinkTime(NewFromSlice(base), ExpThink(10), 7)
	for i := 0; i < len(base); i++ {
		r := wrapped.Next()
		if r != base[i] {
			t.Fatalf("request %d altered by ThinkTime wrapper", i)
		}
		if wrapped.ThinkMs() < 0 {
			t.Fatalf("negative think time %g", wrapped.ThinkMs())
		}
	}
	if wrapped.Next() != nil {
		t.Error("wrapper should be exhausted with its source")
	}
}

func TestThinkTimeDraws(t *testing.T) {
	// Exponential draws with mean 10 ms: the sample mean over 2000 draws
	// lands near 10, and the same seed reproduces the same sequence.
	mk := func() *ThinkSource {
		return ThinkTime(NewFromSlice(Slice(DefaultRandom(100, 512, 1<<20, 2000, 4))), ExpThink(10), 9)
	}
	a, b := mk(), mk()
	sum := 0.0
	for r := a.Next(); r != nil; r = a.Next() {
		b.Next()
		if a.ThinkMs() != b.ThinkMs() {
			t.Fatal("same-seed think draws diverged")
		}
		sum += a.ThinkMs()
	}
	if mean := sum / 2000; mean < 8 || mean > 12 {
		t.Errorf("think mean = %g, want ~10", mean)
	}

	// A nil distribution and a non-positive mean both draw zero.
	z := ThinkTime(NewFromSlice(Slice(DefaultRandom(100, 512, 1<<20, 5, 4))), nil, 1)
	for r := z.Next(); r != nil; r = z.Next() {
		if z.ThinkMs() != 0 {
			t.Errorf("nil dist drew %g", z.ThinkMs())
		}
	}
	if d := ExpThink(0); d(nil) != 0 {
		t.Error("ExpThink(0) should draw zero without touching rng")
	}
}
