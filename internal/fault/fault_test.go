package fault

import (
	"maps"
	"math/rand"
	"reflect"
	"slices"
	"testing"
	"testing/quick"
)

func TestConfigValidate(t *testing.T) {
	if err := DefaultConfig().Validate(); err != nil {
		t.Fatalf("default config invalid: %v", err)
	}
	bad := []Config{
		{Tips: 0, DataTips: 64, ECCTips: 2, SpareTips: 0},
		{Tips: 6400, DataTips: 0, ECCTips: 2, SpareTips: 0},
		{Tips: 6400, DataTips: 64, ECCTips: -1, SpareTips: 0},
		{Tips: 6400, DataTips: 64, ECCTips: 2, SpareTips: 6400},
		{Tips: 6400, DataTips: 64, ECCTips: 3, SpareTips: 0},  // 6400 % 67 != 0
		{Tips: 600, DataTips: 250, ECCTips: 50, SpareTips: 0}, // width > 256
	}
	for i, c := range bad {
		if err := c.Validate(); err == nil {
			t.Errorf("case %d: expected validation error for %+v", i, c)
		}
	}
}

func TestDefaultConfigDerived(t *testing.T) {
	c := DefaultConfig()
	if c.StripeWidth() != 66 {
		t.Errorf("stripe width = %d, want 66", c.StripeWidth())
	}
	if c.Stripes() != (6400-130)/66 {
		t.Errorf("stripes = %d", c.Stripes())
	}
}

// failTip fails tip id, aborting the test on an unexpected error, and
// returns whether the array is still recoverable.
func failTip(t *testing.T, a *Array, id int) bool {
	t.Helper()
	ok, err := a.FailTip(id)
	if err != nil {
		t.Fatalf("FailTip(%d): %v", id, err)
	}
	return ok
}

func TestFailTipRemapsToSpare(t *testing.T) {
	a, err := NewArray(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if !failTip(t, a, 100) {
		t.Fatal("first failure with spares available must remain recoverable")
	}
	sp, ok := a.RemappedTo(100)
	if !ok {
		t.Fatal("tip 100 not remapped despite available spares")
	}
	if sp < a.Config().Tips-a.Config().SpareTips {
		t.Errorf("remapped to non-spare tip %d", sp)
	}
	if a.SparesLeft() != DefaultConfig().SpareTips-1 {
		t.Errorf("spares left = %d", a.SparesLeft())
	}
	if a.DegradedStripes() != 0 {
		t.Error("remapped failure should not degrade any stripe")
	}
}

func TestFailTipIdempotent(t *testing.T) {
	a, _ := NewArray(DefaultConfig())
	failTip(t, a, 5)
	n := a.SparesLeft()
	failTip(t, a, 5)
	if a.SparesLeft() != n {
		t.Error("re-failing a tip consumed another spare")
	}
	if a.FailedTips() != 1 {
		t.Errorf("failed tips = %d, want 1", a.FailedTips())
	}
}

func TestECCAbsorbsFailuresAfterSparesExhausted(t *testing.T) {
	// With no spares, up to ECCTips failures per stripe are recoverable;
	// one more causes loss.
	cfg := Config{Tips: 660, DataTips: 64, ECCTips: 2, SpareTips: 0}
	a, err := NewArray(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !failTip(t, a, 0) || !failTip(t, a, 1) {
		t.Fatal("ECC should absorb the first two failures in a stripe")
	}
	if a.DegradedStripes() != 1 {
		t.Errorf("degraded stripes = %d, want 1", a.DegradedStripes())
	}
	if failTip(t, a, 2) {
		t.Error("third failure in one stripe must exceed 2 ECC tips")
	}
	if !a.DataLoss() {
		t.Error("DataLoss should report true")
	}
}

func TestFailuresInDifferentStripesIndependent(t *testing.T) {
	cfg := Config{Tips: 650, DataTips: 64, ECCTips: 1, SpareTips: 0}
	a, _ := NewArray(cfg)
	// One failure in each of the 10 stripes: all recoverable.
	for g := 0; g < 10; g++ {
		if !failTip(t, a, g*65) {
			t.Fatalf("failure in stripe %d should be recoverable", g)
		}
	}
	if a.DegradedStripes() != 10 {
		t.Errorf("degraded = %d, want 10", a.DegradedStripes())
	}
}

func TestSpareDeathReexposesFailure(t *testing.T) {
	cfg := Config{Tips: 661, DataTips: 64, ECCTips: 2, SpareTips: 1}
	a, _ := NewArray(cfg)
	failTip(t, a, 10) // remapped to spare 660
	sp, ok := a.RemappedTo(10)
	if !ok || sp != 660 {
		t.Fatalf("remap = %d, %v", sp, ok)
	}
	// The spare itself dies: tip 10's failure now burdens its stripe ECC.
	failTip(t, a, 660)
	if _, ok := a.RemappedTo(10); ok {
		t.Error("dead spare still listed as cover")
	}
	if a.DegradedStripes() != 1 {
		t.Errorf("degraded = %d, want 1", a.DegradedStripes())
	}
}

// TestSpareCascadeOrphanThreshold pins the removeSpare cascade edge case:
// an in-use spare dies while the pool is empty, so the tip it was
// covering is orphaned back onto its stripe's ECC budget (counted in
// failedAt), and data loss flips at exactly ECCTips+1 unremapped
// failures in that stripe.
func TestSpareCascadeOrphanThreshold(t *testing.T) {
	cfg := Config{Tips: 661, DataTips: 64, ECCTips: 2, SpareTips: 1}
	a, err := NewArray(cfg)
	if err != nil {
		t.Fatal(err)
	}
	failTip(t, a, 10) // consumes the only spare (tip 660)
	if a.SparesLeft() != 0 {
		t.Fatalf("spares left = %d, want 0", a.SparesLeft())
	}
	// The in-use spare dies with the pool empty: tip 10 is orphaned.
	if !failTip(t, a, 660) {
		t.Fatal("one orphaned failure must still be within the 2-tip ECC budget")
	}
	if a.UnremappedFailures() != 1 {
		t.Errorf("unremapped failures = %d, want 1 (the orphan)", a.UnremappedFailures())
	}
	if !a.TipDegraded(10) {
		t.Error("orphaned tip 10 should be degraded")
	}
	if a.TipDegraded(660) {
		t.Error("dead spare holds no data and must not count as degraded")
	}
	// ECC absorbs one more failure in the stripe; the next one is loss.
	if !failTip(t, a, 11) {
		t.Fatal("second unremapped failure still within ECC budget")
	}
	if a.DataLoss() {
		t.Fatal("data loss before exceeding ECCTips")
	}
	if failTip(t, a, 12) {
		t.Error("third unremapped failure in the stripe must exceed 2 ECC tips")
	}
	if !a.DataLoss() {
		t.Error("DataLoss should flip at ECCTips+1 unremapped failures")
	}
	if a.UnremappedFailures() != 3 {
		t.Errorf("unremapped failures = %d, want 3", a.UnremappedFailures())
	}
}

func TestUnusedSpareDeathShrinksPool(t *testing.T) {
	cfg := Config{Tips: 662, DataTips: 64, ECCTips: 2, SpareTips: 2}
	a, _ := NewArray(cfg)
	failTip(t, a, 661) // an idle spare dies
	if a.SparesLeft() != 1 {
		t.Errorf("spares left = %d, want 1", a.SparesLeft())
	}
	if a.DataLoss() {
		t.Error("spare death alone should not lose data")
	}
}

func TestMediaDefectsRecoverable(t *testing.T) {
	a, _ := NewArray(DefaultConfig())
	if err := a.MediaDefect(7); err != nil {
		t.Fatal(err)
	}
	if err := a.MediaDefect(8); err != nil {
		t.Fatal(err)
	}
	if a.Defects() != 2 {
		t.Errorf("defects = %d", a.Defects())
	}
	if a.DataLoss() || a.DegradedStripes() != 0 {
		t.Error("media defects must be absorbed by ECC")
	}
	// A defect on an already-failed tip is subsumed.
	failTip(t, a, 9)
	if err := a.MediaDefect(9); err != nil {
		t.Fatal(err)
	}
	if a.Defects() != 2 {
		t.Error("defect on failed tip double-counted")
	}
}

func TestConvertDataToSpares(t *testing.T) {
	cfg := Config{Tips: 660, DataTips: 64, ECCTips: 2, SpareTips: 0}
	a, _ := NewArray(cfg)
	if a.SparesLeft() != 0 {
		t.Fatal("expected no spares initially")
	}
	added := a.ConvertDataToSpares()
	if added != 66 {
		t.Errorf("converted %d tips, want 66", added)
	}
	if a.SparesLeft() != 66 {
		t.Errorf("spares = %d", a.SparesLeft())
	}
	// New failures now remap instead of degrading.
	if !failTip(t, a, 0) {
		t.Fatal("failure should remap to converted spare")
	}
	if a.DegradedStripes() != 0 {
		t.Error("remap should keep stripes clean")
	}
}

func TestBadTipIDsReturnErrors(t *testing.T) {
	a, _ := NewArray(DefaultConfig())
	for i, f := range []func() error{
		func() error { _, err := a.FailTip(-1); return err },
		func() error { _, err := a.FailTip(6400); return err },
		func() error { return a.MediaDefect(-1) },
		func() error { return a.MediaDefect(6400) },
	} {
		if err := f(); err == nil {
			t.Errorf("case %d: expected an error for an out-of-range tip", i)
		}
	}
	// A bad id must leave the array untouched.
	if a.FailedTips() != 0 || a.Defects() != 0 || a.SparesLeft() != DefaultConfig().SpareTips {
		t.Error("out-of-range tip ids mutated the array")
	}
}

func TestLossProbabilityMonotonicInFailures(t *testing.T) {
	cfg := DefaultConfig()
	rng := rand.New(rand.NewSource(6))
	p50, err := LossProbability(cfg, 50, 200, rng)
	if err != nil {
		t.Fatal(err)
	}
	p400, err := LossProbability(cfg, 400, 200, rng)
	if err != nil {
		t.Fatal(err)
	}
	if p50 > p400 {
		t.Errorf("loss probability decreased with more failures: %g vs %g", p50, p400)
	}
	// With spares covering the first 128 failures and 2 ECC tips per
	// stripe beyond that, 50 random failures essentially never lose data.
	if p50 > 0.01 {
		t.Errorf("P(loss | 50 failures) = %g, want ≈ 0", p50)
	}
}

func TestLossProbabilityDiskAnalogy(t *testing.T) {
	// A "disk-like" configuration — no ECC, no spares — loses data on the
	// very first head/tip failure; the MEMS default tolerates hundreds
	// (§6.1.1's contrast).
	disk := Config{Tips: 6400, DataTips: 64, ECCTips: 0, SpareTips: 0}
	rng := rand.New(rand.NewSource(7))
	p, err := LossProbability(disk, 1, 100, rng)
	if err != nil {
		t.Fatal(err)
	}
	if p != 1 {
		t.Errorf("P(loss | 1 failure, no redundancy) = %g, want 1", p)
	}
	mems := DefaultConfig()
	pm, err := LossProbability(mems, 100, 100, rng)
	if err != nil {
		t.Fatal(err)
	}
	if pm > 0.05 {
		t.Errorf("P(loss | 100 failures, default redundancy) = %g, want ≈ 0", pm)
	}
}

func TestLossProbabilityErrors(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	if _, err := LossProbability(Config{}, 1, 10, rng); err == nil {
		t.Error("expected config error")
	}
	if _, err := LossProbability(DefaultConfig(), -1, 10, rng); err == nil {
		t.Error("expected k error")
	}
	if _, err := LossProbability(DefaultConfig(), 1, 0, rng); err == nil {
		t.Error("expected trials error")
	}
}

func TestArrayNeverLosesWithFewerFailuresThanECC(t *testing.T) {
	// Property: with spares + ECC, any failure set smaller than
	// SpareTips + ECCTips + 1 is always recoverable (spares soak the
	// first SpareTips failures regardless of placement).
	f := func(seed int64) bool {
		cfg := Config{Tips: 660, DataTips: 64, ECCTips: 2, SpareTips: 0}
		a, err := NewArray(cfg)
		if err != nil {
			return false
		}
		rng := rand.New(rand.NewSource(seed))
		// Two failures anywhere are always recoverable (ECC = 2).
		ids := rng.Perm(cfg.Tips)[:2]
		for _, id := range ids {
			if _, err := a.FailTip(id); err != nil {
				return false
			}
		}
		return !a.DataLoss()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestSeekErrorPenalties(t *testing.T) {
	// Expected disk penalty with mid-rotation retry lands near re-seek +
	// half rotation; MEMS penalty is turnarounds + short seek, an order
	// of magnitude lower (§6.1.3).
	disk, err := DiskSeekErrorPenalty(1.5, 5.985, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if disk < 4 || disk > 5 {
		t.Errorf("disk seek-error penalty = %g ms", disk)
	}
	mems, err := MEMSSeekErrorPenalty(0.07, 0.2, 2)
	if err != nil {
		t.Fatal(err)
	}
	if mems < 0.2 || mems > 0.5 {
		t.Errorf("MEMS seek-error penalty = %g ms", mems)
	}
	if mems*5 > disk {
		t.Errorf("MEMS penalty %g should be far below disk %g", mems, disk)
	}
	for i, f := range []func() error{
		func() error { _, err := DiskSeekErrorPenalty(1, 5, 1.5); return err },
		func() error { _, err := MEMSSeekErrorPenalty(0.07, 0.1, 3); return err },
		func() error { _, err := MEMSSeekErrorPenalty(0.07, 0.1, -1); return err },
	} {
		if err := f(); err == nil {
			t.Errorf("case %d: expected an error for out-of-range penalty arguments", i)
		}
	}
}

// lossProbabilityReference is LossProbability as first written: a fresh
// NewArray and a fresh rng.Perm for every trial. The reusing version
// must draw the same stream and return the same estimates.
func lossProbabilityReference(t *testing.T, cfg Config, k, trials int, rng *rand.Rand) float64 {
	t.Helper()
	losses := 0
	for tr := 0; tr < trials; tr++ {
		a, err := NewArray(cfg)
		if err != nil {
			t.Fatal(err)
		}
		perm := rng.Perm(cfg.Tips)
		for i := 0; i < k && i < len(perm); i++ {
			failTip(t, a, perm[i])
		}
		if a.DataLoss() {
			losses++
		}
	}
	return float64(losses) / float64(trials)
}

func TestLossProbabilityMatchesFreshPerTrialReference(t *testing.T) {
	// The fault artifact's configurations, from disk-like to heavily
	// redundant.
	configs := []Config{
		{Tips: 6400, DataTips: 64, ECCTips: 0, SpareTips: 0},
		{Tips: 6400, DataTips: 64, ECCTips: 1, SpareTips: 30},
		{Tips: 6400, DataTips: 64, ECCTips: 2, SpareTips: 130},
		{Tips: 6400, DataTips: 64, ECCTips: 2, SpareTips: 394},
	}
	const trials = 40
	for seed := int64(1); seed <= 3; seed++ {
		// One rng per side threaded through the grid, as the artifact
		// does, so a drift in any cell shows in every later one.
		got, want := rand.New(rand.NewSource(seed)), rand.New(rand.NewSource(seed))
		for _, k := range []int{0, 1, 50, 800} {
			for _, cfg := range configs {
				p, err := LossProbability(cfg, k, trials, got)
				if err != nil {
					t.Fatal(err)
				}
				if ref := lossProbabilityReference(t, cfg, k, trials, want); p != ref {
					t.Errorf("seed %d k=%d %+v: P(loss) = %g, reference %g", seed, k, cfg, p, ref)
				}
				if g, w := got.Int63(), want.Int63(); g != w {
					t.Fatalf("seed %d k=%d %+v: next draw %d, reference %d — the stream moved", seed, k, cfg, g, w)
				}
			}
		}
	}
}

// arrayState is everything Array reports about itself, plus the spare
// order and remap table that decide its later remaps.
type arrayState struct {
	spares, failed, degraded, unremapped, defects, stripes int
	loss                                                   bool
	spareIDs                                               []int
	remap                                                  map[int]int
}

func stateOf(a *Array) arrayState {
	return arrayState{a.SparesLeft(), a.FailedTips(), a.DegradedStripes(), a.UnremappedFailures(),
		a.Defects(), len(a.failedAt), a.DataLoss(), slices.Clone(a.spares), maps.Clone(a.remap)}
}

func TestArrayResetMatchesNewArray(t *testing.T) {
	// 27 stripe groups of 4 data + 1 ECC tip, spares 135–139.
	cfg := Config{Tips: 140, DataTips: 4, ECCTips: 1, SpareTips: 5}
	steps := []func(a *Array){
		func(a *Array) { failTip(t, a, 0) },   // remapped to spare 135
		func(a *Array) { failTip(t, a, 135) }, // in-use spare dies: 0 moves to 136
		func(a *Array) { failTip(t, a, 139) }, // unused spare dies
		func(a *Array) { failTip(t, a, 5) },   // → 137
		func(a *Array) { failTip(t, a, 10) },  // → 138, pool empty
		func(a *Array) { failTip(t, a, 11) },  // stripe 2 degraded
		func(a *Array) { failTip(t, a, 12) },  // stripe 2 lost
		func(a *Array) {
			if err := a.MediaDefect(20); err != nil {
				t.Fatal(err)
			}
		},
		func(a *Array) { a.ConvertDataToSpares() }, // stripe 26 retires
		func(a *Array) { failTip(t, a, 30) },       // → converted spare 130
	}
	used, _ := NewArray(cfg)
	for _, step := range steps {
		step(used)
	}
	if s := stateOf(used); !s.loss || s.defects != 1 || s.stripes != 26 || s.failed != 8 {
		t.Fatalf("scenario did not reach the states it exercises: %+v", s)
	}
	used.reset()
	fresh, _ := NewArray(cfg)
	if g, w := stateOf(used), stateOf(fresh); !reflect.DeepEqual(g, w) {
		t.Fatalf("after reset: %+v, NewArray: %+v", g, w)
	}
	// The reset array must also behave like a new one from here on.
	for i, step := range steps {
		step(used)
		step(fresh)
		if g, w := stateOf(used), stateOf(fresh); !reflect.DeepEqual(g, w) {
			t.Fatalf("step %d after reset: %+v, NewArray: %+v", i, g, w)
		}
	}
}
