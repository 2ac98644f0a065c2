// Package fault implements the failure-management machinery of §6: tip
// striping with horizontal ECC (a Reed-Solomon erasure code), spare-tip
// remapping that preserves access timing, the capacity ↔ fault-tolerance
// tradeoff, Monte-Carlo data-loss analysis, and the seek-error penalty
// models comparing disks with MEMS-based storage.
package fault

import (
	"fmt"
	"math/bits"
	"math/rand"
	"sync"
)

// Config describes the redundancy structure of a tip array.
type Config struct {
	// Tips is the total number of probe tips (6400).
	Tips int
	// StripeWidth is the number of tips a stripe group spans: DataTips +
	// ECCTips. Tips are partitioned into consecutive stripe groups.
	DataTips, ECCTips int
	// SpareTips is the size of the spare pool, taken from the end of the
	// tip array. A failed tip's entire region can be remapped to the
	// *same tip sector* on a spare tip (§6.1.1), so remapping does not
	// perturb access timing.
	SpareTips int
}

// DefaultConfig mirrors the paper's device with one parity tip per
// 64-tip stripe and a modest spare pool.
func DefaultConfig() Config {
	return Config{Tips: 6400, DataTips: 64, ECCTips: 2, SpareTips: 130}
}

// Validate reports configuration errors.
func (c Config) Validate() error {
	w := c.DataTips + c.ECCTips
	switch {
	case c.Tips <= 0 || c.DataTips <= 0 || c.ECCTips < 0 || c.SpareTips < 0:
		return fmt.Errorf("fault: counts must be non-negative (tips=%d data=%d ecc=%d spare=%d)",
			c.Tips, c.DataTips, c.ECCTips, c.SpareTips)
	case c.SpareTips >= c.Tips:
		return fmt.Errorf("fault: spare pool (%d) consumes the whole array (%d)", c.SpareTips, c.Tips)
	case (c.Tips-c.SpareTips)%w != 0:
		return fmt.Errorf("fault: usable tips (%d) not a multiple of stripe width (%d)", c.Tips-c.SpareTips, w)
	case w > 256:
		return fmt.Errorf("fault: stripe width %d exceeds the GF(256) erasure code limit", w)
	}
	return nil
}

// StripeWidth returns DataTips+ECCTips.
func (c Config) StripeWidth() int { return c.DataTips + c.ECCTips }

// Stripes returns the number of stripe groups.
func (c Config) Stripes() int { return (c.Tips - c.SpareTips) / c.StripeWidth() }

// Array tracks tip failures, spare remappings, and recoverability for one
// device.
type Array struct {
	cfg Config
	// failedAt[g] counts failed-and-unremapped tips in stripe group g.
	failedAt []int
	// remap[id] is the spare that replaced failed tip id, or −1; owner
	// is its inverse, owner[spare] the tip it stands in for, or −1.
	remap, owner []int32
	// spares not yet consumed, in ascending order.
	spares []int
	// pool is the backing array NewArray gave spares; reset refills it.
	pool []int
	// failed marks every tip that has ever failed (remapped or not), and
	// failures lists them in failure order, so reset clears only those.
	failed   []bool
	failures []int
	// defects counts recoverable media defects absorbed by ECC.
	defects int
}

// NewArray builds an Array; it returns an error for invalid
// configurations.
func NewArray(cfg Config) (*Array, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	a := &Array{
		cfg:      cfg,
		failedAt: make([]int, cfg.Stripes()),
		remap:    make([]int32, cfg.Tips),
		owner:    make([]int32, cfg.Tips),
		failed:   make([]bool, cfg.Tips),
		pool:     make([]int, 0, cfg.SpareTips),
	}
	for i := range a.remap {
		a.remap[i], a.owner[i] = -1, -1
	}
	a.reset()
	return a, nil
}

// reset restores the state NewArray returns, in place: no tip failed,
// every stripe group back (after ConvertDataToSpares), the spare pool
// full and no defects.
func (a *Array) reset() {
	a.failedAt = a.failedAt[:a.cfg.Stripes()]
	clear(a.failedAt)
	for _, id := range a.failures {
		if sp := a.remap[id]; sp >= 0 {
			a.remap[id], a.owner[sp] = -1, -1
		}
		a.failed[id] = false
	}
	a.failures = a.failures[:0]
	a.spares = a.pool[:0]
	for i := a.cfg.Tips - a.cfg.SpareTips; i < a.cfg.Tips; i++ {
		a.spares = append(a.spares, i)
	}
	a.defects = 0
}

// Config returns the array's configuration.
func (a *Array) Config() Config { return a.cfg }

// SparesLeft reports the remaining spare tips.
func (a *Array) SparesLeft() int { return len(a.spares) }

// FailedTips reports how many tips have failed so far.
func (a *Array) FailedTips() int { return len(a.failures) }

// stripeOf returns the stripe group of tip id, or -1 for spare-pool tips.
func (a *Array) stripeOf(id int) int {
	if id >= a.cfg.Tips-a.cfg.SpareTips {
		return -1
	}
	return id / a.cfg.StripeWidth()
}

// FailTip records the failure of tip id (a broken or crashed probe tip,
// §6.1.1) and attempts to remap its region to a spare. It reports whether
// the device still has no data loss afterwards. Failing an already-failed
// tip is a no-op. An out-of-range id leaves the array untouched and
// returns an error, so a misconfigured experiment fails cleanly instead
// of killing its worker.
func (a *Array) FailTip(id int) (stillRecoverable bool, err error) {
	if id < 0 || id >= a.cfg.Tips {
		return !a.DataLoss(), fmt.Errorf("fault: tip %d out of range [0,%d)", id, a.cfg.Tips)
	}
	a.fail(id)
	return !a.DataLoss(), nil
}

// fail is FailTip for an in-range id, without the data-loss check.
func (a *Array) fail(id int) {
	if a.failed[id] {
		return
	}
	a.failed[id] = true
	a.failures = append(a.failures, id)
	g := a.stripeOf(id)
	switch {
	case g < 0:
		// A spare died: shrink the pool (it may already be in use).
		a.removeSpare(id)
	case len(a.spares) > 0:
		// Remap the whole region to a spare at the same tip sector;
		// access timing is unchanged because the spare activates in
		// place of the failed tip.
		a.cover(id)
	default:
		a.failedAt[g]++
	}
}

// removeSpare deletes id from the spare pool if present; if the spare was
// already standing in for a failed tip, that tip loses its cover.
func (a *Array) removeSpare(id int) {
	for i, s := range a.spares {
		if s == id {
			a.spares = append(a.spares[:i], a.spares[i+1:]...)
			return
		}
	}
	if orig := a.owner[id]; orig >= 0 {
		a.remap[orig], a.owner[id] = -1, -1
		if len(a.spares) > 0 {
			a.cover(int(orig))
		} else {
			a.failedAt[a.stripeOf(int(orig))]++
		}
	}
}

// cover remaps failed tip id to the first unused spare.
func (a *Array) cover(id int) {
	sp := a.spares[0]
	a.spares = a.spares[1:]
	a.remap[id], a.owner[sp] = int32(sp), int32(id)
}

// MediaDefect records a grown media defect under one tip (§6.1.1). Unlike
// a tip failure it affects only part of the region; it is recoverable via
// the stripe's ECC without consuming a spare, so it is tallied but does
// not degrade the stripe budget. Defects on the same tip as a prior
// failure are subsumed by it. An out-of-range id returns an error and
// changes nothing.
func (a *Array) MediaDefect(id int) error {
	if id < 0 || id >= a.cfg.Tips {
		return fmt.Errorf("fault: tip %d out of range [0,%d)", id, a.cfg.Tips)
	}
	if !a.failed[id] {
		a.defects++
	}
	return nil
}

// Defects reports the recoverable media defects absorbed so far.
func (a *Array) Defects() int { return a.defects }

// RemappedTo returns the spare standing in for tip id, and whether one is.
func (a *Array) RemappedTo(id int) (int, bool) {
	if id < 0 || id >= a.cfg.Tips || a.remap[id] < 0 {
		return 0, false
	}
	return int(a.remap[id]), true
}

// TipDegraded reports whether tip id is a failed data tip currently
// lacking spare cover, so that sectors striped over it must be served by
// ECC reconstruction. Remapped tips and dead spare-pool tips (which hold
// no data) are not degraded. Out-of-range ids report false.
func (a *Array) TipDegraded(id int) bool {
	if id < 0 || id >= a.cfg.Tips || !a.failed[id] {
		return false
	}
	if a.remap[id] >= 0 {
		return false
	}
	return a.stripeOf(id) >= 0
}

// TipLost reports whether tip id is a failed, unremapped data tip in a
// stripe group whose unremapped failures exceed its ECC budget — the
// data under it is unrecoverable, and reads touching it must fail
// rather than be silently served. Out-of-range ids report false.
func (a *Array) TipLost(id int) bool {
	if !a.TipDegraded(id) {
		return false
	}
	return a.failedAt[a.stripeOf(id)] > a.cfg.ECCTips
}

// UnremappedFailures counts failed data tips currently lacking spare
// cover — the tips whose stripes are serving reads in degraded mode.
func (a *Array) UnremappedFailures() int {
	n := 0
	for _, f := range a.failedAt {
		n += f
	}
	return n
}

// DataLoss reports whether any stripe group has more unremapped failures
// than its ECC can erase.
func (a *Array) DataLoss() bool {
	for _, n := range a.failedAt {
		if n > a.cfg.ECCTips {
			return true
		}
	}
	return false
}

// DegradedStripes counts stripe groups currently relying on ECC (≥1
// unremapped failure but no loss).
func (a *Array) DegradedStripes() int {
	n := 0
	for _, f := range a.failedAt {
		if f > 0 && f <= a.cfg.ECCTips {
			n++
		}
	}
	return n
}

// ConvertDataToSpares enacts the §6.1.1 tradeoff in one direction:
// sacrifice device capacity by retiring the last data stripe group into
// the spare pool. It returns the number of tips added.
func (a *Array) ConvertDataToSpares() int {
	if len(a.failedAt) == 0 {
		return 0
	}
	g := len(a.failedAt) - 1
	lo := g * a.cfg.StripeWidth()
	hi := lo + a.cfg.StripeWidth()
	added := 0
	for id := lo; id < hi; id++ {
		if !a.failed[id] {
			a.spares = append(a.spares, id)
			added++
		}
	}
	a.failedAt = a.failedAt[:g]
	return added
}

// fastmodTips is the largest draw bound the shared fastmod table
// covers: the paper's 6400 tips, rounded up to a power of two.
const fastmodTips = 1 << 13

// sharedFastmod is fastmodTable(fastmodTips), built on first use and then
// read, never written, for the life of the process.
var sharedFastmod = sync.OnceValue(func() []uint64 { return fastmodTable(fastmodTips) })

// fastmodTable returns m with m[n] = ⌊(2⁶⁴−1)/n⌋ + 1 = ⌈2⁶⁴/n⌉ (mod 2⁶⁴)
// for n in [1, max]: Lemire's constant, for which hi(lo(m[n]·v)·n) is
// v mod n exactly for every 32-bit v (Lemire, Kaser and Kurz, "Faster
// Remainder by Direct Computation", 2019). m[1] wraps to 0, which gives
// v mod 1 = 0; m[0] is unused.
func fastmodTable(max int) []uint64 {
	m := make([]uint64, max+1)
	for n := 1; n <= max; n++ {
		m[n] = ^uint64(0)/uint64(n) + 1
	}
	return m
}

// intn returns rng.Intn(n) for 1 ≤ n < len(m), m a fastmodTable, value
// for value and draw for draw, without Int31n's two divisions. Int31n
// draws v = Int31() until v ≤ 2³¹−1 − 2³¹ mod n and returns v mod n
// (for a power of two, one draw masked, the same value). Since
// 2³¹ mod n < n, only v ≥ 2³¹−n can be rejected, so the threshold is
// computed only there, and m[n] takes the modulus.
func intn(rng *rand.Rand, m []uint64, n int) int {
	d := uint64(n)
	v := uint64(rng.Int63() >> 32)
	for v >= 1<<31-d && v > 1<<31-1-(1<<31)%d {
		v = uint64(rng.Int63() >> 32)
	}
	j, _ := bits.Mul64(m[d]*v, d)
	return int(j)
}

// LossProbability estimates, by Monte Carlo over trials with rng, the
// probability that k uniformly-random tip failures cause data loss under
// cfg. It is the quantitative form of §6.1's claim that striping + spares
// make many faults that would kill a disk recoverable.
func LossProbability(cfg Config, k, trials int, rng *rand.Rand) (float64, error) {
	if err := cfg.Validate(); err != nil {
		return 0, err
	}
	if k < 0 || trials <= 0 {
		return 0, fmt.Errorf("fault: need k ≥ 0 and trials > 0 (k=%d trials=%d)", k, trials)
	}
	a, err := NewArray(cfg)
	if err != nil {
		return 0, err
	}
	// The failed tips are rng.Perm(cfg.Tips)[:k], built on k slots.
	// Perm's inside-out shuffle touches only slots ≤ i at step i, so its
	// first k steps build the prefix alone; a later step i draws j and
	// moves i into slot j, which reaches the prefix only when j < k.
	// Every draw is still made, so the random stream, and so every
	// estimate, stays the same. A spare slot past the prefix takes the
	// later steps' moves that miss it, so that step needs no branch.
	// Each step's draw is rng.Intn(i+1), taken by intn.
	n := min(k, cfg.Tips)
	m := sharedFastmod()
	if cfg.Tips >= len(m) {
		m = fastmodTable(cfg.Tips)
	}
	perm := make([]int, n+1)
	losses := 0
	for t := 0; t < trials; t++ {
		a.reset()
		for i := range n {
			j := intn(rng, m, i+1)
			perm[i] = perm[j]
			perm[j] = i
		}
		for i := n; i < cfg.Tips; i++ {
			// intn(rng, m, i+1), written out: it is too large to be
			// inlined, and calling it took a quarter of the run time.
			d := uint64(i + 1)
			v := uint64(rng.Int63() >> 32)
			for v >= 1<<31-d && v > 1<<31-1-(1<<31)%d {
				v = uint64(rng.Int63() >> 32)
			}
			j, _ := bits.Mul64(m[d]*v, d)
			perm[min(int(j), n)] = i
		}
		for _, id := range perm[:n] {
			a.fail(id)
		}
		if a.DataLoss() {
			losses++
		}
	}
	return float64(losses) / float64(trials), nil
}

// ─── Seek-error penalties (§6.1.3) ──────────────────────────────────────

// DiskSeekErrorPenalty returns the cost in ms of a disk seek error: a
// short re-seek plus up to a full additional rotation for the sector to
// come around again. rotFrac ∈ [0,1) selects where in the rotation the
// retry lands (0.5 = expected case); values outside the interval return
// an error.
func DiskSeekErrorPenalty(reseekMs, rotationMs, rotFrac float64) (float64, error) {
	if rotFrac < 0 || rotFrac >= 1 {
		return 0, fmt.Errorf("fault: rotation fraction %g out of [0,1)", rotFrac)
	}
	return reseekMs + rotFrac*rotationMs, nil
}

// MEMSSeekErrorPenalty returns the cost in ms of a MEMS seek error: up to
// two Y turnarounds plus a short repositioning seek — no rotational
// penalty exists because the sled's motion is fully controlled (§2.4.8).
// A turnaround count outside [0,2] returns an error.
func MEMSSeekErrorPenalty(turnaroundMs, shortSeekMs float64, turnarounds int) (float64, error) {
	if turnarounds < 0 || turnarounds > 2 {
		return 0, fmt.Errorf("fault: turnaround count %d out of [0,2]", turnarounds)
	}
	return float64(turnarounds)*turnaroundMs + shortSeekMs, nil
}
