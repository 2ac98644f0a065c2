// lifetime.go models device lifetimes as seeded exponential draws — the
// failure-rate counterpart of the scheduled DeviceEvent machinery. The
// paper's §6 availability argument is statistical: MEMS arrays survive
// because their rebuild window (the interval a volume runs degraded and
// a second failure loses data) is several times shorter than a disk
// array's, so for equal device MTTF the mean time to data loss is
// several times longer. A LifetimeModel turns that argument into
// simulation inputs two ways:
//
//   - Schedule expands the model into a concrete DeviceEvent schedule —
//     each member slot experiences a Poisson renewal process of failures
//     at rate 1/MTTF — which the injector merges with any fixed events,
//     so sim.RunVolume sees drawn failures exactly like scheduled ones
//     (including repeated failures and second deaths mid-rebuild);
//   - LifetimeSampler + TimeToDataLoss drive the Monte-Carlo MTTDL
//     estimator (the `mttdl` artifact): whole volume lifetimes are
//     simulated as alternating healthy and vulnerable windows until a
//     second concurrent failure loses data.
//
// Determinism: all randomness derives from the model's own seed, with a
// decorrelated sub-stream per member slot, so a schedule or trial is a
// pure function of its declaration.
package fault

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
)

// LifetimeModel describes per-device exponential lifetimes for a
// redundant volume's member slots.
type LifetimeModel struct {
	// MTTFMs is the mean time to failure of one device in simulated ms.
	MTTFMs float64
	// Slots is the number of member slots failures are drawn for; drawn
	// events target slots [0, Slots).
	Slots int
	// HorizonMs bounds the drawn schedule: failures are drawn per slot
	// until their cumulative time passes the horizon.
	HorizonMs float64
	// Seed drives the model's private random streams. Each slot gets a
	// decorrelated sub-stream derived from Seed, so the schedule for
	// slot k does not change when Slots grows past k.
	Seed int64
}

// Validate reports configuration errors. NaN or infinite parameters are
// rejected: a lifetime model with a nonsensical MTTF would silently draw
// an empty (or unbounded) schedule.
func (m LifetimeModel) Validate() error {
	switch {
	case math.IsNaN(m.MTTFMs) || math.IsInf(m.MTTFMs, 0) || m.MTTFMs <= 0:
		return fmt.Errorf("fault: lifetime MTTF %g ms must be positive and finite", m.MTTFMs)
	case m.Slots <= 0:
		return fmt.Errorf("fault: lifetime model needs at least one slot, got %d", m.Slots)
	case math.IsNaN(m.HorizonMs) || math.IsInf(m.HorizonMs, 0) || m.HorizonMs <= 0:
		return fmt.Errorf("fault: lifetime horizon %g ms must be positive and finite", m.HorizonMs)
	}
	return nil
}

// slotSeed decorrelates per-slot random streams; the odd multiplier
// (splitmix64's golden-ratio increment) spreads consecutive slots across
// the seed space.
func (m LifetimeModel) slotSeed(slot int) int64 {
	return m.Seed ^ int64(uint64(slot+1)*0x9E3779B97F4A7C15)
}

// Schedule draws the failure schedule: per slot, exponential
// inter-failure gaps accumulate until the horizon, so one slot can fail
// repeatedly — modeling the replacement device dying too, which is how
// a second death mid-rebuild enters a run. Events are merged across
// slots and sorted by firing time (ties stable by slot). The schedule is
// a pure function of the model; callers may re-invoke it freely.
func (m LifetimeModel) Schedule() []DeviceEvent {
	var evs []DeviceEvent
	for slot := 0; slot < m.Slots; slot++ {
		rng := rand.New(rand.NewSource(m.slotSeed(slot)))
		for t := rng.ExpFloat64() * m.MTTFMs; t <= m.HorizonMs; t += rng.ExpFloat64() * m.MTTFMs {
			evs = append(evs, DeviceEvent{AtMs: t, Dev: slot})
		}
	}
	sort.SliceStable(evs, func(i, j int) bool { return evs[i].AtMs < evs[j].AtMs })
	return evs
}

// LifetimeSampler draws exponential device lifetimes from a private
// seeded stream — the per-trial randomness of the Monte-Carlo MTTDL
// estimator.
type LifetimeSampler struct {
	mttfMs float64
	rng    *rand.Rand
}

// NewLifetimeSampler returns a sampler drawing lifetimes with the given
// mean (ms) from the given seed.
func NewLifetimeSampler(mttfMs float64, seed int64) *LifetimeSampler {
	return &LifetimeSampler{mttfMs: mttfMs, rng: rand.New(rand.NewSource(seed))}
}

// Seed restarts the sampler on the stream NewLifetimeSampler(mttf, seed)
// draws, without allocating another source.
func (s *LifetimeSampler) Seed(seed int64) { s.rng.Seed(seed) }

// Draw returns one device's lifetime in ms.
func (s *LifetimeSampler) Draw() float64 { return s.rng.ExpFloat64() * s.mttfMs }

// FirstOf returns the time until the first failure among n independent
// devices — exponentially distributed with mean MTTF/n, realized with a
// single draw.
func (s *LifetimeSampler) FirstOf(n int) float64 {
	if n <= 0 {
		panic(fmt.Sprintf("fault: FirstOf needs a positive population, got %d", n))
	}
	return s.Draw() / float64(n)
}

// TimeToDataLoss simulates one volume lifetime and returns the
// simulated time (ms) at which data is lost, plus whether loss occurred
// within maxCycles repair cycles (false means the trial was censored —
// the caller should report it rather than silently folding a truncated
// lifetime into the mean).
//
// The volume alternates two states, exploiting the exponential model's
// memorylessness: healthy with `members` live devices until the first
// failure (Exp with mean MTTF/members), then vulnerable for windowMs —
// the measured rebuild window — during which a failure among the
// members-1 survivors loses data. Surviving the window restores full
// redundancy (hot-spare replacement) and the cycle repeats. This is the
// §6 two-state Markov chain, sampled rather than solved, so the same
// machinery extends to non-exponential lifetimes or load-dependent
// windows later.
func TimeToDataLoss(s *LifetimeSampler, members int, windowMs float64, maxCycles int) (float64, bool) {
	if members < 2 {
		panic(fmt.Sprintf("fault: time to data loss needs at least 2 members, got %d", members))
	}
	if windowMs < 0 || math.IsNaN(windowMs) {
		panic(fmt.Sprintf("fault: rebuild window %g ms must be non-negative", windowMs))
	}
	t := 0.0
	for cycle := 0; cycle < maxCycles; cycle++ {
		t += s.FirstOf(members)
		// Memorylessness: the survivors' residual lifetimes are fresh
		// exponentials, so the next failure among them is one FirstOf draw.
		second := s.FirstOf(members - 1)
		if second < windowMs {
			return t + second, true
		}
		t += windowMs
	}
	return t, false
}
