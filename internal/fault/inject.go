// inject.go implements deterministic in-simulation fault injection: the
// bridge between the static §6 failure analysis in this package and the
// discrete-event simulator in internal/sim. An Injector is seeded,
// schedule- and rate-driven, and emits three fault classes as the run
// advances through simulated time:
//
//   - transient positioning (seek) errors, drawn per access attempt at a
//     configured rate and recovered by bounded device-level retry, each
//     retry charged at the device's §6.1.3 penalty model;
//   - whole-tip failures, fired at scheduled simulated times against the
//     array's redundancy structure (consuming spares, degrading stripes);
//   - grown media defects, also scheduled, absorbed by stripe ECC.
//
// Reads whose sectors are striped over a degraded (failed, unremapped)
// tip pay an ECC-reconstruction service-time surcharge until a spare — or
// data loss — resolves the stripe.
//
// Determinism: all randomness comes from the injector's own seed, and
// scheduled events fire as simulated time (not host time) passes, so a
// run's outcome is a pure function of (workload, device, injector
// configuration). A zero-rate, event-free injector is behaviorally
// identical to no injector at all: it consumes no random draws and adds
// no service time.

package fault

import (
	"fmt"
	"math/rand"
	"sort"
)

// TipEvent schedules one tip-level fault at a simulated time.
type TipEvent struct {
	// AtMs is the simulated time in ms at which the fault occurs.
	AtMs float64
	// Tip is the probe-tip id the fault strikes.
	Tip int
	// Defect marks a grown media defect (recoverable via stripe ECC,
	// §6.1.1) rather than a whole-tip failure.
	Defect bool
}

// DeviceEvent schedules a whole-device failure at a simulated time: the
// volume member in slot Dev fails completely and is served in degraded
// mode (and rebuilt onto a hot spare) from then on. Device events are
// consumed by sim.RunVolume; the single-device entry points ignore
// them.
type DeviceEvent struct {
	// AtMs is the simulated time in ms at which the device fails.
	AtMs float64
	// Dev is the volume member slot that fails.
	Dev int
}

// InjectorConfig declares a fault-injection scenario.
type InjectorConfig struct {
	// TransientRate is the per-access-attempt probability of a transient
	// positioning error, in [0,1). Each retry attempt draws again, so a
	// request can suffer several errors back to back. Zero disables
	// transient errors without consuming random draws.
	TransientRate float64
	// MaxRetries bounds device-level inline retries per service visit;
	// when a visit exhausts them the request is requeued (open-arrival
	// runs) or retried from scratch (closed runs), up to MaxRequeues.
	MaxRetries int
	// MaxRequeues bounds scheduler requeues per request; past it the
	// request completes as failed.
	MaxRequeues int
	// FallbackPenaltyMs is the per-retry recovery cost charged for devices
	// whose core.RecoveryModel cannot price the error, or that have none.
	FallbackPenaltyMs float64
	// ECCSurchargeMs is the service-time surcharge per degraded sector a
	// read must reconstruct through ECC.
	ECCSurchargeMs float64

	// Array, when non-nil, is the redundancy structure tip events fire
	// against. Required if Events is non-empty.
	Array *Config
	// Events is the tip-failure / media-defect schedule. Events fire in
	// AtMs order as the simulation clock passes them.
	Events []TipEvent
	// SectorTips maps a logical sector to the contiguous range of probe
	// tips [first, first+n) it is striped over (e.g.
	// mems.Geometry.TipsForSector). Nil disables degraded-read detection
	// — appropriate for disks, which have no tip array.
	SectorTips func(lbn int64) (first, n int)

	// DeviceEvents is the whole-device failure schedule for redundant
	// volume runs (sim.RunVolume). Events fire in AtMs order as the
	// simulation clock passes them.
	DeviceEvents []DeviceEvent

	// Lifetime, when non-nil, draws additional whole-device failures
	// from per-slot exponential lifetimes (seeded, deterministic; see
	// LifetimeModel). The drawn schedule is merged with DeviceEvents at
	// construction, so fixed kills and lifetime-drawn failures compose —
	// including repeated failures of the same slot, which is how a
	// second death mid-rebuild arises from a failure-rate model.
	Lifetime *LifetimeModel

	// Seed drives the injector's private random stream.
	Seed int64
}

// DefaultInjectorConfig returns the retry envelope used by the
// fault-injection experiments: up to 3 inline retries and one requeue
// before a request fails, a 1 ms fallback penalty, and a one-row
// (0.129 ms) ECC-reconstruction surcharge per degraded sector.
func DefaultInjectorConfig() InjectorConfig {
	return InjectorConfig{
		MaxRetries:        3,
		MaxRequeues:       1,
		FallbackPenaltyMs: 1,
		ECCSurchargeMs:    0.129,
	}
}

// Validate reports configuration errors.
func (c InjectorConfig) Validate() error {
	switch {
	case c.TransientRate < 0 || c.TransientRate >= 1:
		return fmt.Errorf("fault: transient rate %g out of [0,1)", c.TransientRate)
	case c.MaxRetries < 0 || c.MaxRequeues < 0:
		return fmt.Errorf("fault: retry budgets must be non-negative (retries=%d requeues=%d)",
			c.MaxRetries, c.MaxRequeues)
	case c.FallbackPenaltyMs < 0 || c.ECCSurchargeMs < 0:
		return fmt.Errorf("fault: penalties must be non-negative (fallback=%g ecc=%g)",
			c.FallbackPenaltyMs, c.ECCSurchargeMs)
	case len(c.Events) > 0 && c.Array == nil:
		return fmt.Errorf("fault: %d tip events scheduled without an array configuration", len(c.Events))
	}
	if c.Array != nil {
		if err := c.Array.Validate(); err != nil {
			return err
		}
		for i, ev := range c.Events {
			if ev.AtMs < 0 {
				return fmt.Errorf("fault: event %d scheduled at negative time %g", i, ev.AtMs)
			}
			if ev.Tip < 0 || ev.Tip >= c.Array.Tips {
				return fmt.Errorf("fault: event %d targets tip %d out of range [0,%d)", i, ev.Tip, c.Array.Tips)
			}
		}
	}
	for i, ev := range c.DeviceEvents {
		if ev.AtMs < 0 {
			return fmt.Errorf("fault: device event %d scheduled at negative time %g", i, ev.AtMs)
		}
		if ev.Dev < 0 {
			return fmt.Errorf("fault: device event %d targets negative member slot %d", i, ev.Dev)
		}
	}
	if c.Lifetime != nil {
		if err := c.Lifetime.Validate(); err != nil {
			return err
		}
	}
	return nil
}

// Injector emits deterministic faults into a simulation run. It is
// stateful and not safe for concurrent use; the parallel experiment
// runner builds one per job. The simulation entry points Reset it before
// each run, so one injector may be reused across sequential runs.
type Injector struct {
	cfg    InjectorConfig
	events []TipEvent // sorted by AtMs, stable w.r.t. declaration order
	rng    *rand.Rand
	arr    *Array
	next   int // first unfired event
	// hasDegraded caches whether any stripe currently serves in degraded
	// mode; only Advance can change it, so reads skip the per-sector scan
	// on healthy arrays.
	hasDegraded bool
	// hasLoss caches whether any stripe has exceeded its ECC budget —
	// some sectors are gone and reads touching them must fail.
	hasLoss      bool
	tipFailures  int
	mediaDefects int
	// devEvents is the whole-device failure schedule, sorted by AtMs
	// (stable w.r.t. declaration order).
	devEvents []DeviceEvent
}

// NewInjector validates cfg and builds an injector ready for a run.
func NewInjector(cfg InjectorConfig) (*Injector, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	in := &Injector{
		cfg:       cfg,
		events:    append([]TipEvent(nil), cfg.Events...),
		devEvents: append([]DeviceEvent(nil), cfg.DeviceEvents...),
	}
	if cfg.Lifetime != nil {
		// Expand the lifetime model once, at construction: the drawn
		// schedule is a pure function of the model, so Reset (which
		// re-arms the fixed schedule) never has to re-draw it.
		in.devEvents = append(in.devEvents, cfg.Lifetime.Schedule()...)
	}
	sort.SliceStable(in.events, func(i, j int) bool { return in.events[i].AtMs < in.events[j].AtMs })
	sort.SliceStable(in.devEvents, func(i, j int) bool { return in.devEvents[i].AtMs < in.devEvents[j].AtMs })
	in.Reset()
	return in, nil
}

// Reset restores the initial state: a fresh random stream, a pristine tip
// array, and no fired events.
func (in *Injector) Reset() {
	in.rng = rand.New(rand.NewSource(in.cfg.Seed))
	in.next = 0
	in.hasDegraded = false
	in.hasLoss = false
	in.tipFailures = 0
	in.mediaDefects = 0
	in.arr = nil
	if in.cfg.Array != nil {
		a, err := NewArray(*in.cfg.Array)
		if err != nil {
			// Unreachable: NewInjector validated the configuration.
			panic(err)
		}
		in.arr = a
	}
}

// Advance fires every scheduled tip event with AtMs ≤ now, evolving the
// array's remap state mid-run, and returns the number fired. The
// simulator calls it at each dispatch with non-decreasing times.
func (in *Injector) Advance(now float64) int {
	fired := 0
	for in.next < len(in.events) && in.events[in.next].AtMs <= now {
		ev := in.events[in.next]
		in.next++
		fired++
		if ev.Defect {
			// Event tips were range-checked at construction.
			if err := in.arr.MediaDefect(ev.Tip); err == nil {
				in.mediaDefects++
			}
			continue
		}
		if _, err := in.arr.FailTip(ev.Tip); err == nil {
			in.tipFailures++
		}
	}
	if fired > 0 && in.arr != nil {
		in.hasDegraded = in.arr.UnremappedFailures() > 0
		in.hasLoss = in.arr.DataLoss()
	}
	return fired
}

// TransientError draws whether the next access attempt suffers a
// transient positioning error. At rate zero it returns false without
// consuming a random draw, preserving byte-identical behavior with an
// absent injector.
func (in *Injector) TransientError() bool {
	if in.cfg.TransientRate == 0 {
		return false
	}
	return in.rng.Float64() < in.cfg.TransientRate
}

// Draw returns a uniform value in [0,1) from the injector's stream,
// shaping where in the recovery envelope a retry lands.
func (in *Injector) Draw() float64 { return in.rng.Float64() }

// MaxRetries returns the device-level inline retry budget per visit.
func (in *Injector) MaxRetries() int { return in.cfg.MaxRetries }

// MaxRequeues returns the scheduler requeue budget per request.
func (in *Injector) MaxRequeues() int { return in.cfg.MaxRequeues }

// FallbackPenaltyMs returns the per-retry cost for devices without a
// §6.1.3 recovery model.
func (in *Injector) FallbackPenaltyMs() float64 { return in.cfg.FallbackPenaltyMs }

// ECCSurchargeMs returns the per-sector degraded-read surcharge.
func (in *Injector) ECCSurchargeMs() float64 { return in.cfg.ECCSurchargeMs }

// DegradedBlocks counts the sectors of [lbn, lbn+blocks) currently
// striped over at least one degraded tip — the sectors a read must
// reconstruct through ECC. It returns 0 when no stripe is degraded or no
// tip mapping is configured.
func (in *Injector) DegradedBlocks(lbn int64, blocks int) int {
	if !in.hasDegraded || in.cfg.SectorTips == nil {
		return 0
	}
	n := 0
	for b := 0; b < blocks; b++ {
		first, k := in.cfg.SectorTips(lbn + int64(b))
		for tip := first; tip < first+k; tip++ {
			if in.arr.TipDegraded(tip) {
				n++
				break
			}
		}
	}
	return n
}

// LostBlocks counts the sectors of [lbn, lbn+blocks) currently striped
// over a tip whose stripe group has exceeded its ECC budget — sectors
// whose data is unrecoverable. A read touching any of them must
// complete in error: the simulator uses this to refuse silent service
// of lost data. It returns 0 when no stripe has lost data or no tip
// mapping is configured.
func (in *Injector) LostBlocks(lbn int64, blocks int) int {
	if !in.hasLoss || in.cfg.SectorTips == nil {
		return 0
	}
	n := 0
	for b := 0; b < blocks; b++ {
		first, k := in.cfg.SectorTips(lbn + int64(b))
		for tip := first; tip < first+k; tip++ {
			if in.arr.TipLost(tip) {
				n++
				break
			}
		}
	}
	return n
}

// DeviceEvents returns the whole-device failure schedule, sorted by
// firing time. The caller must not mutate the returned slice.
func (in *Injector) DeviceEvents() []DeviceEvent { return in.devEvents }

// Array exposes the evolving redundancy state (nil when the injector has
// no tip array); experiments read spare and degraded-stripe counts from
// it after a run.
func (in *Injector) Array() *Array { return in.arr }

// TipFailuresFired reports the whole-tip failure events applied so far.
func (in *Injector) TipFailuresFired() int { return in.tipFailures }

// MediaDefectsFired reports the media-defect events applied so far.
func (in *Injector) MediaDefectsFired() int { return in.mediaDefects }
