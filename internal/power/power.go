// Package power implements the power-management models of §7: a
// MEMS-based storage device whose power is a near-linear function of bits
// accessed and whose sled stops and restarts in well under a millisecond,
// versus a disk whose spindle makes idle power expensive and restarts
// slow.
//
// The central abstraction is Managed, a core.Device wrapper that tracks
// the device's power state over simulated time, applies an idle-timeout
// policy ("switch from active to idle as soon as the I/O queue is empty"
// being the MEMS limit case of timeout 0), charges restart latency to the
// first request after a power-down, and integrates energy.
package power

import (
	"fmt"
	"math"

	"memsim/internal/core"
)

// Model holds a device's power parameters. All powers are watts; times
// are milliseconds.
type Model struct {
	// ActiveW is drawn while servicing a request.
	ActiveW float64
	// IdleW is drawn while powered up but not servicing (a disk's
	// spindle keeps turning; a MEMS device's electronics idle).
	IdleW float64
	// StandbyW is drawn in the low-power state after the idle timeout
	// (spindle stopped / sled parked and electronics napping).
	StandbyW float64
	// RestartMs is the latency to leave standby before the next request
	// can be serviced (disk spin-up; MEMS sled restart ≈ 0.5 ms).
	RestartMs float64
	// RestartW is drawn during a restart (a disk's spin-up surge).
	RestartW float64
}

// Validate reports parameter errors.
func (m Model) Validate() error {
	if m.ActiveW < 0 || m.IdleW < 0 || m.StandbyW < 0 || m.RestartMs < 0 || m.RestartW < 0 {
		return fmt.Errorf("power: negative parameter in %+v", m)
	}
	return nil
}

// MEMSModel returns parameters for the paper's MEMS-based storage device:
// ~1 W while accessing (dominated by the active probe tips — "90% of a
// MEMS-based storage device's power is used for sensing and recording"),
// negligible sled/idle power, an effectively free sub-millisecond
// restart, and no surge.
func MEMSModel() Model {
	return Model{
		ActiveW:   1.0,
		IdleW:     0.1,
		StandbyW:  0.01,
		RestartMs: 0.5,
		RestartW:  1.0,
	}
}

// MobileDiskModel returns parameters in the style of the 2.5-inch mobile
// drives the paper cites for power management (IBM Travelstar class):
// watts of active power, spindle-dominated idle power, and a
// multi-second, high-surge spin-up.
func MobileDiskModel() Model {
	return Model{
		ActiveW:   2.5,
		IdleW:     0.9,
		StandbyW:  0.25,
		RestartMs: 2000,
		RestartW:  4.5,
	}
}

// ServerDiskModel returns parameters in the style of the Atlas 10K class
// of drives: the paper notes high-end disks can take 25 seconds to spin
// up (§6.3), making standby nearly unusable.
func ServerDiskModel() Model {
	return Model{
		ActiveW:   13.5,
		IdleW:     7.9,
		StandbyW:  2.5,
		RestartMs: 25000,
		RestartW:  20,
	}
}

// Policy is an idle-timeout power policy: after TimeoutMs of idleness the
// device drops to standby. A zero timeout is the MEMS "stop the sled the
// moment the queue is empty" policy; math.Inf(1) disables standby.
type Policy struct {
	TimeoutMs float64
}

// AlwaysOn returns the policy that never enters standby.
func AlwaysOn() Policy { return Policy{TimeoutMs: math.Inf(1)} }

// Immediate returns the zero-timeout policy of §7.
func Immediate() Policy { return Policy{} }

// Report summarizes a run's energy and latency impact.
type Report struct {
	// Joules per state.
	ActiveJ, IdleJ, StandbyJ, RestartJ float64
	// Restarts counts standby exits.
	Restarts int
	// PenaltyMs is the total restart latency added to request service.
	PenaltyMs float64
	// Requests observed.
	Requests int
	// BytesMoved is the total data transferred.
	BytesMoved int64
	// ElapsedMs is the span of simulated time covered.
	ElapsedMs float64
}

// TotalJ returns total energy in joules.
func (r Report) TotalJ() float64 { return r.ActiveJ + r.IdleJ + r.StandbyJ + r.RestartJ }

// MeanPowerW returns the average power over the covered span.
func (r Report) MeanPowerW() float64 {
	if r.ElapsedMs == 0 {
		return 0
	}
	return r.TotalJ() / (r.ElapsedMs / 1000)
}

// MeanPenaltyMs returns the average restart latency per request.
func (r Report) MeanPenaltyMs() float64 {
	if r.Requests == 0 {
		return 0
	}
	return r.PenaltyMs / float64(r.Requests)
}

// Managed wraps a device with power-state tracking. It implements
// core.Device, so it drops into the simulator in place of the raw device;
// restart latency appears in request service (and therefore response)
// times, and energy is integrated as simulated time advances.
type Managed struct {
	inner  core.Device
	model  Model
	policy Policy

	// lastBusyEnd is when the device last finished servicing.
	lastBusyEnd float64
	// lastPenaltyMs is the restart penalty charged by the most recent
	// Access, folded into its reported breakdown.
	lastPenaltyMs float64
	rep           Report
}

var (
	_ core.Device        = (*Managed)(nil)
	_ core.RecoveryModel = (*Managed)(nil)
	_ core.LowerBounder  = (*Managed)(nil)
)

// NewManaged wraps inner with the given model and policy. It panics on an
// invalid model (programmer-supplied configuration).
func NewManaged(inner core.Device, model Model, policy Policy) *Managed {
	if err := model.Validate(); err != nil {
		panic(err)
	}
	if policy.TimeoutMs < 0 {
		panic(fmt.Sprintf("power: negative idle timeout %g", policy.TimeoutMs))
	}
	return &Managed{inner: inner, model: model, policy: policy}
}

// Name implements core.Device.
func (m *Managed) Name() string { return m.inner.Name() + "+power" }

// Capacity implements core.Device.
func (m *Managed) Capacity() int64 { return m.inner.Capacity() }

// SectorSize implements core.Device.
func (m *Managed) SectorSize() int { return m.inner.SectorSize() }

// Reset implements core.Device; it clears the power accounting too.
func (m *Managed) Reset() {
	m.inner.Reset()
	m.lastBusyEnd = 0
	m.lastPenaltyMs = 0
	m.rep = Report{}
}

// accountIdle integrates idle/standby energy for the gap [lastBusyEnd,
// now) and returns the restart penalty owed by a request arriving at now.
func (m *Managed) accountIdle(now float64) (penaltyMs float64) {
	gap := now - m.lastBusyEnd
	if gap <= 0 {
		return 0
	}
	idle := math.Min(gap, m.policy.TimeoutMs)
	m.rep.IdleJ += m.model.IdleW * idle / 1000
	if gap > m.policy.TimeoutMs {
		standby := gap - m.policy.TimeoutMs
		m.rep.StandbyJ += m.model.StandbyW * standby / 1000
		m.rep.Restarts++
		m.rep.RestartJ += m.model.RestartW * m.model.RestartMs / 1000
		return m.model.RestartMs
	}
	return 0
}

// Access implements core.Device: it charges any pending restart, services
// the request on the wrapped device, and integrates active energy.
func (m *Managed) Access(req *core.Request, now float64) float64 {
	penalty := m.accountIdle(now)
	svc := m.inner.Access(req, now+penalty)
	total := penalty + svc
	m.lastPenaltyMs = penalty
	m.rep.ActiveJ += m.model.ActiveW * svc / 1000
	m.rep.PenaltyMs += penalty
	m.rep.Requests++
	m.rep.BytesMoved += req.Bytes(m.inner.SectorSize())
	m.lastBusyEnd = now + total
	if m.lastBusyEnd > m.rep.ElapsedMs {
		m.rep.ElapsedMs = m.lastBusyEnd
	}
	return total
}

// restartPenalty is the restart a request arriving at now would pay,
// without committing any state.
func (m *Managed) restartPenalty(now float64) float64 {
	if gap := now - m.lastBusyEnd; gap > m.policy.TimeoutMs {
		return m.model.RestartMs
	}
	return 0
}

// EstimateAccess implements core.Device: the estimate includes the
// restart penalty the request would pay, without committing any state.
func (m *Managed) EstimateAccess(req *core.Request, now float64) float64 {
	penalty := m.restartPenalty(now)
	return penalty + m.inner.EstimateAccess(req, now+penalty)
}

// BoundKey implements core.LowerBounder by delegation: the restart
// penalty depends on the time, so it stays out of the key. Over a
// device with no bound it returns the zero key.
func (m *Managed) BoundKey(req *core.Request) core.BoundKey {
	if lb, ok := m.inner.(core.LowerBounder); ok {
		return lb.BoundKey(req)
	}
	return core.BoundKey{}
}

// LowerBounds implements core.LowerBounder: the restart penalty plus
// the wrapped device's bound at the restart-shifted start time,
// mirroring EstimateAccess term for term. The penalty depends only on
// the time, so it is priced once for the batch. Over a device with no
// bound the penalty alone bounds the estimate.
func (m *Managed) LowerBounds(keys []core.BoundKey, now float64, out []float64) {
	penalty := m.restartPenalty(now)
	out = out[:len(keys)]
	lb, ok := m.inner.(core.LowerBounder)
	if !ok {
		for i := range out {
			out[i] = penalty
		}
		return
	}
	lb.LowerBounds(keys, now+penalty, out)
	for i := range out {
		out[i] = penalty + out[i]
	}
}

// KeyCyl implements core.LowerBounder by delegation; over a device with
// no bound every key is the zero key, at cylinder 0.
func (m *Managed) KeyCyl() int32 {
	if lb, ok := m.inner.(core.LowerBounder); ok {
		return lb.KeyCyl()
	}
	return 0
}

// Floor implements core.LowerBounder: the restart penalty plus the
// wrapped device's floor at the restart-shifted start time, as
// LowerBounds adds it, so the sum stays at or below every bound of the
// cylinder. The penalty does not depend on c, so the floor keeps the
// wrapped device's monotonicity.
func (m *Managed) Floor(c int32, now float64) float64 {
	penalty := m.restartPenalty(now)
	if lb, ok := m.inner.(core.LowerBounder); ok {
		return penalty + lb.Floor(c, now+penalty)
	}
	return penalty
}

// EstimateBreakdown implements core.BreakdownEstimator: the wrapped
// device's estimated decomposition at the restart-shifted start time,
// with any restart penalty charged to Overhead — the same convention as
// LastBreakdown — so ServiceMs equals what EstimateAccess returns.
func (m *Managed) EstimateBreakdown(req *core.Request, now float64) core.Breakdown {
	penalty := m.restartPenalty(now)
	bd := core.EstimateBreakdown(m.inner, req, now+penalty)
	bd.Overhead += penalty
	bd.ServiceMs += penalty
	return bd
}

// Report returns the accounting up to the last access.
func (m *Managed) Report() Report { return m.rep }

// LastBreakdown implements core.BreakdownReporter: the wrapped device's
// decomposition of the most recent access, with any restart (spin-up)
// penalty charged to Overhead so the phase sum still reconciles with the
// service time this wrapper reported.
func (m *Managed) LastBreakdown() (core.Breakdown, bool) {
	br, ok := m.inner.(core.BreakdownReporter)
	if !ok {
		return core.Breakdown{}, false
	}
	bd, ok := br.LastBreakdown()
	if !ok {
		return core.Breakdown{}, false
	}
	bd.Overhead += m.lastPenaltyMs
	bd.ServiceMs += m.lastPenaltyMs
	return bd, true
}

// ErrorPenalty implements core.RecoveryModel by delegation. The call is
// not time-shifted: the penalty is charged after service, when any
// restart has already been paid.
func (m *Managed) ErrorPenalty(req *core.Request, now, u float64) (float64, bool) {
	if rm, ok := m.inner.(core.RecoveryModel); ok {
		return rm.ErrorPenalty(req, now, u)
	}
	return 0, false
}

// FinishAt extends the idle accounting to time end (ms) without an
// access, closing the books on a run.
func (m *Managed) FinishAt(end float64) {
	if end < m.lastBusyEnd {
		return
	}
	m.accountIdle(end)
	m.lastBusyEnd = end
	if end > m.rep.ElapsedMs {
		m.rep.ElapsedMs = end
	}
}

// CompressionTradeoff evaluates the §7 proposal that "the embedded
// computational logic in MEMS-based storage devices could be used to
// compress data arriving at the media in order to minimize the number of
// active tips per access": with per-bit media energy e (joules/bit, from
// PerBitEnergy), compressing by ratio r ≥ 1 at a computational cost of
// cpuJPerBit joules per (uncompressed) bit changes the energy to move
// one uncompressed bit from e to e/r + cpu. It returns that energy and
// whether compression wins.
func CompressionTradeoff(perBitJ, ratio, cpuJPerBit float64) (effectiveJPerBit float64, worthwhile bool) {
	if perBitJ <= 0 || ratio < 1 || cpuJPerBit < 0 {
		panic(fmt.Sprintf("power: invalid compression parameters e=%g r=%g cpu=%g", perBitJ, ratio, cpuJPerBit))
	}
	eff := perBitJ/ratio + cpuJPerBit
	return eff, eff < perBitJ
}

// PerBitEnergy returns the model's marginal energy per transferred bit in
// joules, given the device's sustained bandwidth in bits/s while active.
// §7: "power dissipation is a linear function of the number of bits read
// or written", so this is the constant of that line.
func PerBitEnergy(m Model, bandwidthBitsPerSec float64) float64 {
	if bandwidthBitsPerSec <= 0 {
		panic(fmt.Sprintf("power: bandwidth must be positive, got %g", bandwidthBitsPerSec))
	}
	return m.ActiveW / bandwidthBitsPerSec
}
