// Package core defines the abstractions shared by every layer of the
// simulator: storage requests, position-aware device models, request
// schedulers, and block-remapping layouts. Device models (internal/mems,
// internal/disk), schedulers (internal/sched), layouts (internal/layout)
// and the simulation engine (internal/sim) all meet at these interfaces.
//
// Times are float64 milliseconds of simulated time; logical block numbers
// (LBNs) address fixed-size sectors.
package core

import "fmt"

// Op distinguishes reads from writes.
type Op int

const (
	Read Op = iota
	Write
)

// String implements fmt.Stringer.
func (o Op) String() string {
	switch o {
	case Read:
		return "read"
	case Write:
		return "write"
	default:
		return fmt.Sprintf("Op(%d)", int(o))
	}
}

// Request is one storage request. The simulator fills in the bookkeeping
// fields (Start, Finish) as the request flows through the queue. The
// per-phase service sum across a request's visits is not kept here:
// only a probed run needs it, so the simulator keeps it beside the
// request in service and hands it to probes on the request's complete
// event.
type Request struct {
	// Arrival is the simulated time (ms) the request entered the system.
	Arrival float64
	// Op is the request direction.
	Op Op
	// LBN is the first logical block addressed.
	LBN int64
	// Blocks is the number of consecutive logical blocks addressed.
	Blocks int
	// Class tags the request's role (foreground, degraded-read, rebuild)
	// for class-aware scheduling and per-class accounting. The zero value
	// is ClassForeground, so untagged requests behave exactly as before.
	Class Class
	// Degraded marks a read that touched a degraded stripe (a failed,
	// unremapped tip, or a failed volume member) and paid reconstruction
	// (set by the simulator).
	Degraded bool
	// Failed marks a request that exhausted every retry and requeue, or
	// whose data was lost, and completed in error (set by the simulator).
	Failed bool
	// Ref is simulator-owned; leave zero. RunVolume keeps there the index
	// of the member operation a queued request realizes. Class, Degraded,
	// Failed and Ref share one word, so a request is 80 B on a 64-bit
	// platform.
	Ref int32

	// Start is the time service began (set by the simulator).
	Start float64
	// Finish is the time service completed (set by the simulator).
	Finish float64

	// The remaining fields are fault-injection accounting, filled by the
	// simulator only when a run carries an injector; without one they stay
	// zero and the request behaves exactly as before.

	// Retries counts transient positioning errors recovered by device-level
	// retry (§6.1.3), each charged to the request's service time.
	Retries int
	// Requeues counts the times the request was returned to the scheduler
	// queue after a service visit exhausted its device-level retry budget.
	Requeues int
	// RecoveryMs is the total added recovery time in ms: retry penalties
	// plus any ECC-reconstruction surcharge for degraded-stripe reads.
	RecoveryMs float64
}

// ResponseTime returns queue time plus service time, the paper's primary
// performance metric.
func (r *Request) ResponseTime() float64 { return r.Finish - r.Arrival }

// ServiceTime returns the time the device spent on the request.
func (r *Request) ServiceTime() float64 { return r.Finish - r.Start }

// Bytes returns the request's size in bytes given the device sector size.
func (r *Request) Bytes(sectorSize int) int64 {
	return int64(r.Blocks) * int64(sectorSize)
}

// Device is a mechanically-detailed storage device model. Implementations
// are stateful: Access advances the device's mechanical position (and, for
// disks, consumes rotational time), so the service time of a request
// depends on the requests that preceded it. Like schedulers, devices are
// not safe for concurrent use, estimates included: one simulation
// goroutine owns each device.
type Device interface {
	// Name identifies the model in reports (e.g. "MEMS G1", "Atlas10K").
	Name() string

	// Capacity returns the number of addressable logical blocks.
	Capacity() int64

	// SectorSize returns the logical block size in bytes.
	SectorSize() int

	// Access services req beginning at simulated time now and returns
	// the service time in milliseconds, advancing the device state.
	Access(req *Request, now float64) float64

	// EstimateAccess returns exactly what Access would return for req at
	// time now, without changing observable device state: a device may
	// cache what it computed (the MEMS device keeps its last estimates
	// for the Access that follows), but no later call may return a
	// different result for it. Shortest-positioning-time-first
	// scheduling is built on this.
	EstimateAccess(req *Request, now float64) float64

	// Reset restores the initial mechanical state.
	Reset()
}

// Scheduler orders pending requests. Implementations are not safe for
// concurrent use; the discrete-event simulator is single-threaded. One
// scheduler serves one device between Resets: a cost-model scheduler
// keeps what the device computed for each queued request (its
// LowerBounder key), which another device would not have computed.
type Scheduler interface {
	// Name identifies the algorithm in reports (e.g. "SPTF").
	Name() string

	// Add enqueues a pending request.
	Add(r *Request)

	// Next removes and returns the request to service next, given the
	// device whose state determines positioning costs and the current
	// simulated time. It returns nil when no requests are pending.
	Next(d Device, now float64) *Request

	// Len reports the number of pending requests.
	Len() int

	// Reset discards all pending requests and any algorithm state.
	Reset()
}

// RecoveryModel is implemented by device models that can price the
// recovery cost of a transient positioning error (§6.1.3). Disks pay a
// short re-seek plus rotational re-miss; MEMS devices pay only
// turnarounds plus a short repositioning seek, because the sled's motion
// is fully controlled (§2.4.8). The fault-injection layer charges this
// penalty once per retried attempt.
type RecoveryModel interface {
	// ErrorPenalty returns the recovery cost in ms of one transient
	// positioning error for req at simulated time now. u ∈ [0,1) is the
	// injector's uniform draw selecting where in the recovery envelope the
	// retry lands (for disks, the rotational fraction; for MEMS, the
	// turnaround count). ok is false when the device cannot price the
	// error — a transparent wrapper over a device without a model — and
	// the caller then charges its own fallback.
	ErrorPenalty(req *Request, now, u float64) (ms float64, ok bool)
}

// Requeuer is optionally implemented by schedulers that distinguish
// requeued (retried) requests from fresh arrivals. The simulator prefers
// Requeue over Add when returning a request whose service visit failed;
// schedulers without the method treat retries like new arrivals.
type Requeuer interface {
	Requeue(r *Request)
}

// Layout remaps logical blocks before they reach the device, implementing
// the data-placement schemes of §5 of the paper. Map must be a total
// function on [0, capacity); layouts that are bijections preserve
// capacity, and tests enforce this for all shipped layouts. Map must
// not change while requests sit in a cost-model scheduler's queue: a
// ManagedDevice keys each queued request by where Map sent it.
type Layout interface {
	// Name identifies the layout in reports (e.g. "organ-pipe").
	Name() string

	// Map translates a file-system-level block number to a device LBN.
	Map(lbn int64) int64
}

// IdentityLayout is the trivial pass-through layout ("simple" in the
// paper's Fig. 11).
type IdentityLayout struct{}

// Name implements Layout.
func (IdentityLayout) Name() string { return "simple" }

// Map implements Layout.
func (IdentityLayout) Map(lbn int64) int64 { return lbn }
