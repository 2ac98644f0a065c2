// Package memsim is a from-scratch reproduction of "Operating System
// Management of MEMS-based Storage Devices" (Griffin, Schlosser, Ganger,
// Nagle; CMU-CS-00-136 / OSDI 2000): a performance model of MEMS-based
// storage devices (spring-mounted media sleds over probe-tip arrays), a
// DiskSim-like simulation environment with a calibrated conventional-disk
// model, the paper's four request schedulers and four data layouts, its
// failure-management machinery, and its power-management models —
// together with a harness that regenerates every table and figure in the
// paper's evaluation.
//
// This file is the public facade: it re-exports the library's main entry
// points so that downstream users interact with one package. The
// implementation lives in the internal/ packages (one per subsystem; see
// DESIGN.md for the inventory).
//
// # Quick start
//
//	dev, err := memsim.NewMEMSDevice(memsim.DefaultMEMSConfig())
//	if err != nil { ... }
//	sched, _ := memsim.NewScheduler("SPTF")
//	src := memsim.NewRandomWorkload(1000, dev.SectorSize(), dev.Capacity(), 20000, 42)
//	res := memsim.Simulate(dev, sched, src, memsim.SimOptions{Warmup: 2000})
//	fmt.Println(res.String())
//
// See examples/ for runnable programs and cmd/memsbench for the
// paper-artifact harness.
package memsim

import (
	"errors"
	"io"

	"memsim/internal/core"
	"memsim/internal/disk"
	"memsim/internal/experiments"
	"memsim/internal/mems"
	"memsim/internal/power"
	"memsim/internal/runner"
	"memsim/internal/sched"
	"memsim/internal/sim"
	"memsim/internal/stats"
	"memsim/internal/trace"
	"memsim/internal/workload"
)

// ─── Core abstractions ──────────────────────────────────────────────────

// Request is one storage request; see core.Request.
type Request = core.Request

// Device is a mechanically-detailed storage device model.
type Device = core.Device

// Scheduler orders pending requests.
type Scheduler = core.Scheduler

// Layout remaps logical blocks (the §5 data-placement hook).
type Layout = core.Layout

// Op distinguishes reads from writes.
type Op = core.Op

// Read and Write are the two request directions.
const (
	Read  = core.Read
	Write = core.Write
)

// NewManagedDevice composes a device with an OS-level block layout.
func NewManagedDevice(d Device, l Layout) Device { return core.NewManagedDevice(d, l) }

// ─── Devices ────────────────────────────────────────────────────────────

// MEMSConfig parameterizes the MEMS-based storage device (Table 1 of the
// paper).
type MEMSConfig = mems.Config

// MEMSDevice is the MEMS-based storage device model.
type MEMSDevice = mems.Device

// MEMSGeometry exposes the derived device geometry.
type MEMSGeometry = mems.Geometry

// DefaultMEMSConfig returns the paper's Table 1 parameters.
func DefaultMEMSConfig() MEMSConfig { return mems.DefaultConfig() }

// NewMEMSDevice builds a MEMS device, validating the configuration.
func NewMEMSDevice(cfg MEMSConfig) (*MEMSDevice, error) { return mems.NewDevice(cfg) }

// DiskConfig parameterizes the conventional-disk model.
type DiskConfig = disk.Config

// DiskDevice is the conventional-disk model.
type DiskDevice = disk.Device

// Atlas10KConfig returns the paper's reference drive configuration (a
// Quantum Atlas 10K-class disk).
func Atlas10KConfig() DiskConfig { return disk.Atlas10K() }

// NewDiskDevice builds a disk device, validating the configuration.
func NewDiskDevice(cfg DiskConfig) (*DiskDevice, error) { return disk.NewDevice(cfg) }

// ─── Scheduling ─────────────────────────────────────────────────────────

// NewScheduler constructs a scheduler by name: "FCFS", "SSTF_LBN",
// "C-LOOK" or "SPTF" (§4.1), or one of the cost-model extensions
// "SettleAware" and "Priority".
func NewScheduler(name string) (Scheduler, error) { return sched.New(name) }

// SchedulerNames lists the four algorithms in the paper's order.
func SchedulerNames() []string { return sched.Names() }

// AllSchedulerNames lists every name NewScheduler accepts: the paper's
// four plus the cost-model extensions.
func AllSchedulerNames() []string { return sched.AllNames() }

// ─── Workloads and traces ───────────────────────────────────────────────

// WorkloadSource produces a stream of timestamped requests. The
// generated workloads (NewRandomWorkload, NewBipartiteWorkload) reuse
// each request once a run has completed it, so a probe copies what it
// keeps past a request's complete event.
type WorkloadSource = workload.Source

// RandomWorkloadConfig parameterizes the paper's synthetic random
// workload (§3).
type RandomWorkloadConfig = workload.RandomConfig

// NewRandomWorkload returns the paper's random workload (Poisson
// arrivals at the given rate, 67% reads, 4 KB mean size, uniform
// placement) over a device of the given geometry.
func NewRandomWorkload(rate float64, sectorSize int, capacity int64, count int, seed int64) WorkloadSource {
	return workload.DefaultRandom(rate, sectorSize, capacity, count, seed)
}

// RequestsSource adapts a pre-built request slice into a WorkloadSource.
func RequestsSource(reqs []*Request) WorkloadSource { return workload.NewFromSlice(reqs) }

// Trace is an ordered sequence of timestamped request records.
type Trace = trace.Trace

// TraceRecord is one trace line.
type TraceRecord = trace.Record

// GenerateCelloTrace builds the synthetic Cello-like file-server trace
// (the stand-in for the paper's HP Cello trace; DESIGN.md §5).
func GenerateCelloTrace(capacity int64, count int) *Trace {
	return trace.GenerateCello(trace.DefaultCello(capacity, count))
}

// GenerateTPCCTrace builds the synthetic TPC-C-like OLTP trace (the
// stand-in for the paper's TPC-C trace; DESIGN.md §5).
func GenerateTPCCTrace(capacity int64, count int) *Trace {
	return trace.GenerateTPCC(trace.DefaultTPCC(capacity, count))
}

// TraceSource converts a trace into a WorkloadSource.
func TraceSource(t *Trace) WorkloadSource {
	return workload.NewFromSlice(t.Requests())
}

// ─── Simulation ─────────────────────────────────────────────────────────

// SimOptions describes what a run simulates: warmup, fault injection
// and the run-scoped probes. A run lasts until its source runs dry.
type SimOptions = sim.Options

// SimResult summarizes a run (mean response time and the paper's σ²/µ²
// starvation metric).
type SimResult = sim.Result

// SimContext carries a run's policy: cancellation, a shared observer
// probe that is never reset (sim.ProgressProbe is one), and invariant
// checking. Each run writes
// back its cancellation and its simulated time (Cancelled, SimMs), so
// runs sharing one must not run concurrently. A nil *SimContext is
// valid and observes nothing.
type SimContext = sim.Context

// Simulate executes an open-arrival simulation: requests arrive at their
// source-assigned times, queue in s, and are serviced by d.
func Simulate(d Device, s Scheduler, src WorkloadSource, opts SimOptions) SimResult {
	return sim.Run(nil, d, s, src, opts)
}

// SimulateCtx is Simulate with an observing context.
func SimulateCtx(ctx *SimContext, d Device, s Scheduler, src WorkloadSource, opts SimOptions) SimResult {
	return sim.Run(ctx, d, s, src, opts)
}

// SimulateClosed executes a closed, back-to-back run (the §5.3
// service-time regime).
func SimulateClosed(d Device, src WorkloadSource, opts SimOptions) SimResult {
	return sim.RunClosed(nil, d, src, opts)
}

// ─── Lifecycle observation ──────────────────────────────────────────────

// Breakdown decomposes one service visit into the paper's mechanical
// phases (seek, settle/rotate, turnaround, transfer, overhead, recovery).
// Both device models report one; sums reconcile with the exact service
// time to within float residue (Unattributed).
type Breakdown = core.Breakdown

// BreakdownReporter is implemented by devices that decompose their last
// access.
type BreakdownReporter = core.BreakdownReporter

// Probe observes typed request-lifecycle events from a simulation run; a
// nil probe is free and leaves results byte-identical.
type Probe = sim.Probe

// ProbeEvent is one lifecycle observation.
type ProbeEvent = sim.ProbeEvent

// ProbeEventKind enumerates the lifecycle stages.
type ProbeEventKind = sim.EventKind

// The lifecycle event kinds a Probe observes.
const (
	EventArrive   = sim.EventArrive
	EventDispatch = sim.EventDispatch
	EventService  = sim.EventService
	EventRetry    = sim.EventRetry
	EventRequeue  = sim.EventRequeue
	EventComplete = sim.EventComplete
	// Volume-lifecycle events (SimulateVolume): member failure, online
	// rebuild start and completion. Dev carries the member slot; no
	// request is attached.
	EventDeviceFail   = sim.EventDeviceFail
	EventRebuildStart = sim.EventRebuildStart
	EventRebuildDone  = sim.EventRebuildDone
)

// MultiProbe fans events out to several probes in order.
type MultiProbe = sim.MultiProbe

// WithRun wraps a probe so every event carries a run label.
func WithRun(p Probe, run string) Probe { return sim.WithRun(p, run) }

// PhaseDist is a streaming distribution used for per-phase aggregates:
// Welford moments, plus exact percentiles up to 524 288 observations
// (from counts while it has seen at most eight distinct values, from
// retained samples after) and a bounded quantile sketch (±1%) past that.
type PhaseDist = stats.Dist

// PhaseStats aggregates per-request phase observations over a run's
// measured completions; SimResult.Phases points at one when a
// PhaseCollector is attached.
type PhaseStats = sim.PhaseStats

// PhaseCollector is a Probe that aggregates PhaseStats.
type PhaseCollector = sim.PhaseCollector

// NewPhaseCollector returns an empty collector; attach via
// SimOptions.Probe.
func NewPhaseCollector() *PhaseCollector { return sim.NewPhaseCollector() }

// JSONLProbe streams lifecycle events as JSON Lines (the memsbench
// -trace / memsim -o format; schema in README.md).
type JSONLProbe = sim.JSONLProbe

// NewJSONLProbe returns a probe writing JSONL records to w; call Flush
// when the run ends.
func NewJSONLProbe(w io.Writer) *JSONLProbe { return sim.NewJSONLProbe(w) }

// ─── Power management ───────────────────────────────────────────────────

// PowerModel holds a device's power parameters (§7).
type PowerModel = power.Model

// PowerPolicy is an idle-timeout power policy.
type PowerPolicy = power.Policy

// PowerReport summarizes energy and latency impact.
type PowerReport = power.Report

// PowerManaged wraps a device with power-state tracking; it implements
// Device and drops into Simulate.
type PowerManaged = power.Managed

// MEMSPowerModel returns the paper's MEMS power parameters (per-bit
// dominated, 0.5 ms restart).
func MEMSPowerModel() PowerModel { return power.MEMSModel() }

// MobileDiskPowerModel returns mobile-disk power parameters (Travelstar
// class; multi-second spin-up).
func MobileDiskPowerModel() PowerModel { return power.MobileDiskModel() }

// NewPowerManaged wraps dev with the model and policy.
func NewPowerManaged(dev Device, m PowerModel, p PowerPolicy) *PowerManaged {
	return power.NewManaged(dev, m, p)
}

// ImmediateIdle returns the §7 policy: stop the sled the moment the I/O
// queue is empty.
func ImmediateIdle() PowerPolicy { return power.Immediate() }

// AlwaysOn returns the policy that never enters standby.
func AlwaysOn() PowerPolicy { return power.AlwaysOn() }

// ─── Paper artifacts ────────────────────────────────────────────────────

// ExperimentParams sizes the paper-artifact simulations.
type ExperimentParams = experiments.Params

// ExperimentTable is one printable result grid.
type ExperimentTable = experiments.Table

// DefaultExperimentParams returns full-size parameters.
func DefaultExperimentParams() ExperimentParams { return experiments.Default() }

// QuickExperimentParams returns reduced parameters for smoke runs.
func QuickExperimentParams() ExperimentParams { return experiments.Quick() }

// ExperimentIDs lists the reproducible artifacts (fig5…fig11, table1,
// table2, fault, power).
func ExperimentIDs() []string { return experiments.IDs() }

// RunExperiment regenerates one paper artifact.
func RunExperiment(id string, p ExperimentParams) ([]ExperimentTable, error) {
	return experiments.Run(id, p)
}

// RunExperiments regenerates several artifacts as one batch of isolated
// simulation jobs spread over workers goroutines (0 means GOMAXPROCS).
// Results come back per requested ID, in order, and are byte-identical
// to a sequential run regardless of worker count.
func RunExperiments(ids []string, p ExperimentParams, workers int) ([][]ExperimentTable, error) {
	outs, _, err := experiments.RunEach(&runner.Context{Workers: workers}, ids, p)
	out := make([][]ExperimentTable, len(outs))
	errs := []error{err}
	for i, o := range outs {
		out[i], errs = o.Tables, append(errs, o.Err)
	}
	if err := errors.Join(errs...); err != nil {
		return nil, err
	}
	return out, nil
}
