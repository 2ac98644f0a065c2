package main

// ledger.go is the traced run's per-layer clock. The engine is driven
// through the public interfaces it already calls — core.Device,
// core.Scheduler, workload.Source, the sim.JSONLProbe leaf and the
// runner's Progress hook — so each is wrapped here in a type that times
// the call with time.Now and forwards it. Nothing outside this package
// changes, and the wrappers are behaviour-neutral: an optional
// interface is forwarded only when the wrapped value implements it,
// because the engine branches on those type assertions.

import (
	"time"

	"memsim/internal/core"
	"memsim/internal/runner"
	"memsim/internal/sim"
	"memsim/internal/workload"
)

// span accumulates the host time and call count of one layer boundary.
type span struct {
	ns, calls int64
}

func (s *span) add(d time.Duration) {
	s.ns += int64(d)
	s.calls++
}

func (s span) perCall() float64 {
	if s.calls == 0 {
		return 0
	}
	return float64(s.ns) / float64(s.calls)
}

// ledger collects one traced run's layer spans across its reps. A nil
// *ledger means "untraced": its wrap methods return their argument.
type ledger struct {
	srcNext, access, estimate, schedAdd, schedNext, jsonl span
	// nested is the estimate time spent inside sched.Next, subtracted
	// from Next to give the scheduler's self time.
	nested span
	inNext bool
	// dispatches counts Next calls that returned a request; depth sums
	// the queue length each of them chose from.
	dispatches, depth int64
	nextNs            []int64 // per-call Next time, for the p99
	jobs              []runner.Event
}

func (l *ledger) estimated(d time.Duration) {
	l.estimate.add(d)
	if l.inNext {
		l.nested.add(d)
	}
}

// timedDevice times Access and EstimateAccess; every other core.Device
// method is forwarded untimed through the embedded interface.
type timedDevice struct {
	core.Device
	l *ledger
}

func (d *timedDevice) Access(r *core.Request, now float64) float64 {
	t := time.Now()
	svc := d.Device.Access(r, now)
	d.l.access.add(time.Since(t))
	return svc
}

func (d *timedDevice) EstimateAccess(r *core.Request, now float64) float64 {
	t := time.Now()
	est := d.Device.EstimateAccess(r, now)
	d.l.estimated(time.Since(t))
	return est
}

// timedEstimator times core.BreakdownEstimator as a device estimate.
type timedEstimator struct {
	be  core.BreakdownEstimator
	led *ledger
}

func (e *timedEstimator) EstimateBreakdown(r *core.Request, now float64) core.Breakdown {
	t := time.Now()
	bd := e.be.EstimateBreakdown(r, now)
	e.led.estimated(time.Since(t))
	return bd
}

// device wraps d in its timed form, carrying over exactly the optional
// interfaces (core.BreakdownReporter, core.BreakdownEstimator,
// core.RecoveryModel) that d implements.
func (l *ledger) device(d core.Device) core.Device {
	if l == nil {
		return d
	}
	td := &timedDevice{Device: d, l: l}
	br, _ := d.(core.BreakdownReporter)
	rm, _ := d.(core.RecoveryModel)
	var te *timedEstimator
	if be, ok := d.(core.BreakdownEstimator); ok {
		te = &timedEstimator{be: be, led: l}
	}
	switch {
	case br != nil && te != nil && rm != nil:
		return struct {
			*timedDevice
			core.BreakdownReporter
			*timedEstimator
			core.RecoveryModel
		}{td, br, te, rm}
	case br != nil && te != nil:
		return struct {
			*timedDevice
			core.BreakdownReporter
			*timedEstimator
		}{td, br, te}
	case br != nil && rm != nil:
		return struct {
			*timedDevice
			core.BreakdownReporter
			core.RecoveryModel
		}{td, br, rm}
	case te != nil && rm != nil:
		return struct {
			*timedDevice
			*timedEstimator
			core.RecoveryModel
		}{td, te, rm}
	case br != nil:
		return struct {
			*timedDevice
			core.BreakdownReporter
		}{td, br}
	case te != nil:
		return struct {
			*timedDevice
			*timedEstimator
		}{td, te}
	case rm != nil:
		return struct {
			*timedDevice
			core.RecoveryModel
		}{td, rm}
	}
	return td
}

// timedSched times Add and Next. Estimates the device makes inside Next
// are booked to the device and subtracted from Next's self time.
type timedSched struct {
	core.Scheduler
	l *ledger
}

func (s *timedSched) Add(r *core.Request) {
	t := time.Now()
	s.Scheduler.Add(r)
	s.l.schedAdd.add(time.Since(t))
}

func (s *timedSched) Next(d core.Device, now float64) *core.Request {
	l := s.l
	depth := s.Scheduler.Len()
	l.inNext = true
	t := time.Now()
	r := s.Scheduler.Next(d, now)
	dt := time.Since(t)
	l.inNext = false
	l.schedNext.add(dt)
	l.nextNs = append(l.nextNs, int64(dt))
	if r != nil {
		l.dispatches++
		l.depth += int64(depth)
	}
	return r
}

// sched wraps s. Requeue is exposed only when s has one: sim's requeue
// prefers core.Requeuer and falls back to Add, so an always-present
// Requeue would change which path the engine takes.
func (l *ledger) sched(s core.Scheduler) core.Scheduler {
	if l == nil {
		return s
	}
	ts := &timedSched{Scheduler: s, l: l}
	if rq, ok := s.(core.Requeuer); ok {
		return struct {
			*timedSched
			core.Requeuer
		}{ts, rq}
	}
	return ts
}

type timedSource struct {
	workload.Source
	l *ledger
}

func (s *timedSource) Next() *core.Request {
	t := time.Now()
	r := s.Source.Next()
	s.l.srcNext.add(time.Since(t))
	return r
}

// source wraps src, keeping workload.Thinker when src has it (RunClosed
// switches to think-time issue on that assertion).
func (l *ledger) source(src workload.Source) workload.Source {
	if l == nil {
		return src
	}
	ts := &timedSource{Source: src, l: l}
	if th, ok := src.(workload.Thinker); ok {
		return struct {
			*timedSource
			workload.Thinker
		}{ts, th}
	}
	return ts
}

type timedProbe struct {
	p *sim.JSONLProbe
	l *ledger
}

func (p timedProbe) Observe(ev sim.ProbeEvent) {
	t := time.Now()
	p.p.Observe(ev)
	p.l.jsonl.add(time.Since(t))
}

// jsonlProbe wraps the JSONL leaf probe. JSONLProbe has no ResetProbe, so the
// wrapper forwards Observe alone.
func (l *ledger) jsonlProbe(p *sim.JSONLProbe) sim.Probe {
	if l == nil {
		return p
	}
	return timedProbe{p: p, l: l}
}

// progress is the runner.Context.Progress hook of a traced artifact
// suite; it keeps every finished job's event.
func (l *ledger) progress() func(runner.Event) {
	if l == nil {
		return nil
	}
	return func(ev runner.Event) { l.jobs = append(l.jobs, ev) }
}

// timedNs is the engine-side time the ledger attributes to a layer;
// the rest of the traced wall is engine residue.
func (l *ledger) timedNs() int64 {
	return l.srcNext.ns + l.schedAdd.ns + (l.schedNext.ns - l.nested.ns) + l.access.ns + l.estimate.ns + l.jsonl.ns
}
