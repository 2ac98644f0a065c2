package sim

import (
	"fmt"

	"memsim/internal/core"
	"memsim/internal/workload"
)

// Router directs a volume-level request to a member device, returning
// the member index and the request to issue there (with the LBN
// translated into the member's address space).
type Router func(*core.Request) (dev int, devReq *core.Request)

// RunMulti drives an open-arrival workload over several devices, each
// with its own scheduler queue, completing independently — the
// multi-device volume case (e.g. the paper's TPC-C testbed striped its
// database across two drives). It is an adapter over the shared
// discrete-event engine: arrivals chain eagerly on the event queue and
// completions interleave per member.
//
// The returned Result aggregates over all devices and reports
// per-member shares in Result.Members (with per-member phase
// attribution when the probe carries a PhaseCollector); response times
// are measured per volume-level request, and — like Run — failed
// requests are excluded from the measured statistics. Options.Injector
// drives transient retries and requeues against each member's own
// queue. Requests a router clamps at a member boundary are counted in
// Result.ClampedRequests. ctx (which may be nil) observes the run's
// progress.
//
// Configuration errors — no devices, mismatched device/scheduler
// counts, a nil router or source, or a router that returns an
// out-of-range member index mid-run — are returned as errors; in the
// mid-run case the partial Result up to the faulty routing decision
// accompanies the error.
func RunMulti(ctx *Context, devs []core.Device, scheds []core.Scheduler, route Router,
	src workload.Source, opts Options) (Result, error) {
	if len(devs) == 0 || len(devs) != len(scheds) {
		return Result{}, fmt.Errorf("sim: %d devices with %d schedulers", len(devs), len(scheds))
	}
	if route == nil {
		return Result{}, fmt.Errorf("sim: RunMulti needs a router")
	}
	if src == nil {
		return Result{}, fmt.Errorf("sim: RunMulti needs a workload source")
	}
	e := newEngine(ctx, opts)
	ms := newMemberSet(devs, scheds, e)
	e.runMulti(ms, route, src)
	e.loop()
	e.finalize()
	ms.attach(&e.res)
	return e.res, e.runErr
}

// runMulti wires the eager arrival chain to a routed member set: each
// arrival is routed to one member queue, served through the shared
// visit path (injector included), and completed per volume-level
// request through the shared completion path.
//
// Each member has at most one service in flight (ms.busy), so the
// completion event's parameters live in a per-member slot and the
// completion/tally callbacks are allocated once per member at setup
// instead of once per dispatch (the engine's allocation diet).
func (e *engine) runMulti(ms *memberSet, route Router, src workload.Source) {
	m := &multiRun{e: e, ms: ms, route: route, per: make([]memberDispatch, len(ms.devs))}
	for i := range m.per {
		md := &m.per[i]
		md.m, md.i = m, i
		md.doneFn = md.finish
		md.onDone = md.tally
	}
	e.chainArrivals(src, m.deliver)
}

// multiRun is runMulti's run-long state.
type multiRun struct {
	e     *engine
	ms    *memberSet
	route Router
	per   []memberDispatch
}

// memberDispatch holds one member's in-flight completion state and its
// two reusable callbacks.
type memberDispatch struct {
	m *multiRun
	i int

	r     *core.Request
	qlen  int
	done  float64
	again bool

	doneFn func()
	onDone func(measured bool)
}

func (m *multiRun) deliver(r *core.Request) {
	e, ms := m.e, m.ms
	i, devReq := m.route(r)
	if i < 0 || i >= len(ms.devs) {
		e.runErr = fmt.Errorf("sim: router sent request to device %d of %d", i, len(ms.devs))
		e.stopped = true
		return
	}
	// Routers stay total by clamping a request that would spill past
	// a member or strip boundary; count the truncation.
	if devReq.Blocks != r.Blocks {
		e.res.ClampedRequests++
	}
	// The device request carries the volume request's arrival time so
	// response accounting is end-to-end; the router may return r
	// itself when no translation is needed.
	devReq.Arrival = r.Arrival
	ms.scheds[i].Add(devReq)
	if e.p != nil {
		e.p.Observe(ProbeEvent{Kind: EventArrive, Time: r.Arrival, Dev: i, Req: devReq,
			Queue: ms.scheds[i].Len()})
	}
	m.dispatch(i)
}

func (m *multiRun) dispatch(i int) {
	e, ms := m.e, m.ms
	if ms.busy[i] || e.stopped {
		return
	}
	now := e.q.Now()
	qlen := ms.scheds[i].Len()
	r := ms.scheds[i].Next(ms.devs[i], now)
	if r == nil {
		return
	}
	ms.busy[i] = true
	if r.Requeues == 0 {
		r.Start = now
	}
	if e.p != nil {
		e.p.Observe(ProbeEvent{Kind: EventDispatch, Time: now, Dev: i, Req: r, Queue: qlen})
	}
	svc, _, again := e.serveVisit(ms.devs[i], r, r, i, now)
	done := now + svc
	r.Finish = done
	e.res.Busy += svc
	ms.members[i].Busy += svc
	md := &m.per[i]
	md.r, md.qlen, md.done, md.again = r, qlen, done, again
	e.q.Schedule(done, md.doneFn)
}

func (md *memberDispatch) finish() {
	m, i := md.m, md.i
	e, ms := m.e, m.ms
	ms.busy[i] = false
	if md.again {
		requeue(ms.scheds[i], md.r)
		if e.p != nil {
			e.p.Observe(ProbeEvent{Kind: EventRequeue, Time: md.done, Dev: i, Req: md.r,
				Queue: ms.scheds[i].Len()})
		}
	} else {
		e.complete(md.done, md.r, i, md.qlen, md.r.ResponseTime(), md.r.ServiceTime(), true, md.onDone)
	}
	m.dispatch(i)
}

func (md *memberDispatch) tally(measured bool) {
	ms, i := md.m.ms, md.i
	ms.members[i].Requests++
	if ms.phases != nil && measured {
		ms.phases[i].add(md.r.Phases, md.r.Class)
	}
}

// ConcatRouter routes by address concatenation: device i holds the LBN
// range [i·perDev, (i+1)·perDev).
func ConcatRouter(perDev int64) Router {
	return func(r *core.Request) (int, *core.Request) {
		dev := int(r.LBN / perDev)
		nr := *r
		nr.LBN = r.LBN % perDev
		// Clamp requests that would spill past the member boundary; the
		// volume-level generator is expected to respect it, but the
		// router must stay total.
		if nr.LBN+int64(nr.Blocks) > perDev {
			nr.Blocks = int(perDev - nr.LBN)
		}
		return dev, &nr
	}
}

// StripeRouter routes by striping: unit-sized strips rotate across n
// devices. Requests must fit within one strip.
func StripeRouter(unit int64, n int) Router {
	return func(r *core.Request) (int, *core.Request) {
		strip := r.LBN / unit
		dev := int(strip % int64(n))
		row := strip / int64(n)
		nr := *r
		nr.LBN = row*unit + r.LBN%unit
		if off := r.LBN % unit; off+int64(r.Blocks) > unit {
			nr.Blocks = int(unit - off)
		}
		return dev, &nr
	}
}
