// volume.go drives a redundant multi-queue volume (array.Volume)
// through whole-device failure, degraded-mode service, and online
// hot-spare rebuild — the array-scale counterpart of the §6 in-device
// failure machinery. It is also the one multi-device path: a plain
// stripe (array.VolStripe) spreads a workload over member queues with no
// redundancy, and a stripe whose unit equals PerMember concatenates its
// members. A volume request fans out into fork-join phases of member
// operations (strip-split chunks, mirror replica writes, parity
// read-modify-write, k-peer degraded reconstruction), and a background
// rebuild process injects throttled chunk scans into the same member
// queues, competing with foreground traffic under the configured
// schedulers. A run's state is one volumeRun, with one volMember record
// per device.
package sim

import (
	"fmt"

	"memsim/internal/array"
	"memsim/internal/core"
	"memsim/internal/fault"
	"memsim/internal/stats"
	"memsim/internal/workload"
)

// DefaultRebuildChunk is the rebuild scan unit in sectors when
// VolumeSpec.RebuildChunk is zero — one MEMS cylinder, the unit the
// raid artifact's member rebuild scan reads in too.
const DefaultRebuildChunk = 2700

// adaptivePace is the VolumeSpec.AdaptiveRebuild duty cycle for a
// foreground backlog of queue requests: it sprints at 1 while the
// member queues are idle and backs off hyperbolically as they fill,
// flooring at 0.1. During foreground bursts the rebuild yields
// (bounding degraded-mode p95), and the moment the queues drain it
// sprints (bounding MTTR), where any fixed fraction must pick one side
// and pay the other.
func adaptivePace(queue int) float64 {
	const minPace = 0.1
	return max(1/(1+float64(queue)), minPace)
}

// VolumeSpec describes a redundant volume run: the geometry/state
// machine, its physical member and spare devices (one scheduler queue
// each), and the online-rebuild pacing.
type VolumeSpec struct {
	// Volume is the redundancy state machine; RunVolume resets it.
	Volume *array.Volume
	// Devices backs the volume's member slots then spares, in order;
	// len(Devices) must equal Volume.Config().Devices() and every
	// device must hold at least PerMember sectors.
	Devices []core.Device
	// Scheds provides one scheduler queue per device.
	Scheds []core.Scheduler
	// RebuildChunk is the rebuild scan unit in sectors (0 selects
	// DefaultRebuildChunk).
	RebuildChunk int
	// RebuildFrac throttles the rebuild in (0,1]: after each chunk the
	// rebuilder idles so rebuild I/O occupies roughly this fraction of
	// its timeline (1, or 0 for the default, rebuilds flat out).
	RebuildFrac float64
	// AdaptiveRebuild, when set, paces the rebuild off live foreground
	// pressure (see adaptivePace) and supersedes RebuildFrac.
	AdaptiveRebuild bool
}

// VolumeStats aggregates a RunVolume run's redundancy and failover
// activity. Counters cover the whole run, warmup included.
type VolumeStats struct {
	// DeviceFailures counts the scheduled whole-device failures fired.
	DeviceFailures int
	// RebuildsStarted and RebuildsDone count online rebuilds begun onto
	// a hot spare and completed (the spare permanently replacing the
	// failed member).
	RebuildsStarted, RebuildsDone int
	// RebuildChunks counts completed rebuild scan units.
	RebuildChunks int
	// RebuildMs sums failure→re-protected windows over completed
	// rebuilds: the volume's MTTR.
	RebuildMs float64
	// DegradedMs is the total time the volume served with reduced
	// redundancy (failed member not yet rebuilt, or data lost).
	DegradedMs float64
	// RebuildBusy is the member busy time consumed by rebuild I/O in ms.
	RebuildBusy float64
	// DegradedReads counts foreground reads served by peer
	// reconstruction (mirror survivor fallback is full-speed and not
	// counted; parity reconstruction is).
	DegradedReads int
	// DegradedWrites counts foreground writes executed with reduced
	// redundancy.
	DegradedWrites int
	// SpareReads counts foreground reads satisfied from the rebuilt
	// prefix of the hot spare mid-rebuild.
	SpareReads int
	// PaceChanges counts rebuild-pace changes made mid-rebuild (0 under
	// the fixed RebuildFrac pacing, which never varies).
	PaceChanges int
	// LostRequests counts foreground requests that completed in error:
	// their data was unreachable (lost volume or mid-flight second
	// failure), or a member op exhausted its fault budgets or addressed
	// lost sectors.
	LostRequests int
	// Healthy and Degraded split measured foreground response times
	// (ms) by the volume's redundancy state at completion, so the
	// foreground penalty of degraded mode and rebuild interference is
	// directly readable (p95 included).
	Healthy, Degraded stats.Dist
	// ClassResponse splits response times by scheduling class:
	// measured foreground completions land in their class's slot
	// (foreground or degraded-read), and completed rebuild chunks
	// record their start→finish duration under ClassRebuild (whole
	// run — rebuilds are background work outside the warmup gate).
	// This is what makes a class-aware member scheduler's degraded-read
	// latency bound directly measurable.
	ClassResponse [core.NumClasses]stats.Dist
}

// volReq tracks one in-flight volume-level intent — a foreground
// request or a background rebuild chunk — through its fork-join phases
// of member operations. volReqs are pooled per run: one goes back to
// the free list when its intent finishes and keeps its plan storage for
// the next.
type volReq struct {
	r *core.Request
	// plan is the intent's member-operation plan, built in place by the
	// volume's planners; remap rewrites its remaining phases in place.
	plan array.Plan
	// phase indexes the executing entry of plan.Phases; outstanding
	// counts its member ops still in flight.
	phase       int
	outstanding int
	// epoch is the volume redundancy generation the plan was made
	// under; a mismatch at issue time forces re-resolution of the
	// remaining phases against the new state.
	epoch int
	// qlen is the largest scheduler queue length any member op saw at
	// dispatch, and dev the device of its latest member-op completion.
	qlen, dev int
	// sum is the intent's phase sum across its member ops' visits,
	// requeues included, filled only while a probe is attached.
	sum core.Breakdown

	// chunkReq is r for a rebuild chunk, which has no source request:
	// its Arrival is the chunk's start and its Blocks the chunk's size.
	chunkReq core.Request

	// started latches the first member-op dispatch (r.Start), and lost
	// marks an intent whose data the volume could not reach.
	started, lost bool
	degradedRead  bool
	degradedWrite bool
	spareRead     bool
}

// isRebuild reports whether vr is a background rebuild chunk.
func (vr *volReq) isRebuild() bool { return vr.r == &vr.chunkReq }

// class is the scheduling class vr's member ops are queued under, after
// any degraded-mode re-resolution, so class-aware member schedulers see
// rebuild chunks and degraded reconstruction reads for what they are.
func (vr *volReq) class() core.Class {
	switch {
	case vr.isRebuild():
		return core.ClassRebuild
	case vr.degradedRead:
		return core.ClassDegradedRead
	default:
		return core.ClassForeground
	}
}

// memberReq is one member operation of a volume intent: the request its
// device's scheduler queues and serves (Ref is the op's index in
// volumeRun.ops), the intent it realizes, and the device whose queue
// holds it (-1 while none does). memberReqs are pooled like volReqs:
// one goes back to the free list when its fork-join leg completes, so a
// probe sees the same request pointer again for a later operation.
type memberReq struct {
	req core.Request
	vr  *volReq
	dev int
}

// poolBlock is how many volume intents or member ops one allocation
// holds when a run's pool grows: a pool that grows to its run's peak
// concurrency costs one allocation per poolBlock objects, not one each.
const poolBlock = 64

// carve returns the next object of *block, first refilling *block with
// a fresh block of poolBlock when it is used up. An object's address
// never changes, and its block stays live while any object carved from
// it is; a run's pools keep every object they carved until the run
// ends.
func carve[T any](block *[]T) *T {
	if len(*block) == 0 {
		*block = make([]T, poolBlock)
	}
	p := &(*block)[0]
	*block = (*block)[1:]
	return p
}

// vrBlock returns a block of volume intents to carve from, the next
// after made intents were carved: it holds as many intents as were
// carved before it, at least 8 and at most poolBlock, so a run whose
// pool stays small carves little it never uses. Each intent's plan
// holds storage for the plan of a request within one chunk, or of a
// rebuild chunk, on a cfg volume: two phases of up to one write per
// member on a mirror, or of a read-modify-write pair or a read from
// each survivor on a parity volume, and one op on a stripe. Such a plan
// fills storage carved with its intent (three allocations per block,
// not two per intent); array.Plan's phase reuses the storage past a
// plan's length, and a plan that outgrows it grows as before.
func vrBlock(made int, cfg array.VolumeConfig) []volReq {
	phases, ops := 2, cfg.Members
	switch cfg.Level {
	case array.VolStripe:
		phases, ops = 1, 1
	case array.VolParity:
		ops = max(2, ops-1)
	}
	n := min(max(made, 8), poolBlock)
	b := make([]volReq, n)
	ph := make([][]array.MemberOp, n*phases)
	st := make([]array.MemberOp, n*phases*ops)
	for i := range ph {
		ph[i] = st[i*ops : i*ops : (i+1)*ops]
	}
	for i := range b {
		b[i].plan.Phases = ph[i*phases : i*phases : (i+1)*phases]
	}
	return b
}

// RunVolume drives an open-arrival workload over a redundant volume.
// Arrivals plan into member operations under the volume's current
// redundancy state; scheduled device failures (Options.Injector's
// device-event schedule) flip members mid-run, after which reads are
// reconstructed from peers, writes pay the redundancy-update penalty,
// and a hot spare (if configured) is rebuilt online by throttled
// background chunk scans competing in the same member queues. Member
// operations are served through the shared engine visit path, so the
// injector's other fault classes — transient retries, member-queue
// requeues, lost-sector reads, ECC surcharges — apply to every member
// visit too; a member op that exhausts its budgets fails its parent
// volume request.
//
// Member-level operations emit arrive/dispatch/service probe events
// (Dev = physical device index) on run-owned requests that are reused
// once their fork-join leg completes; volume-level requests emit complete
// events (Dev = the device whose member op completed last); failover emits EventDeviceFail/EventRebuildStart/
// EventRebuildDone (Dev = member slot, Req = nil). Response statistics
// are per volume-level request; rebuild traffic is excluded from them
// but reported in Result.Volume.
//
// With no device failures scheduled the run is deterministic and
// behaviorally identical to a healthy volume.
func RunVolume(ctx *Context, spec VolumeSpec, src workload.Source, opts Options) (Result, error) {
	v := spec.Volume
	if v == nil {
		return Result{}, fmt.Errorf("sim: RunVolume needs a volume")
	}
	cfg := v.Config()
	devs, scheds := spec.Devices, spec.Scheds
	if len(devs) != cfg.Devices() || len(devs) != len(scheds) {
		return Result{}, fmt.Errorf("sim: volume wants %d devices, got %d devices with %d schedulers",
			cfg.Devices(), len(devs), len(scheds))
	}
	if src == nil {
		return Result{}, fmt.Errorf("sim: RunVolume needs a workload source")
	}
	for i, d := range devs {
		if d.Capacity() < cfg.PerMember {
			return Result{}, fmt.Errorf("sim: device %d (%s) holds %d sectors, member needs %d",
				i, d.Name(), d.Capacity(), cfg.PerMember)
		}
	}
	chunk := spec.RebuildChunk
	if chunk == 0 {
		chunk = DefaultRebuildChunk
	}
	if chunk < 0 {
		return Result{}, fmt.Errorf("sim: negative rebuild chunk %d", chunk)
	}
	frac := spec.RebuildFrac
	if frac == 0 {
		frac = 1
	}
	if frac < 0 || frac > 1 {
		return Result{}, fmt.Errorf("sim: rebuild fraction %g out of (0,1]", spec.RebuildFrac)
	}
	if inj := opts.Injector; inj != nil {
		for _, ev := range inj.DeviceEvents() {
			if ev.Dev >= cfg.Members {
				return Result{}, fmt.Errorf("sim: device failure targets member slot %d of %d",
					ev.Dev, cfg.Members)
			}
		}
	}

	v.Reset()
	for i := range devs {
		devs[i].Reset()
		scheds[i].Reset()
	}
	e := newEngine(ctx, opts)
	r := e.runVolume(spec, src, chunk, frac)
	e.loop()
	e.finalize()
	r.publish()
	return e.res, nil
}

// volMember is one physical device of a volume run: its device and
// scheduler queue, the member op in service (nil while idle) with the
// completion state its reusable callback consumes, and the service it
// has done (res.Phases is set while a PhaseCollector is attached).
type volMember struct {
	dev    core.Device
	sched  core.Scheduler
	m      *memberReq
	done   float64
	again  bool
	doneFn func()
	res    MemberResult
}

// volumeRun is RunVolume's run-long state, built like openRun: one
// record per member device, the intent and member-op pools, the
// failover bookkeeping, and the arrival chain, in which each arrival
// schedules the next, so simultaneous arrivals keep stream order. Every
// callback is made once per run.
type volumeRun struct {
	e        *engine
	v        *array.Volume
	src      workload.Source
	rec      workload.Recycler // src, when it takes finished requests back
	members  []volMember
	chunk    int
	frac     float64
	adaptive bool
	stats    *VolumeStats // apart from the run, so a Result keeps no pool alive

	// next is the pending arrival, and fails the device failures yet to
	// fire: all are scheduled upfront, in order, so they fire in order.
	next  *core.Request
	fails []fault.DeviceEvent

	// The free lists of intents and member ops, the unused rest of the
	// blocks they grow from, and the intents carved so far; ops registers
	// every member op the run made, at the index its request's Ref holds.
	freeVR  []*volReq
	freeMR  []*memberReq
	blockVR []volReq
	madeVR  int
	blockMR []memberReq
	ops     []*memberReq

	// degradedSince is when the open degraded window, and the failure
	// it answers, began; -1 when closed. lastPace is the previous
	// duty-cycle decision; -1 marks a rebuild's first decision, which
	// sets the baseline without emitting a pace-change event.
	degradedSince float64
	lastPace      float64

	arriveFn, failFn, chunkFn func()
}

// runVolume wires the arrival chain to a fork-join volume over one
// scheduler queue per member device. The adapter calls the returned
// run's publish after the event loop drains.
func (e *engine) runVolume(spec VolumeSpec, src workload.Source, chunk int, frac float64) *volumeRun {
	rec, _ := src.(workload.Recycler)
	r := &volumeRun{e: e, v: spec.Volume, src: src, rec: rec, chunk: chunk, frac: frac, adaptive: spec.AdaptiveRebuild,
		members: make([]volMember, len(spec.Devices)), stats: &VolumeStats{}, degradedSince: -1, lastPace: -1}
	var phases []PhaseStats
	if e.phases != nil {
		phases = make([]PhaseStats, len(r.members))
	}
	for i := range r.members {
		mb := &r.members[i]
		mb.dev, mb.sched = spec.Devices[i], spec.Scheds[i]
		mb.doneFn = func() { r.memberDone(i) }
		if phases != nil {
			mb.res.Phases = &phases[i]
		}
	}
	r.arriveFn, r.failFn, r.chunkFn = r.arrive, r.fail, r.startChunk
	// Scheduled device failures are enqueued before the arrival chain,
	// so a failure coinciding with an arrival fires first (stable FIFO
	// ties).
	if e.inj != nil {
		r.fails = e.inj.DeviceEvents()
		for _, ev := range r.fails {
			e.q.Schedule(ev.AtMs, r.failFn)
		}
	}
	if r.next = src.Next(); r.next != nil {
		e.q.Schedule(r.next.Arrival, r.arriveFn)
	}
	return r
}

// publish closes the still-open degraded window and publishes the
// volume and per-member aggregates.
func (r *volumeRun) publish() {
	e := r.e
	if r.degradedSince >= 0 {
		r.stats.DegradedMs += e.res.Elapsed - r.degradedSince
	}
	if r.v.Lost() {
		e.res.DataLoss = true
	}
	e.res.Volume = r.stats
	e.res.Members = make([]MemberResult, len(r.members))
	for i := range r.members {
		e.res.Members[i] = r.members[i].res
	}
}

// arrive plans the pending foreground request under the current
// redundancy state, forks its first phase, and chains the next arrival.
func (r *volumeRun) arrive() {
	e, v, req := r.e, r.v, r.next
	e.arrived++
	now := e.q.Now()
	vr := r.newVR(req)
	var ok bool
	if req.Op == core.Read {
		ok = v.PlanReadInto(&vr.plan, req.LBN, req.Blocks)
	} else {
		ok = v.PlanWriteInto(&vr.plan, req.LBN, req.Blocks)
	}
	if !ok {
		// The addressed data is lost: fail without touching a device
		// rather than silently serving stale sectors.
		req.Failed, vr.lost = true, true
		req.Start = now
		vr.started = true
	} else if req.Op == core.Read {
		vr.degradedRead = vr.plan.Reconstructed
		vr.spareRead = vr.plan.SpareRead
	} else {
		vr.degradedWrite = vr.plan.DegradedWrite
	}
	r.issue(vr, now)
	if r.next = r.src.Next(); r.next != nil {
		e.q.Schedule(r.next.Arrival, r.arriveFn)
	}
}

// newVR takes a volume intent for req from the pool.
func (r *volumeRun) newVR(req *core.Request) *volReq {
	var vr *volReq
	if n := len(r.freeVR); n > 0 {
		vr, r.freeVR = r.freeVR[n-1], r.freeVR[:n-1]
	} else {
		if len(r.blockVR) == 0 {
			r.blockVR = vrBlock(r.madeVR, r.v.Config())
			r.madeVR += len(r.blockVR)
		}
		vr = carve(&r.blockVR)
	}
	*vr = volReq{r: req, plan: array.Plan{Phases: vr.plan.Phases[:0]}, epoch: r.v.Epoch()}
	return vr
}

// issue advances a volume intent to its next non-empty phase and forks
// that phase's member operations into the queues, or retires the
// intent when it has failed or has no phase left.
func (r *volumeRun) issue(vr *volReq, now float64) {
	for {
		if vr.epoch != r.v.Epoch() {
			r.remap(vr)
		}
		if vr.r.Failed || vr.phase >= len(vr.plan.Phases) {
			// The intent is done: nothing holds vr once finishReq or
			// chunkDone returns, so it goes back to the free list, and a
			// foreground request to its source. A rebuild chunk's request
			// is the intent's own.
			if vr.isRebuild() {
				r.chunkDone(vr, now)
			} else {
				r.finishReq(vr, now)
				if r.rec != nil {
					r.rec.Recycle(vr.r)
				}
			}
			vr.r = nil
			r.freeVR = append(r.freeVR, vr)
			return
		}
		ops := vr.plan.Phases[vr.phase]
		if len(ops) == 0 {
			vr.phase++
			continue
		}
		vr.outstanding = len(ops)
		for _, op := range ops {
			r.enqueue(vr, op, now)
		}
		return
	}
}

// enqueue queues one member op of vr on the device behind op's slot and
// tries to dispatch it.
func (r *volumeRun) enqueue(vr *volReq, op array.MemberOp, now float64) {
	e := r.e
	dev := r.v.DeviceOf(op.Slot)
	var m *memberReq
	if n := len(r.freeMR); n > 0 {
		m, r.freeMR = r.freeMR[n-1], r.freeMR[:n-1]
	} else {
		m = carve(&r.blockMR)
		m.req.Ref = int32(len(r.ops))
		r.ops = append(r.ops, m)
	}
	m.req = core.Request{Arrival: vr.r.Arrival, Op: op.Op, LBN: op.LBN, Blocks: op.Blocks,
		Class: vr.class(), Ref: m.req.Ref}
	m.vr, m.dev = vr, dev
	s := r.members[dev].sched
	s.Add(&m.req)
	if e.p != nil {
		e.p.Observe(ProbeEvent{Kind: EventArrive, Time: now, Dev: dev, Req: &m.req, Queue: s.Len()})
	}
	r.dispatch(dev)
}

// take returns the member op behind device dev's scheduler pick mr and
// marks it as no longer queued. A scheduler's pick is taken only through
// the op registry, so a request the scheduler was never given, or one
// it already returned, fails loudly.
func (r *volumeRun) take(dev int, mr *core.Request) *memberReq {
	if id := int(mr.Ref); id >= 0 && id < len(r.ops) && &r.ops[id].req == mr && r.ops[id].dev == dev {
		r.ops[id].dev = -1
		return r.ops[id]
	}
	panic(fmt.Sprintf("sim: device %d scheduler dispatched a request not queued on it", dev))
}

// dispatch starts device i's next member op if the device is idle.
func (r *volumeRun) dispatch(i int) {
	e, mb := r.e, &r.members[i]
	if mb.m != nil {
		return
	}
	now := e.q.Now()
	qlen := mb.sched.Len()
	mr := mb.sched.Next(mb.dev, now)
	if mr == nil {
		return
	}
	m := r.take(i, mr)
	vr := m.vr
	if !vr.started {
		vr.started = true
		vr.r.Start = now
	}
	vr.qlen = max(vr.qlen, qlen)
	if e.p != nil {
		e.p.Observe(ProbeEvent{Kind: EventDispatch, Time: now, Dev: i, Req: mr, Queue: qlen})
	}
	// The shared visit path accumulates the member op's phase breakdown
	// into the parent intent's sum and applies fault injection
	// (transient retries, lost-sector reads, surcharges).
	svc, bd, again := e.serveVisit(mb.dev, mr, &vr.sum, i, now)
	mr.Start, mr.Finish = now, now+svc
	mb.res.Requests++
	mb.res.Busy += svc
	e.res.Busy += svc
	if vr.isRebuild() {
		r.stats.RebuildBusy += svc
	}
	if mb.res.Phases != nil {
		mb.res.Phases.add(bd)
	}
	mb.m, mb.done, mb.again = m, now+svc, again
	e.q.Schedule(mb.done, mb.doneFn)
}

// memberDone completes device i's visit in service: the member op goes
// back to its queue for another visit, or its fork-join leg is done.
// Either way the device then takes its next op.
func (r *volumeRun) memberDone(i int) {
	e, mb := r.e, &r.members[i]
	m, vr := mb.m, mb.m.vr
	mb.m = nil
	if mb.again {
		// The visit exhausted its retries with requeue budget left: the
		// member op goes back to its own queue and the fork-join leg
		// stays outstanding.
		m.dev = i
		requeue(mb.sched, &m.req)
		if e.p != nil {
			e.p.Observe(ProbeEvent{Kind: EventRequeue, Time: mb.done, Dev: i, Req: &m.req,
				Queue: mb.sched.Len()})
		}
	} else {
		if m.req.Failed {
			// The member op exhausted every budget (or addressed lost
			// sectors): its parent volume request fails.
			vr.r.Failed = true
		}
		// The leg is done: the op is free for the next enqueue.
		m.vr, vr.dev = nil, i
		r.freeMR = append(r.freeMR, m)
		if vr.outstanding--; vr.outstanding == 0 {
			vr.phase++
			r.issue(vr, e.q.Now())
		}
	}
	r.dispatch(i)
}

// finishReq completes a foreground request. complete's fault tally
// counts a failed request in FailedRequests and a reconstructed read
// (Degraded) in DegradedReads; retries land on the member ops, so the
// request's own Retries stays 0 and it never counts as Recovered.
func (r *volumeRun) finishReq(vr *volReq, now float64) {
	e, vs, req := r.e, r.stats, vr.r
	req.Finish = now
	req.Degraded = vr.degradedRead
	req.Class = vr.class()
	measured := e.complete(now, req, &vr.sum, vr.dev, vr.qlen, req.ResponseTime(), req.ServiceTime())
	// A failed foreground request is a lost request at volume scope,
	// whatever first broke it. A read is a lost read only when the
	// volume could not reach its data; a member op that addressed lost
	// sectors counted itself in serveVisit, as Run's request does.
	if req.Failed {
		vs.LostRequests++
	}
	if vr.lost && req.Op == core.Read {
		e.res.LostReads++
	}
	if vr.degradedRead {
		vs.DegradedReads++
	}
	if vr.degradedWrite {
		vs.DegradedWrites++
	}
	if vr.spareRead {
		vs.SpareReads++
	}
	if measured {
		if r.v.Degraded() || r.v.Lost() {
			vs.Degraded.Add(req.ResponseTime())
		} else {
			vs.Healthy.Add(req.ResponseTime())
		}
		vs.ClassResponse[req.Class].Add(req.ResponseTime())
	}
}

// startChunk issues the rebuild's next chunk scan.
func (r *volumeRun) startChunk() {
	v := r.v
	if v.Lost() || !v.Rebuilding() {
		return
	}
	vr := r.newVR(nil)
	blocks := v.PlanRebuildChunkInto(&vr.plan, r.chunk)
	if blocks == 0 {
		r.freeVR = append(r.freeVR, vr)
		return
	}
	now := r.e.q.Now()
	vr.chunkReq = core.Request{Arrival: now, Op: core.Read, LBN: -1, Blocks: blocks, Class: core.ClassRebuild}
	vr.r = &vr.chunkReq
	r.issue(vr, now)
}

// chunkDone advances the rebuild past a completed chunk and schedules
// the next after the pacing gap, or closes the rebuild.
func (r *volumeRun) chunkDone(vr *volReq, now float64) {
	e, v, vs := r.e, r.v, r.stats
	if v.Lost() || !v.Rebuilding() {
		return // a second failure killed the rebuild mid-chunk
	}
	if vr.r.Failed {
		// A fault-injected member op exhausted its budgets mid-chunk:
		// the rebuild cursor did not advance, so re-scan the same chunk
		// rather than silently abandoning the rebuild.
		e.q.Schedule(now, r.chunkFn)
		return
	}
	start := vr.chunkReq.Arrival
	vs.RebuildChunks++
	vs.ClassResponse[core.ClassRebuild].Add(now - start)
	v.Advance(vr.chunkReq.Blocks)
	if v.RebuildDone() {
		slot := v.Failed()
		v.FinishRebuild()
		vs.RebuildsDone++
		vs.RebuildMs += now - r.degradedSince
		vs.DegradedMs += now - r.degradedSince
		r.degradedSince = -1
		if e.p != nil {
			e.p.Observe(ProbeEvent{Kind: EventRebuildDone, Time: now, Dev: slot})
		}
		return
	}
	// Throttle: idle after the chunk so rebuild I/O occupies ~pace of
	// the rebuilder's timeline. At this instant every rebuild member op
	// has completed, so the summed queue depth is pure foreground
	// backlog.
	pace, fg := r.frac, 0
	if r.adaptive {
		for i := range r.members {
			fg += r.members[i].sched.Len()
		}
		pace = adaptivePace(fg)
	}
	if r.lastPace >= 0 && pace != r.lastPace {
		vs.PaceChanges++
		if e.p != nil {
			e.p.Observe(ProbeEvent{Kind: EventRebuildPace, Time: now, Dev: v.Failed(),
				Queue: fg, Pace: pace})
		}
	}
	r.lastPace = pace
	e.q.Schedule(now+(now-start)*(1-pace)/pace, r.chunkFn)
}

// fail fires the next scheduled device failure.
func (r *volumeRun) fail() {
	e, v := r.e, r.v
	slot := r.fails[0].Dev
	r.fails = r.fails[1:]
	if v.Lost() || slot == v.Failed() {
		return
	}
	now := e.q.Now()
	deadDev := v.SlotDevice(slot)
	first := !v.Degraded()
	if err := v.Fail(slot); err != nil {
		return // unreachable: slots were validated upfront
	}
	r.stats.DeviceFailures++
	if first {
		r.degradedSince = now
	}
	if e.p != nil {
		e.p.Observe(ProbeEvent{Kind: EventDeviceFail, Time: now, Dev: slot})
	}
	if v.Lost() {
		e.res.DataLoss = true
	}
	r.drainDead(deadDev, slot, now)
	if first && !v.Lost() && v.BeginRebuild() {
		r.stats.RebuildsStarted++
		r.lastPace = -1 // each rebuild re-baselines the pace
		if e.p != nil {
			e.p.Observe(ProbeEvent{Kind: EventRebuildStart, Time: now, Dev: slot})
		}
		r.startChunk()
	}
}

// drainDead empties a dead device's queue, re-resolving each queued
// member operation against the post-failure state (peer
// reconstruction, spare redirection, or dropped redundancy writes); an
// op whose data is unreachable fails its parent request. The op in
// service, if any, completes normally — it was already on the bus when
// the device died. A drained op is not recycled: it left its queue
// without a probe event, so reusing its request would show an observer
// the same pointer arriving while still queued.
func (r *volumeRun) drainDead(dev, slot int, now float64) {
	mb := &r.members[dev]
	for {
		mr := mb.sched.Next(mb.dev, now)
		if mr == nil {
			return
		}
		vr := r.take(dev, mr).vr
		repl := r.resolveDead(vr, array.MemberOp{Slot: slot, Op: mr.Op, LBN: mr.LBN, Blocks: mr.Blocks})
		vr.outstanding += len(repl) - 1
		for _, op := range repl {
			r.enqueue(vr, op, now)
		}
		if vr.outstanding == 0 {
			vr.phase++
			r.issue(vr, now)
		}
	}
}

// remap re-resolves the remaining phases of a stale plan against the
// current redundancy state (after a failure or completed rebuild).
func (r *volumeRun) remap(vr *volReq) {
	vr.epoch = r.v.Epoch()
	phases := vr.plan.Phases
	for pi := vr.phase; pi < len(phases); pi++ {
		var resolved []array.MemberOp
		for _, op := range phases[pi] {
			resolved = append(resolved, r.resolveDead(vr, op)...)
		}
		phases[pi] = resolved
	}
}

// resolveDead re-resolves one member op of vr against the current
// redundancy state: the ops that replace it, none when its data is
// unreachable, which fails vr. A foreground read that must be
// reconstructed from peers becomes a degraded read.
func (r *volumeRun) resolveDead(vr *volReq, op array.MemberOp) []array.MemberOp {
	repl, recon, ok := r.v.ReplaceDeadOp(op)
	if !ok {
		vr.r.Failed, vr.lost = true, true
	}
	if recon && !vr.isRebuild() && vr.r.Op == core.Read {
		vr.degradedRead = true
	}
	return repl
}
