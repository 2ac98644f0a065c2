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
// schedulers.
package sim

import (
	"fmt"

	"memsim/internal/array"
	"memsim/internal/core"
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
	// LostRequests counts foreground requests that completed in error
	// because their data was unreachable (lost volume or mid-flight
	// second failure).
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
	// started latches the first member-op dispatch (r.Start).
	started bool
	// qlen is the largest scheduler queue length any member op saw at
	// dispatch.
	qlen int

	rebuild     bool
	chunkBlocks int
	chunkStart  float64
	// chunkReq is r for a rebuild chunk, which has no source request.
	chunkReq core.Request

	degradedRead  bool
	degradedWrite bool
	spareRead     bool
}

// memberReq is one member operation of a volume intent: the request its
// device's scheduler queues and serves, and the intent it realizes.
// memberReqs are pooled per run like volReqs: one goes back to the free
// list when its fork-join leg completes, so a probe sees the same
// request pointer again for a later operation. Its request's Ref is the
// op's index in the run's op registry (opSlot).
type memberReq struct {
	req core.Request
	vr  *volReq
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

// opSlot is one member op's registry entry: the op, and the device
// whose scheduler holds it, or -1 while none does. A scheduler's pick is
// taken only through its entry, so a request the scheduler was never
// given, or one it already returned, fails loudly.
type opSlot struct {
	m   *memberReq
	dev int
}

// volInflight is one member's in-flight service-completion state,
// consumed by the member's reusable completion callback; m is nil while
// the member is idle.
type volInflight struct {
	m     *memberReq
	done  float64
	again bool
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
// events; failover emits EventDeviceFail/EventRebuildStart/
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
	finish := e.runVolume(spec, src, chunk, frac)
	e.loop()
	e.finalize()
	finish()
	return e.res, nil
}

// runVolume wires the eager arrival chain to a fork-join volume over
// one scheduler queue per member device. It returns a closure the
// adapter must call after the event loop drains, closing the still-open
// degraded window and publishing the volume and per-member aggregates.
func (e *engine) runVolume(spec VolumeSpec, src workload.Source, chunk int, frac float64) func() {
	v, devs, scheds, adaptive := spec.Volume, spec.Devices, spec.Scheds, spec.AdaptiveRebuild
	var vstats VolumeStats
	// members attributes service to each device; memberPhases holds its
	// phase aggregates when Options.Probe carries a PhaseCollector.
	members := make([]MemberResult, len(devs))
	var memberPhases []PhaseStats
	if e.phases != nil {
		memberPhases = make([]PhaseStats, len(devs))
	}
	// freeVR and freeMR are the run's free lists of volume intents and
	// member ops, and blockVR and blockMR the unused rest of the blocks
	// the pools grow from; ops registers every member op the run made,
	// at the index its request carries in Ref.
	var (
		freeVR  []*volReq
		freeMR  []*memberReq
		blockVR []volReq
		blockMR []memberReq
		ops     []opSlot
	)
	newVR := func(r *core.Request) *volReq {
		var vr *volReq
		if n := len(freeVR); n > 0 {
			vr, freeVR = freeVR[n-1], freeVR[:n-1]
		} else {
			vr = carve(&blockVR)
		}
		*vr = volReq{r: r, plan: array.Plan{Phases: vr.plan.Phases[:0]}, epoch: v.Epoch()}
		return vr
	}
	// take returns the member op behind device dev's scheduler pick mr
	// and marks it as no longer queued.
	take := func(dev int, mr *core.Request) *memberReq {
		if id := int(mr.Ref); id >= 0 && id < len(ops) && &ops[id].m.req == mr && ops[id].dev == dev {
			ops[id].dev = -1
			return ops[id].m
		}
		panic(fmt.Sprintf("sim: device %d scheduler dispatched a request not queued on it", dev))
	}
	// degradedSince and failStart track the open degraded window and
	// the active failure for MTTR accounting; -1 when closed.
	degradedSince := -1.0
	failStart := -1.0
	// lastPace is the previous duty-cycle decision; -1 marks the
	// first decision of a rebuild, which establishes the baseline without
	// emitting a pace-change event.
	lastPace := -1.0

	var (
		dispatch   func(i int)
		issue      func(vr *volReq, now float64)
		startChunk func(now float64)
		// startChunkFn is the reusable "resume the rebuild" event callback
		// (at most one pending), and inflight/doneFns carry each member's
		// in-flight completion state and its one reusable completion
		// callback — the allocation diet's replacement for a fresh closure
		// per member dispatch.
		startChunkFn func()
		inflight     = make([]volInflight, len(devs))
		doneFns      = make([]func(), len(devs))
	)

	// memberClass tags a member op with its parent intent's scheduling
	// class at enqueue time, after any degraded-mode re-resolution, so
	// class-aware member schedulers see rebuild chunks and degraded
	// reconstruction reads for what they are.
	memberClass := func(vr *volReq) core.Class {
		switch {
		case vr.rebuild:
			return core.ClassRebuild
		case vr.degradedRead:
			return core.ClassDegradedRead
		default:
			return core.ClassForeground
		}
	}

	enqueue := func(vr *volReq, op array.MemberOp, now float64) {
		dev := v.DeviceOf(op.Slot)
		var m *memberReq
		if n := len(freeMR); n > 0 {
			m, freeMR = freeMR[n-1], freeMR[:n-1]
		} else {
			m = carve(&blockMR)
			m.req.Ref = int32(len(ops))
			ops = append(ops, opSlot{m: m})
		}
		m.req = core.Request{Arrival: vr.r.Arrival, Op: op.Op, LBN: op.LBN, Blocks: op.Blocks,
			Class: memberClass(vr), Ref: m.req.Ref}
		m.vr = vr
		ops[m.req.Ref].dev = dev
		scheds[dev].Add(&m.req)
		if e.p != nil {
			e.p.Observe(ProbeEvent{Kind: EventArrive, Time: now, Dev: dev, Req: &m.req,
				Queue: scheds[dev].Len()})
		}
		dispatch(dev)
	}

	// remap re-resolves the remaining phases of a stale plan against the
	// current redundancy state (after a failure or completed rebuild);
	// it may mark the parent request failed when its data is gone.
	remap := func(vr *volReq) {
		vr.epoch = v.Epoch()
		phases := vr.plan.Phases
		for pi := vr.phase; pi < len(phases); pi++ {
			var resolved []array.MemberOp
			for _, op := range phases[pi] {
				repl, recon, ok := v.ReplaceDeadOp(op)
				if !ok {
					vr.r.Failed = true
				}
				if recon && !vr.rebuild && vr.r.Op == core.Read {
					vr.degradedRead = true
				}
				resolved = append(resolved, repl...)
			}
			phases[pi] = resolved
		}
	}

	// finishReq completes a foreground request. complete's fault tally
	// counts a failed request in FailedRequests and a reconstructed read
	// (Degraded) in DegradedReads; retries land on the member ops, so the
	// request's own Retries stays 0 and it never counts as Recovered.
	finishReq := func(vr *volReq, now float64) {
		r := vr.r
		r.Finish = now
		r.Degraded = vr.degradedRead
		r.Class = memberClass(vr)
		measured := e.complete(now, r, 0, vr.qlen, r.ResponseTime(), r.ServiceTime())
		// A failed foreground request is a lost request at volume scope,
		// whatever first broke it.
		if r.Failed {
			vstats.LostRequests++
			if r.Op == core.Read {
				e.res.LostReads++
			}
		}
		if vr.degradedRead {
			vstats.DegradedReads++
		}
		if vr.degradedWrite {
			vstats.DegradedWrites++
		}
		if vr.spareRead {
			vstats.SpareReads++
		}
		if measured {
			if v.Degraded() || v.Lost() {
				vstats.Degraded.Add(r.ResponseTime())
			} else {
				vstats.Healthy.Add(r.ResponseTime())
			}
			vstats.ClassResponse[r.Class].Add(r.ResponseTime())
		}
	}

	chunkDone := func(vr *volReq, now float64) {
		if v.Lost() || !v.Rebuilding() {
			return // a second failure killed the rebuild mid-chunk
		}
		if vr.r.Failed {
			// A fault-injected member op exhausted its budgets mid-chunk:
			// the rebuild cursor did not advance, so re-scan the same
			// chunk rather than silently abandoning the rebuild.
			e.q.Schedule(now, startChunkFn)
			return
		}
		vstats.RebuildChunks++
		vstats.ClassResponse[core.ClassRebuild].Add(now - vr.chunkStart)
		v.Advance(vr.chunkBlocks)
		if v.RebuildDone() {
			slot := v.Failed()
			v.FinishRebuild()
			vstats.RebuildsDone++
			vstats.RebuildMs += now - failStart
			vstats.DegradedMs += now - degradedSince
			degradedSince, failStart = -1, -1
			if e.p != nil {
				e.p.Observe(ProbeEvent{Kind: EventRebuildDone, Time: now, Dev: slot})
			}
			return
		}
		// Throttle: idle after the chunk so rebuild I/O occupies ~pace of
		// the rebuilder's timeline. At this instant every rebuild member
		// op has completed, so the summed queue depth is pure foreground
		// backlog.
		pace, fg := frac, 0
		if adaptive {
			for i := range scheds {
				fg += scheds[i].Len()
			}
			pace = adaptivePace(fg)
		}
		if lastPace >= 0 && pace != lastPace {
			vstats.PaceChanges++
			if e.p != nil {
				e.p.Observe(ProbeEvent{Kind: EventRebuildPace, Time: now, Dev: v.Failed(),
					Queue: fg, Pace: pace})
			}
		}
		lastPace = pace
		gap := 0.0
		if pace < 1 {
			gap = (now - vr.chunkStart) * (1 - pace) / pace
		}
		e.q.Schedule(now+gap, startChunkFn)
	}

	// finish closes a volume intent, whose member ops have all
	// completed, and returns it to the free list: nothing holds vr once
	// finishReq or chunkDone returns.
	finish := func(vr *volReq, now float64) {
		if vr.rebuild {
			chunkDone(vr, now)
		} else {
			finishReq(vr, now)
		}
		vr.r = nil
		freeVR = append(freeVR, vr)
	}

	// issue advances a volume intent to its next non-empty phase and
	// forks that phase's member operations into the queues.
	issue = func(vr *volReq, now float64) {
		for {
			if vr.epoch != v.Epoch() {
				remap(vr)
			}
			if vr.r.Failed || vr.phase >= len(vr.plan.Phases) {
				finish(vr, now)
				return
			}
			ops := vr.plan.Phases[vr.phase]
			if len(ops) == 0 {
				vr.phase++
				continue
			}
			vr.outstanding = len(ops)
			for _, op := range ops {
				enqueue(vr, op, now)
			}
			return
		}
	}

	opDone := func(vr *volReq, now float64) {
		vr.outstanding--
		if vr.outstanding > 0 {
			return
		}
		vr.phase++
		issue(vr, now)
	}

	dispatch = func(i int) {
		if inflight[i].m != nil {
			return
		}
		now := e.q.Now()
		qlen := scheds[i].Len()
		mr := scheds[i].Next(devs[i], now)
		if mr == nil {
			return
		}
		m := take(i, mr)
		vr := m.vr
		if !vr.started {
			vr.started = true
			vr.r.Start = now
		}
		if qlen > vr.qlen {
			vr.qlen = qlen
		}
		if e.p != nil {
			e.p.Observe(ProbeEvent{Kind: EventDispatch, Time: now, Dev: i, Req: mr, Queue: qlen})
		}
		// The shared visit path accumulates the member op's phase
		// breakdown into the parent volume request and applies fault
		// injection (transient retries, lost-sector reads, surcharges).
		svc, bd, again := e.serveVisit(devs[i], mr, vr.r, i, now)
		mr.Start, mr.Finish = now, now+svc
		members[i].Requests++
		members[i].Busy += svc
		e.res.Busy += svc
		if vr.rebuild {
			vstats.RebuildBusy += svc
		}
		if memberPhases != nil {
			memberPhases[i].add(bd)
		}
		fl := &inflight[i]
		fl.m, fl.done, fl.again = m, now+svc, again
		e.q.Schedule(now+svc, doneFns[i])
	}

	for i := range doneFns {
		doneFns[i] = func() {
			fl := &inflight[i]
			m, vr := fl.m, fl.m.vr
			fl.m = nil
			if fl.again {
				// The visit exhausted its retries with requeue budget
				// left: the member op goes back to its own queue and the
				// fork-join leg stays outstanding.
				ops[m.req.Ref].dev = i
				requeue(scheds[i], &m.req)
				if e.p != nil {
					e.p.Observe(ProbeEvent{Kind: EventRequeue, Time: fl.done, Dev: i, Req: &m.req,
						Queue: scheds[i].Len()})
				}
			} else {
				if m.req.Failed {
					// The member op exhausted every budget (or addressed
					// lost sectors): its parent volume request fails.
					vr.r.Failed = true
				}
				// The leg is done: the op is free for the next enqueue.
				m.vr = nil
				freeMR = append(freeMR, m)
				opDone(vr, e.q.Now())
			}
			dispatch(i)
		}
	}

	startChunk = func(now float64) {
		if v.Lost() || !v.Rebuilding() {
			return
		}
		vr := newVR(nil)
		blocks := v.PlanRebuildChunkInto(&vr.plan, chunk)
		if blocks == 0 {
			freeVR = append(freeVR, vr)
			return
		}
		vr.chunkReq = core.Request{Arrival: now, Op: core.Read, LBN: -1, Blocks: blocks, Class: core.ClassRebuild}
		vr.r = &vr.chunkReq
		vr.rebuild, vr.chunkBlocks, vr.chunkStart = true, blocks, now
		issue(vr, now)
	}
	startChunkFn = func() { startChunk(e.q.Now()) }

	// drainDead empties a dead device's queue, re-resolving each queued
	// member operation against the post-failure state (peer
	// reconstruction, spare redirection, or dropped redundancy writes);
	// an op whose data is unreachable fails its parent request. The op
	// in service, if any, completes normally — it was already on the
	// bus when the device died. A drained op is not recycled: it left
	// its queue without a probe event, so reusing its request would show
	// an observer the same pointer arriving while still queued.
	drainDead := func(devIdx, slot int, now float64) {
		for {
			mr := scheds[devIdx].Next(devs[devIdx], now)
			if mr == nil {
				return
			}
			vr := take(devIdx, mr).vr
			repl, recon, ok := v.ReplaceDeadOp(array.MemberOp{
				Slot: slot, Op: mr.Op, LBN: mr.LBN, Blocks: mr.Blocks})
			if !ok {
				vr.r.Failed = true
			}
			if recon && !vr.rebuild && vr.r.Op == core.Read {
				vr.degradedRead = true
			}
			vr.outstanding += len(repl) - 1
			for _, rop := range repl {
				enqueue(vr, rop, now)
			}
			if vr.outstanding == 0 {
				vr.phase++
				issue(vr, now)
			}
		}
	}

	failSlot := func(slot int, now float64) {
		if v.Lost() || slot == v.Failed() {
			return
		}
		deadDev := v.SlotDevice(slot)
		first := !v.Degraded()
		if err := v.Fail(slot); err != nil {
			return // unreachable: slots were validated upfront
		}
		vstats.DeviceFailures++
		if first {
			degradedSince, failStart = now, now
		}
		if e.p != nil {
			e.p.Observe(ProbeEvent{Kind: EventDeviceFail, Time: now, Dev: slot})
		}
		if v.Lost() {
			e.res.DataLoss = true
		}
		drainDead(deadDev, slot, now)
		if first && !v.Lost() && v.BeginRebuild() {
			vstats.RebuildsStarted++
			lastPace = -1 // each rebuild re-baselines the pace
			if e.p != nil {
				e.p.Observe(ProbeEvent{Kind: EventRebuildStart, Time: now, Dev: slot})
			}
			startChunk(now)
		}
	}

	// Scheduled device failures fire from the injector's device-event
	// schedule; they are enqueued before the arrival chain so a failure
	// coinciding with an arrival fires first (stable FIFO ties).
	if e.inj != nil {
		for _, ev := range e.inj.DeviceEvents() {
			e.q.Schedule(ev.AtMs, func() { failSlot(ev.Dev, e.q.Now()) })
		}
	}
	// Arrival chain: plan each foreground request under the current
	// redundancy state and fork its first phase.
	e.chainArrivals(src, func(r *core.Request) {
		now := e.q.Now()
		vr := newVR(r)
		var ok bool
		if r.Op == core.Read {
			ok = v.PlanReadInto(&vr.plan, r.LBN, r.Blocks)
		} else {
			ok = v.PlanWriteInto(&vr.plan, r.LBN, r.Blocks)
		}
		if !ok {
			// The addressed data is lost: fail without touching a device
			// rather than silently serving stale sectors.
			r.Failed = true
			r.Start = now
			vr.started = true
		} else {
			if r.Op == core.Read {
				vr.degradedRead = vr.plan.Reconstructed
				vr.spareRead = vr.plan.SpareRead
			} else {
				vr.degradedWrite = vr.plan.DegradedWrite
			}
		}
		issue(vr, now)
	})

	return func() {
		if degradedSince >= 0 {
			vstats.DegradedMs += e.res.Elapsed - degradedSince
		}
		if v.Lost() {
			e.res.DataLoss = true
		}
		e.res.Volume = &vstats
		for i := range memberPhases {
			members[i].Phases = &memberPhases[i]
		}
		e.res.Members = members
	}
}
