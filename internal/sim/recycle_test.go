package sim

import (
	"fmt"
	"math"
	"testing"

	"memsim/internal/array"
	"memsim/internal/core"
	"memsim/internal/fault"
	"memsim/internal/mems"
	"memsim/internal/sched"
	"memsim/internal/workload"
)

// reqState is where a source request stands in its run, as a
// recycleChecker reads it from the probe stream.
type reqState uint8

const (
	stateOut      reqState = iota + 1 // handed out by Next, not yet queued
	stateQueued                       // arrived or requeued, waiting in a queue
	stateServing                      // dispatched, in service
	stateDone                         // its complete event was observed
	stateRecycled                     // handed back to the source
)

var stateNames = [...]string{stateOut: "handed out", stateQueued: "queued", stateServing: "in service",
	stateDone: "complete", stateRecycled: "recycled"}

func (s reqState) String() string { return stateNames[s] }

// recycleChecker wraps a recycling source and watches the run's probe
// stream (attach it as Context.Probe) for a request used after it went
// back to the source. It records a violation when a request is recycled
// twice, recycled before its complete event or while it is queued or in
// service, shows up in any event once recycled, or comes back from Next
// with simulator-written fields still set. It poisons each recycled
// request (NaN Arrival, LBN −1) before handing it back, so a read after
// recycling shows in the run's results or the invariant probe.
//
// regime is "open", "closed" or "volume": a closed run requeues in
// place (the next visit has no dispatch event), and a volume's requests
// complete without arriving (their member ops arrive instead).
type recycleChecker struct {
	src    workload.Source
	rc     workload.Recycler
	regime string

	state               map[*core.Request]reqState
	handed, recycled    int
	completes, failures int
	errs                []string
}

func newRecycleChecker(src workload.Source, regime string) *recycleChecker {
	rc, ok := src.(workload.Recycler)
	if !ok {
		panic(fmt.Sprintf("recycleChecker: %T does not recycle", src))
	}
	return &recycleChecker{src: src, rc: rc, regime: regime, state: map[*core.Request]reqState{}}
}

func (c *recycleChecker) fail(format string, args ...any) {
	if len(c.errs) < 8 {
		c.errs = append(c.errs, fmt.Sprintf(format, args...))
	}
}

// Next implements workload.Source.
func (c *recycleChecker) Next() *core.Request {
	r := c.src.Next()
	if r == nil {
		return nil
	}
	if st, ok := c.state[r]; ok && st != stateRecycled {
		c.fail("Next handed out %p again while it is %s", r, st)
	}
	if r.Start != 0 || r.Finish != 0 || r.Retries != 0 || r.Requeues != 0 || r.RecoveryMs != 0 ||
		r.Failed || r.Degraded || r.Class != core.ClassForeground || r.Ref != 0 || math.IsNaN(r.Arrival) || r.LBN < 0 {
		c.fail("Next handed out %p with stale fields: %+v", r, *r)
	}
	c.state[r] = stateOut
	c.handed++
	return r
}

// Recycle implements workload.Recycler.
func (c *recycleChecker) Recycle(r *core.Request) {
	switch st := c.state[r]; st {
	case stateDone:
	case 0:
		c.fail("recycled %p, which Next never handed out", r)
	case stateRecycled:
		c.fail("recycled %p twice", r)
	default:
		c.fail("recycled %p while it is %s, before its complete event", r, st)
	}
	c.state[r] = stateRecycled
	c.recycled++
	r.Arrival, r.LBN = math.NaN(), -1
	c.rc.Recycle(r)
}

// Observe implements Probe.
func (c *recycleChecker) Observe(ev ProbeEvent) {
	st, ok := c.state[ev.Req]
	if !ok {
		return // failover events, and member ops
	}
	want, next := st, st
	switch ev.Kind {
	case EventArrive:
		want, next = stateOut, stateQueued
	case EventDispatch:
		want, next = stateQueued, stateServing
	case EventService, EventRetry:
		want = stateServing
	case EventRequeue:
		want, next = stateServing, stateQueued
		if c.regime == "closed" {
			next = stateServing
		}
	case EventComplete:
		want, next = stateServing, stateDone
		if c.regime == "volume" {
			want = stateOut
		}
		c.completes++
		if ev.Req.Failed {
			c.failures++
		}
	}
	if st != want {
		c.fail("%s event at %g on %p while it is %s, want %s", ev.Kind, ev.Time, ev.Req, st, want)
	}
	c.state[ev.Req] = next
}

// verify reports the recorded violations, and checks that the drained
// run recycled every request it was handed, after its complete event.
func (c *recycleChecker) verify(t testing.TB) {
	t.Helper()
	for _, e := range c.errs {
		t.Error(e)
	}
	if c.recycled != c.handed || c.completes != c.handed {
		t.Errorf("%d requests handed out, %d completed, %d recycled", c.handed, c.completes, c.recycled)
	}
	for r, st := range c.state {
		if st != stateRecycled {
			t.Errorf("request %p ended the run %s, not recycled", r, st)
			break
		}
	}
}

// TestRecycledRequests runs each regime on a recycling source with the
// invariant probe attached and a recycleChecker watching, along the
// paths that hold a request longest: requeues after exhausted retries,
// requests that fail, and a volume whose members die under a deep
// queue, so the dead queue's drain re-resolves queued ops and fails
// parents whose data is gone. Each run must also have reused requests:
// a closed run one, the others far fewer than the stream's length.
func TestRecycledRequests(t *testing.T) {
	const n = 3000
	injector := func(kills ...fault.DeviceEvent) *fault.Injector {
		return mustInjector(t, fault.InjectorConfig{TransientRate: 0.3, MaxRetries: 1, MaxRequeues: 1,
			FallbackPenaltyMs: 0.5, Seed: 3, DeviceEvents: kills})
	}
	random := func(rate float64, capacity int64) workload.Source {
		return workload.NewRandom(workload.RandomConfig{Rate: rate, ReadFraction: 0.67, MeanBytes: 4096,
			MaxBytes: 16 * 1024, SectorSize: 512, Capacity: capacity, Count: n, Seed: 5})
	}
	mirror := array.VolumeConfig{Level: array.VolMirror, Members: 2, Spares: 1, StripeUnit: 64, PerMember: 4096}
	for _, tc := range []struct {
		regime string
		run    func(c *recycleChecker, opts Options) Result
		src    func() workload.Source
	}{
		{"open", func(c *recycleChecker, opts Options) Result {
			opts.Injector = injector()
			return Run(&Context{Check: true, Probe: c}, mems.MustDevice(mems.DefaultConfig()), sched.NewSPTF(), c, opts)
		}, func() workload.Source { return random(1400, mems.MustDevice(mems.DefaultConfig()).Capacity()) }},
		{"closed", func(c *recycleChecker, opts Options) Result {
			opts.Injector = injector()
			return RunClosed(&Context{Check: true, Probe: c}, mems.MustDevice(mems.DefaultConfig()), c, opts)
		}, func() workload.Source { return random(1400, mems.MustDevice(mems.DefaultConfig()).Capacity()) }},
		// A mirror whose survivor dies mid-rebuild, under transient
		// errors and a queue that outgrows its 1 ms members.
		{"volume", func(c *recycleChecker, opts Options) Result {
			spec := volFixtures(t, mirror, 1)
			spec.RebuildChunk, spec.RebuildFrac = 256, 0.5
			opts.Injector = injector(fault.DeviceEvent{AtMs: 300, Dev: 1}, fault.DeviceEvent{AtMs: 900, Dev: 0})
			return mustVolume(t, &Context{Check: true, Probe: c}, spec, c, opts)
		}, func() workload.Source { return random(1500, mirror.Capacity()) }},
	} {
		t.Run(tc.regime, func(t *testing.T) {
			c := newRecycleChecker(tc.src(), tc.regime)
			res := tc.run(c, Options{Warmup: 100, Probe: NewPhaseCollector()})
			c.verify(t)
			if res.Requeues == 0 || res.FailedRequests == 0 || c.failures != res.FailedRequests {
				t.Errorf("requeues %d, failed %d (%d complete events of failed requests): a path is not reached",
					res.Requeues, res.FailedRequests, c.failures)
			}
			if tc.regime == "volume" && (res.Volume.DeviceFailures != 2 || !res.DataLoss || res.Volume.LostRequests == 0) {
				t.Errorf("failures %d, data loss %v, lost requests %d: the second failure lost nothing",
					res.Volume.DeviceFailures, res.DataLoss, res.Volume.LostRequests)
			}
			if distinct := len(c.state); distinct > n/4 || tc.regime == "closed" && distinct != 1 {
				t.Errorf("%d distinct requests for a stream of %d: requests are not being reused", distinct, n)
			}
		})
	}
}

// TestThinkTimeRecycles checks that a think-time wrapper hands its
// wrapped stream's requests back: a closed run keeps one request in
// play, so it reuses a single request throughout.
func TestThinkTimeRecycles(t *testing.T) {
	d := mems.MustDevice(mems.DefaultConfig())
	src := workload.ThinkTime(workload.DefaultRandom(900, 512, d.Capacity(), 500, 3), workload.ExpThink(2), 4)
	seen := map[*core.Request]bool{}
	res := RunClosed(nil, d, src, Options{Probe: probeFunc(func(ev ProbeEvent) { seen[ev.Req] = true })})
	if res.Requests != 500 {
		t.Fatalf("measured %d requests, want 500", res.Requests)
	}
	if len(seen) != 1 {
		t.Errorf("%d distinct requests in a closed run, want 1", len(seen))
	}
}
