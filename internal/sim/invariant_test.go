package sim

import (
	"math"
	"strings"
	"testing"

	"memsim/internal/core"
)

// feed runs a sequence of synthetic events through a fresh probe and
// returns its error.
func feed(events ...ProbeEvent) error {
	ip := newInvariantProbe()
	for _, ev := range events {
		ip.Observe(ev)
	}
	return ip.Err()
}

// okReq returns a well-formed completed request for complete events.
func okReq(arrival, start, finish float64) *core.Request {
	return &core.Request{Arrival: arrival, Start: start, Finish: finish, Blocks: 1}
}

func TestInvariantProbeCleanSequence(t *testing.T) {
	err := feed(
		ProbeEvent{Kind: EventArrive, Time: 0, Queue: 1},
		ProbeEvent{Kind: EventDispatch, Time: 0, Queue: 1},
		ProbeEvent{Kind: EventService, Time: 2, Breakdown: core.Breakdown{Seek: 0.5, Transfer: 1.5, ServiceMs: 2}},
		ProbeEvent{Kind: EventComplete, Time: 2, Measured: true, Req: okReq(0, 0, 2)},
	)
	if err != nil {
		t.Fatalf("clean sequence flagged: %v", err)
	}
}

func TestInvariantProbeViolations(t *testing.T) {
	cases := []struct {
		name   string
		events []ProbeEvent
		want   string // substring of the violation message
	}{
		{
			"backwards engine clock",
			[]ProbeEvent{
				{Kind: EventDispatch, Time: 5, Queue: 1},
				{Kind: EventComplete, Time: 3, Req: okReq(0, 0, 3)},
			},
			"engine clock moved backwards",
		},
		{
			"backwards arrival clock",
			[]ProbeEvent{
				{Kind: EventArrive, Time: 4, Queue: 1},
				{Kind: EventArrive, Time: 2, Queue: 1},
			},
			"arrival clock moved backwards",
		},
		{
			"non-finite time",
			[]ProbeEvent{{Kind: EventDispatch, Time: math.NaN(), Queue: 1}},
			"non-finite time",
		},
		{
			"negative time",
			[]ProbeEvent{{Kind: EventArrive, Time: -1, Queue: 1}},
			"negative time",
		},
		{
			"empty queue on dispatch",
			[]ProbeEvent{{Kind: EventDispatch, Time: 0, Queue: 0}},
			"queue length 0",
		},
		{
			"service before engine clock",
			[]ProbeEvent{
				{Kind: EventDispatch, Time: 10, Queue: 1},
				{Kind: EventService, Time: 4},
			},
			"before engine clock",
		},
		{
			"negative phase time",
			[]ProbeEvent{{Kind: EventService, Time: 1,
				Breakdown: core.Breakdown{Settle: -0.5, ServiceMs: 1}}},
			"negative settle time",
		},
		{
			"breakdown leak",
			[]ProbeEvent{{Kind: EventService, Time: 1,
				Breakdown: core.Breakdown{Seek: 3, ServiceMs: 1}}},
			"does not reconcile",
		},
		{
			"class out of range",
			[]ProbeEvent{{Kind: EventDispatch, Time: 0, Queue: 1,
				Req: &core.Request{Class: core.Class(core.NumClasses)}}},
			"out of range",
		},
		{
			"complete without request",
			[]ProbeEvent{{Kind: EventComplete, Time: 1}},
			"without a request",
		},
		{
			"finish before arrival",
			[]ProbeEvent{{Kind: EventComplete, Time: 1, Req: okReq(5, 0, 1)}},
			"before its arrival",
		},
		{
			"negative recovery",
			[]ProbeEvent{{Kind: EventComplete, Time: 2,
				Req: &core.Request{Finish: 2, RecoveryMs: -1, Blocks: 1}}},
			"negative recovery time",
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := feed(tc.events...)
			if err == nil {
				t.Fatal("violation not flagged")
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %q does not mention %q", err, tc.want)
			}
			if !strings.Contains(err.Error(), "sim: invariant violated") {
				t.Fatalf("error %q missing the invariant prefix", err)
			}
		})
	}
}

func TestInvariantProbeNonDecomposingDeviceOK(t *testing.T) {
	// A device that reports no breakdown leaves its access unattributed;
	// that is valid, not a reconciliation failure, also when a retry's
	// recovery penalty is attributed on top of it.
	err := feed(ProbeEvent{Kind: EventService, Time: 3,
		Breakdown: core.Breakdown{ServiceMs: 3}})
	if err != nil {
		t.Fatalf("total-only breakdown flagged: %v", err)
	}
	err = feed(ProbeEvent{Kind: EventService, Time: 4.5,
		Breakdown: core.Breakdown{Recovery: 1, ServiceMs: 1.5}})
	if err != nil {
		t.Fatalf("total-only breakdown with a retry penalty flagged: %v", err)
	}
}

func TestInvariantProbeOpenArrivalMayTrailClock(t *testing.T) {
	// The open regime ingests lazily: an arrive event stamped with its
	// own (earlier) time after the engine clock has advanced is the
	// documented normal case, not a violation.
	err := feed(
		ProbeEvent{Kind: EventDispatch, Time: 10, Queue: 1},
		ProbeEvent{Kind: EventArrive, Time: 3, Queue: 1},
	)
	if err != nil {
		t.Fatalf("trailing arrival flagged: %v", err)
	}
}

func TestInvariantProbeFinishRunConservation(t *testing.T) {
	ip := newInvariantProbe()
	ip.Observe(ProbeEvent{Kind: EventComplete, Time: 1, Measured: true, Req: okReq(0, 0, 1)})
	ip.Observe(ProbeEvent{Kind: EventComplete, Time: 2,
		Req: &core.Request{Finish: 2, Failed: true, Blocks: 1}})

	good := &Result{Requests: 1, FailedRequests: 1}
	ip.finishRun(good)
	if err := ip.Err(); err != nil {
		t.Fatalf("matching tallies flagged: %v", err)
	}

	ip2 := newInvariantProbe()
	ip2.Observe(ProbeEvent{Kind: EventComplete, Time: 1, Measured: true, Req: okReq(0, 0, 1)})
	ip2.finishRun(&Result{Requests: 7})
	err := ip2.Err()
	if err == nil || !strings.Contains(err.Error(), "Result.Requests is 7") {
		t.Fatalf("conservation mismatch not flagged: %v", err)
	}
}

func TestInvariantProbeCapsViolations(t *testing.T) {
	ip := newInvariantProbe()
	for i := 0; i < 100; i++ {
		ip.Observe(ProbeEvent{Kind: EventDispatch, Time: -1, Queue: 0})
	}
	err := ip.Err()
	if err == nil {
		t.Fatal("no violations recorded")
	}
	if n := strings.Count(err.Error(), "sim: invariant violated"); n > maxViolations {
		t.Errorf("recorded %d violations, cap is %d", n, maxViolations)
	}
}

// TestInvariantProbeReset checks that a checked run never inherits an
// earlier run's violations: the engine builds a fresh probe per run, even
// when the runs share one Context.
func TestInvariantProbeReset(t *testing.T) {
	ctx := &Context{Check: true}
	first := newEngine(ctx, Options{})
	first.check.Observe(ProbeEvent{Kind: EventDispatch, Time: -1, Queue: 0})
	if first.check.Err() == nil {
		t.Fatal("setup violation missing")
	}
	next := newEngine(ctx, Options{})
	if next.check == first.check {
		t.Fatal("engine reused the previous run's invariant probe")
	}
	if err := next.check.Err(); err != nil {
		t.Fatalf("fresh probe already reports: %v", err)
	}
}
