package sim

import (
	"reflect"
	"testing"

	"memsim/internal/core"
	"memsim/internal/disk"
	"memsim/internal/fault"
	"memsim/internal/mems"
	"memsim/internal/power"
	"memsim/internal/sched"
	"memsim/internal/workload"
)

func mustInjector(t *testing.T, cfg fault.InjectorConfig) *fault.Injector {
	t.Helper()
	in, err := fault.NewInjector(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return in
}

func TestZeroRateInjectorMatchesNoInjector(t *testing.T) {
	// The acceptance bar for the whole injection path: a zero-rate,
	// event-free injector must reproduce the uninstrumented run exactly.
	// reflect.DeepEqual checks every statistic at full float precision.
	d := mems.MustDevice(mems.DefaultConfig())
	run := func(inj *fault.Injector) Result {
		src := workload.DefaultRandom(900, 512, d.Capacity(), 3000, 17)
		return Run(nil, d, sched.NewSPTF(), src, Options{Warmup: 200, Injector: inj})
	}
	plain := run(nil)
	zero := run(mustInjector(t, fault.InjectorConfig{Seed: 1234}))
	if !reflect.DeepEqual(plain, zero) {
		t.Errorf("zero-rate injection diverged:\n  plain: %+v\n  zero:  %+v", plain, zero)
	}

	closed := func(inj *fault.Injector) Result {
		src := workload.DefaultRandom(900, 512, d.Capacity(), 2000, 29)
		return RunClosed(nil, d, src, Options{Warmup: 100, Injector: inj})
	}
	if p, z := closed(nil), closed(mustInjector(t, fault.InjectorConfig{Seed: 99})); !reflect.DeepEqual(p, z) {
		t.Errorf("closed zero-rate injection diverged:\n  plain: %+v\n  zero:  %+v", p, z)
	}
}

func TestTransientErrorsChargeRecoveryTime(t *testing.T) {
	// A fixed device has no §6.1.3 recovery model, so every retry costs
	// exactly the fallback penalty — the accounting is checkable to the
	// last millisecond. A transparent wrapper over it has a model that
	// declines to price, and must fall back the same way.
	for _, d := range []core.Device{
		&fixedDevice{svc: 2},
		core.NewManagedDevice(&fixedDevice{svc: 2}, nil),
	} {
		cfg := fault.DefaultInjectorConfig()
		cfg.TransientRate = 0.2
		cfg.FallbackPenaltyMs = 3
		cfg.Seed = 5
		src := workload.NewFromSlice(mkReqs(make([]float64, 500)))
		res := Run(nil, d, sched.NewFCFS(), src, Options{Injector: mustInjector(t, cfg)})
		if res.Retries == 0 {
			t.Fatalf("%s: 20%% transient rate produced no retries", d.Name())
		}
		if want := float64(res.Retries) * 3; res.RecoveryMs != want {
			t.Errorf("%s: recovery = %g ms, want retries×penalty = %g", d.Name(), res.RecoveryMs, want)
		}
		if res.Recovered == 0 {
			t.Errorf("%s: no requests recovered from transient errors", d.Name())
		}
		// Busy time covers service plus recovery.
		if want := float64(500)*2 + res.RecoveryMs; res.Busy != want {
			t.Errorf("%s: busy = %g, want %g", d.Name(), res.Busy, want)
		}
	}
}

func TestWrappersForwardRecoveryModel(t *testing.T) {
	// core.ManagedDevice and power.Managed are transparent here (identity
	// layout, never powered down), so an injected run must price every
	// retry with the wrapped MEMS device's §6.1.3 penalty and consume the
	// same injector draws: the Result is the bare device's, bit for bit.
	run := func(d core.Device) Result {
		cfg := fault.DefaultInjectorConfig()
		cfg.TransientRate = 0.05
		cfg.Seed = 5
		src := workload.DefaultRandom(500, d.SectorSize(), d.Capacity(), 2000, 5)
		return Run(nil, d, sched.NewFCFS(), src, Options{Injector: mustInjector(t, cfg)})
	}
	bare := run(mems.MustDevice(mems.DefaultConfig()))
	if bare.Retries == 0 {
		t.Fatal("5% transient rate produced no retries")
	}
	for _, d := range []core.Device{
		core.NewManagedDevice(mems.MustDevice(mems.DefaultConfig()), nil),
		power.NewManaged(mems.MustDevice(mems.DefaultConfig()), power.MEMSModel(), power.AlwaysOn()),
	} {
		if got := run(d); !reflect.DeepEqual(got, bare) {
			t.Errorf("%s: retries %d recovery %g ms, bare device %d / %g ms",
				d.Name(), got.Retries, got.RecoveryMs, bare.Retries, bare.RecoveryMs)
		}
	}
}

func TestRetryBudgetExhaustionFailsRequests(t *testing.T) {
	// At a 90% error rate with no retry or requeue budget, most requests
	// fail — and failed requests must stay out of the measured statistics.
	d := &fixedDevice{svc: 1}
	cfg := fault.InjectorConfig{TransientRate: 0.9, Seed: 3}
	src := workload.NewFromSlice(mkReqs(make([]float64, 200)))
	res := Run(nil, d, sched.NewFCFS(), src, Options{Injector: mustInjector(t, cfg)})
	if res.FailedRequests == 0 {
		t.Fatal("no requests failed at 90% error rate with zero budgets")
	}
	if res.Requests+res.FailedRequests != 200 {
		t.Errorf("measured %d + failed %d ≠ 200", res.Requests, res.FailedRequests)
	}
	if res.Response.N() != int64(res.Requests) {
		t.Errorf("response samples %d ≠ measured requests %d", res.Response.N(), res.Requests)
	}
	if res.Requeues != 0 {
		t.Errorf("requeues = %d with a zero requeue budget", res.Requeues)
	}
}

func TestRequeuedRequestsKeepOriginalStart(t *testing.T) {
	// A request that fails its first visit and is requeued keeps its
	// original start time, so its response time covers both visits.
	d := &fixedDevice{svc: 1}
	cfg := fault.InjectorConfig{TransientRate: 0.6, MaxRequeues: 5, Seed: 11}
	src := workload.NewFromSlice(mkReqs(make([]float64, 300)))
	var maxResp float64
	res := Run(nil, d, sched.NewFCFS(), src, Options{
		Injector: mustInjector(t, cfg),
		Probe: probeFunc(func(ev ProbeEvent) {
			if r := ev.Req; ev.Kind == EventComplete && !r.Failed && r.ResponseTime() > maxResp {
				maxResp = r.ResponseTime()
			}
		}),
	})
	if res.Requeues == 0 {
		t.Fatal("no requeues at 60% error rate with zero inline retries")
	}
	// A single 1 ms visit can never explain the queueing of 300
	// simultaneous arrivals plus requeues; the point is Start survives.
	if maxResp < 2 {
		t.Errorf("max successful response = %g ms; requeued requests lost their start time", maxResp)
	}
	if res.FailedRequests == 0 {
		t.Error("a 60% error rate should exhaust some requeue budgets")
	}
}

func TestDegradedReadsPayECCSurcharge(t *testing.T) {
	// A tip fails at t=0 with no spares: every read afterwards is striped
	// over the degraded tip and pays the per-sector surcharge.
	d := &fixedDevice{svc: 1}
	arr := fault.Config{Tips: 66, DataTips: 64, ECCTips: 2, SpareTips: 0}
	cfg := fault.InjectorConfig{
		Array:          &arr,
		Events:         []fault.TipEvent{{AtMs: 0, Tip: 7}},
		SectorTips:     func(int64) (int, int) { return 7, 1 },
		ECCSurchargeMs: 0.25,
	}
	src := workload.NewFromSlice(mkReqs(make([]float64, 40))) // 1-block reads
	res := Run(nil, d, sched.NewFCFS(), src, Options{Injector: mustInjector(t, cfg)})
	if res.DegradedReads != 40 {
		t.Errorf("degraded reads = %d, want 40", res.DegradedReads)
	}
	if want := 40 * 0.25; res.RecoveryMs != want {
		t.Errorf("ECC recovery = %g ms, want %g", res.RecoveryMs, want)
	}
	// Writes never pay the read-reconstruction surcharge.
	var wsrc []*core.Request
	for i := 0; i < 10; i++ {
		wsrc = append(wsrc, &core.Request{Op: core.Write, LBN: 0, Blocks: 1})
	}
	res = Run(nil, d, sched.NewFCFS(), workload.NewFromSlice(wsrc), Options{Injector: mustInjector(t, cfg)})
	if res.DegradedReads != 0 || res.RecoveryMs != 0 {
		t.Errorf("writes paid ECC surcharge: degraded=%d recovery=%g", res.DegradedReads, res.RecoveryMs)
	}
}

func TestRunClosedInjectsFaults(t *testing.T) {
	d := &fixedDevice{svc: 2}
	cfg := fault.DefaultInjectorConfig()
	cfg.TransientRate = 0.3
	cfg.FallbackPenaltyMs = 1
	cfg.Seed = 21
	src := workload.NewFromSlice(mkReqs(make([]float64, 400)))
	res := RunClosed(nil, d, src, Options{Injector: mustInjector(t, cfg)})
	if res.Retries == 0 || res.Recovered == 0 {
		t.Fatalf("closed run saw no faults: %+v", res)
	}
	if res.RecoveryMs != float64(res.Retries) {
		t.Errorf("recovery = %g ms, want %d retries × 1 ms", res.RecoveryMs, res.Retries)
	}
	// Elapsed covers every service visit (each requeue re-services the
	// request in place) plus all recovery time.
	if want := float64(400+res.Requeues)*2 + res.RecoveryMs; res.Elapsed != want {
		t.Errorf("elapsed = %g, want %g", res.Elapsed, want)
	}
}

func TestInjectionDeterministic(t *testing.T) {
	d := mems.MustDevice(mems.DefaultConfig())
	run := func() Result {
		src := workload.DefaultRandom(800, 512, d.Capacity(), 2000, 13)
		cfg := fault.DefaultInjectorConfig()
		cfg.TransientRate = 0.05
		cfg.Seed = 77
		return Run(nil, d, sched.NewSPTF(), src, Options{Warmup: 100, Injector: mustInjector(t, cfg)})
	}
	if a, b := run(), run(); !reflect.DeepEqual(a, b) {
		t.Errorf("injected runs differ:\n  %+v\n  %+v", a, b)
	}
}

func TestDiskRecoveryCostlierThanMEMS(t *testing.T) {
	// §6.1.3: a disk seek error costs a re-seek plus a full rotational
	// re-miss (~ms), a MEMS positioning error only turnarounds plus a short
	// X seek (~tenths of ms). The per-error recovery cost must reflect the
	// asymmetry end to end through the simulator.
	perError := func(d core.Device) float64 {
		cfg := fault.DefaultInjectorConfig()
		cfg.TransientRate = 0.05
		cfg.Seed = 41
		src := workload.DefaultRandom(60, 512, d.Capacity(), 3000, 9)
		res := Run(nil, d, sched.NewFCFS(), src, Options{Warmup: 200, Injector: mustInjector(t, cfg)})
		if res.Retries == 0 {
			t.Fatalf("%s: no retries at 5%% error rate", d.Name())
		}
		return res.RecoveryMs / float64(res.Retries)
	}
	memsCost := perError(mems.MustDevice(mems.DefaultConfig()))
	diskCost := perError(disk.MustDevice(disk.Atlas10K()))
	if diskCost <= memsCost*2 {
		t.Errorf("disk per-error recovery %.3f ms vs MEMS %.3f ms: want disk ≫ MEMS", diskCost, memsCost)
	}
}

func TestDataLossSurfacesAndRefusesService(t *testing.T) {
	// Satellite: when scheduled tip failures exhaust spares and the ECC
	// budget of a stripe, the run must mark DataLoss, and reads touching
	// the lost sectors must complete as failed — never silently served.
	d := &fixedDevice{svc: 1}
	arr := fault.Config{Tips: 66, DataTips: 64, ECCTips: 2, SpareTips: 0}
	cfg := fault.InjectorConfig{
		Array: &arr,
		// Three failures in one stripe group exceed the 2-tip ECC budget.
		Events: []fault.TipEvent{
			{AtMs: 0, Tip: 0},
			{AtMs: 0, Tip: 1},
			{AtMs: 0, Tip: 2},
		},
		// Low LBNs live on a dead tip; high LBNs on a healthy one.
		SectorTips: func(lbn int64) (int, int) {
			if lbn < 50 {
				return 0, 1
			}
			return 40, 1
		},
	}
	var reqs []*core.Request
	for i := 0; i < 30; i++ {
		lbn := int64(0) // lost
		if i%3 == 0 {
			lbn = 1000 // healthy
		}
		reqs = append(reqs, &core.Request{Arrival: float64(i), Op: core.Read, LBN: lbn, Blocks: 1})
	}
	res := Run(nil, d, sched.NewFCFS(), workload.NewFromSlice(reqs), Options{Injector: mustInjector(t, cfg)})
	if !res.DataLoss {
		t.Fatal("run with an over-budget stripe did not surface DataLoss")
	}
	if res.LostReads != 20 {
		t.Errorf("lost reads = %d, want 20", res.LostReads)
	}
	if res.FailedRequests != 20 {
		t.Errorf("failed requests = %d, want 20", res.FailedRequests)
	}
	// Healthy sectors keep serving, and lost reads stay out of the
	// measured statistics.
	if res.Requests != 10 {
		t.Errorf("measured requests = %d, want 10", res.Requests)
	}
	if res.Response.N() != int64(res.Requests) {
		t.Errorf("response samples %d ≠ measured requests %d", res.Response.N(), res.Requests)
	}
	// Lost reads must not be requeued or retried — the data is gone.
	if res.Retries != 0 || res.Requeues != 0 {
		t.Errorf("lost reads retried: retries=%d requeues=%d", res.Retries, res.Requeues)
	}

	// Writes to lost sectors still land (they rewrite the data); only
	// reads fail.
	var wreqs []*core.Request
	for i := 0; i < 10; i++ {
		wreqs = append(wreqs, &core.Request{Arrival: float64(i), Op: core.Write, LBN: 0, Blocks: 1})
	}
	wres := Run(nil, d, sched.NewFCFS(), workload.NewFromSlice(wreqs), Options{Injector: mustInjector(t, cfg)})
	if wres.FailedRequests != 0 || wres.LostReads != 0 {
		t.Errorf("writes to lost sectors failed: %+v", wres)
	}
	if !wres.DataLoss {
		t.Error("DataLoss flag dropped on the write-only run")
	}
}
