package sim

import (
	"fmt"
	"math"
	"reflect"
	"testing"

	"memsim/internal/array"
	"memsim/internal/core"
	"memsim/internal/fault"
	"memsim/internal/mems"
	"memsim/internal/sched"
	"memsim/internal/workload"
)

// volFixtures builds a volume over fixed-service devices with FCFS
// queues (constant svc isolates the failover logic from mechanics).
func volFixtures(t *testing.T, cfg array.VolumeConfig, svc float64) VolumeSpec {
	t.Helper()
	v, err := array.NewVolume(cfg)
	if err != nil {
		t.Fatal(err)
	}
	n := cfg.Devices()
	devs := make([]core.Device, n)
	scheds := make([]core.Scheduler, n)
	for i := range devs {
		devs[i] = &fixedDevice{svc: svc}
		scheds[i] = sched.NewFCFS()
	}
	return VolumeSpec{Volume: v, Devices: devs, Scheds: scheds}
}

func mirrorVolCfg() array.VolumeConfig {
	return array.VolumeConfig{Level: array.VolMirror, Members: 2, Spares: 1, StripeUnit: 8, PerMember: 64}
}

func parityVolCfg() array.VolumeConfig {
	return array.VolumeConfig{Level: array.VolParity, Members: 3, Spares: 1, StripeUnit: 8, PerMember: 64}
}

// volReqs builds Blocks=1 requests with the given arrivals, ops and
// volume LBNs.
func volReqs(arrivals []float64, op core.Op, lbns []int64) []*core.Request {
	out := make([]*core.Request, len(arrivals))
	for i, a := range arrivals {
		out[i] = &core.Request{Arrival: a, Op: op, LBN: lbns[i%len(lbns)], Blocks: 1}
	}
	return out
}

func devEvents(t *testing.T, evs ...fault.DeviceEvent) *fault.Injector {
	t.Helper()
	inj, err := fault.NewInjector(fault.InjectorConfig{DeviceEvents: evs})
	if err != nil {
		t.Fatal(err)
	}
	return inj
}

func TestRunVolumeErrors(t *testing.T) {
	spec := volFixtures(t, mirrorVolCfg(), 1)
	src := func() workload.Source { return workload.NewFromSlice(volReqs([]float64{0}, core.Read, []int64{0})) }
	cases := []struct {
		name string
		run  func() (Result, error)
	}{
		{"nil volume", func() (Result, error) {
			return RunVolume(nil, VolumeSpec{}, src(), Options{})
		}},
		{"device count", func() (Result, error) {
			s := spec
			s.Devices = s.Devices[:1]
			return RunVolume(nil, s, src(), Options{})
		}},
		{"nil source", func() (Result, error) {
			return RunVolume(nil, spec, nil, Options{})
		}},
		{"bad fraction", func() (Result, error) {
			s := spec
			s.RebuildFrac = 1.5
			return RunVolume(nil, s, src(), Options{})
		}},
		{"negative chunk", func() (Result, error) {
			s := spec
			s.RebuildChunk = -1
			return RunVolume(nil, s, src(), Options{})
		}},
		{"member too small", func() (Result, error) {
			cfg := mirrorVolCfg()
			cfg.PerMember = 1 << 40
			cfg.StripeUnit = 1 << 40
			v, err := array.NewVolume(cfg)
			if err != nil {
				t.Fatal(err)
			}
			s := spec
			s.Volume = v
			return RunVolume(nil, s, src(), Options{})
		}},
		{"failure slot out of range", func() (Result, error) {
			return RunVolume(nil, spec, src(),
				Options{Injector: devEvents(t, fault.DeviceEvent{AtMs: 1, Dev: 7})})
		}},
	}
	for _, tc := range cases {
		if _, err := tc.run(); err == nil {
			t.Errorf("%s: expected an error", tc.name)
		}
	}
}

func TestRunVolumeHealthyShapes(t *testing.T) {
	// No contention, fixed 1 ms service: plan shapes are readable
	// directly in the response times.
	cases := []struct {
		name string
		cfg  array.VolumeConfig
		op   core.Op
		want float64
	}{
		// Mirror read: one replica visit.
		{"mirror read", mirrorVolCfg(), core.Read, 1},
		// Mirror write: both replicas in parallel.
		{"mirror write", mirrorVolCfg(), core.Write, 1},
		// Parity read: one data visit.
		{"parity read", parityVolCfg(), core.Read, 1},
		// Parity small write: 2-phase RMW (read data+parity, then write).
		{"parity write", parityVolCfg(), core.Write, 2},
	}
	for _, tc := range cases {
		spec := volFixtures(t, tc.cfg, 1)
		src := workload.NewFromSlice(volReqs([]float64{0, 10, 20}, tc.op, []int64{0, 16, 32}))
		res, err := RunVolume(nil, spec, src, Options{})
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if res.Requests != 3 {
			t.Fatalf("%s: requests = %d", tc.name, res.Requests)
		}
		if res.Response.Mean() != tc.want {
			t.Errorf("%s: response = %g ms, want %g", tc.name, res.Response.Mean(), tc.want)
		}
		if res.Volume == nil || res.Volume.DeviceFailures != 0 || res.Volume.DegradedMs != 0 {
			t.Errorf("%s: unexpected failover activity: %+v", tc.name, res.Volume)
		}
		if res.Volume.Healthy.N() != 3 || res.Volume.Degraded.N() != 0 {
			t.Errorf("%s: healthy/degraded split = %d/%d", tc.name,
				res.Volume.Healthy.N(), res.Volume.Degraded.N())
		}
	}
}

func TestRunVolumeDeterministic(t *testing.T) {
	// Identical inputs — including a mid-run failure and rebuild — give
	// identical results at full float precision.
	run := func() Result {
		cfg := parityVolCfg()
		cfg.PerMember = 6750000 / 100
		cfg.StripeUnit = 2700
		v, err := array.NewVolume(cfg)
		if err != nil {
			t.Fatal(err)
		}
		n := cfg.Devices()
		devs := make([]core.Device, n)
		scheds := make([]core.Scheduler, n)
		for i := range devs {
			devs[i] = mems.MustDevice(mems.DefaultConfig())
			scheds[i] = sched.NewSPTF()
		}
		src := workload.NewRandom(workload.RandomConfig{
			Rate: 500, ReadFraction: 0.67, MeanBytes: 4096, MaxBytes: 4096,
			SectorSize: devs[0].SectorSize(), Capacity: cfg.Capacity(), Count: 400, Seed: 7,
		})
		res, err := RunVolume(nil,
			VolumeSpec{Volume: v, Devices: devs, Scheds: scheds, RebuildChunk: 2700, RebuildFrac: 0.5},
			src, Options{Warmup: 50, Injector: devEvents(t, fault.DeviceEvent{AtMs: 200, Dev: 1})})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := run(), run()
	if !reflect.DeepEqual(a, b) {
		t.Errorf("volume runs diverged:\n  %+v\n  %+v", a, b)
	}
	if a.Volume.RebuildsDone != 1 {
		t.Fatalf("rebuild did not complete: %+v", a.Volume)
	}
}

func TestRunVolumeMirrorFailover(t *testing.T) {
	spec := volFixtures(t, mirrorVolCfg(), 1)
	spec.RebuildChunk = 16
	rp := &recordingProbe{}
	arr := make([]float64, 60)
	lbns := make([]int64, 60)
	for i := range arr {
		arr[i] = float64(i)
		lbns[i] = int64(i) % 64
	}
	src := workload.NewFromSlice(volReqs(arr, core.Read, lbns))
	res, err := RunVolume(nil, spec, src,
		Options{Probe: rp, Injector: devEvents(t, fault.DeviceEvent{AtMs: 10, Dev: 0})})
	if err != nil {
		t.Fatal(err)
	}
	vs := res.Volume
	if vs.DeviceFailures != 1 || vs.RebuildsStarted != 1 || vs.RebuildsDone != 1 {
		t.Fatalf("failover counters: %+v", vs)
	}
	if vs.RebuildChunks != 4 { // 64 sectors / 16-sector chunks
		t.Errorf("rebuild chunks = %d, want 4", vs.RebuildChunks)
	}
	if res.Requests != 60 || res.FailedRequests != 0 {
		t.Errorf("requests = %d, failed = %d; a mirror failover must lose nothing",
			res.Requests, res.FailedRequests)
	}
	if res.DataLoss {
		t.Error("single mirror failure reported data loss")
	}
	if vs.RebuildMs <= 0 || vs.DegradedMs < vs.RebuildMs {
		t.Errorf("MTTR %.3f ms, degraded window %.3f ms", vs.RebuildMs, vs.DegradedMs)
	}
	if vs.Degraded.N() == 0 || vs.Healthy.N() == 0 {
		t.Errorf("healthy/degraded split = %d/%d", vs.Healthy.N(), vs.Degraded.N())
	}
	if vs.RebuildBusy <= 0 {
		t.Error("rebuild consumed no device time")
	}
	// Mirror survivor reads are full-speed, not reconstruction.
	if vs.DegradedReads != 0 {
		t.Errorf("mirror degraded reads = %d, want 0", vs.DegradedReads)
	}
	// Spare (device 2) did rebuild writes.
	if res.Members[2].Requests == 0 {
		t.Error("spare device served no rebuild traffic")
	}

	// Probe lifecycle: fail → rebuild-start → rebuild-done, in order.
	if rp.count(EventDeviceFail) != 1 || rp.count(EventRebuildStart) != 1 || rp.count(EventRebuildDone) != 1 {
		t.Fatalf("lifecycle events: fail=%d start=%d done=%d",
			rp.count(EventDeviceFail), rp.count(EventRebuildStart), rp.count(EventRebuildDone))
	}
	order := []EventKind{}
	for _, ev := range rp.events {
		switch ev.Kind {
		case EventDeviceFail, EventRebuildStart, EventRebuildDone:
			order = append(order, ev.Kind)
			if ev.Req != nil {
				t.Errorf("%v event carries a request", ev.Kind)
			}
			if ev.Dev != 0 {
				t.Errorf("%v event on slot %d, want 0", ev.Kind, ev.Dev)
			}
		}
	}
	want := []EventKind{EventDeviceFail, EventRebuildStart, EventRebuildDone}
	if !reflect.DeepEqual(order, want) {
		t.Errorf("lifecycle order = %v, want %v", order, want)
	}
}

func TestRunVolumeParityDegradedService(t *testing.T) {
	spec := volFixtures(t, parityVolCfg(), 1)
	spec.RebuildChunk = 8
	arr := make([]float64, 80)
	lbns := make([]int64, 80)
	for i := range arr {
		arr[i] = float64(i) * 2
		lbns[i] = int64(i*7) % 128
	}
	src := workload.NewFromSlice(volReqs(arr, core.Read, lbns))
	res, err := RunVolume(nil, spec, src,
		Options{Injector: devEvents(t, fault.DeviceEvent{AtMs: 20, Dev: 1})})
	if err != nil {
		t.Fatal(err)
	}
	vs := res.Volume
	if vs.RebuildsDone != 1 || res.FailedRequests != 0 {
		t.Fatalf("parity failover: %+v failed=%d", vs, res.FailedRequests)
	}
	if vs.DegradedReads == 0 {
		t.Error("no reads paid peer reconstruction while degraded")
	}
	if res.DegradedReads != vs.DegradedReads {
		t.Errorf("Result.DegradedReads %d != Volume.DegradedReads %d",
			res.DegradedReads, vs.DegradedReads)
	}
}

func TestRunVolumeDoubleFailureSurfacesLoss(t *testing.T) {
	cfg := parityVolCfg()
	cfg.Spares = 0 // no cover: the second failure is fatal
	spec := volFixtures(t, cfg, 1)
	arr := make([]float64, 40)
	lbns := make([]int64, 40)
	for i := range arr {
		arr[i] = float64(i)
		lbns[i] = int64(i*5) % 128
	}
	src := workload.NewFromSlice(volReqs(arr, core.Read, lbns))
	res, err := RunVolume(nil, spec, src, Options{Injector: devEvents(t,
		fault.DeviceEvent{AtMs: 5, Dev: 0}, fault.DeviceEvent{AtMs: 12, Dev: 2})})
	if err != nil {
		t.Fatal(err)
	}
	if !res.DataLoss {
		t.Fatal("double failure did not surface DataLoss")
	}
	if res.FailedRequests == 0 || res.Volume.LostRequests == 0 || res.LostReads == 0 {
		t.Errorf("lost service not reported: failed=%d lost=%d lostReads=%d",
			res.FailedRequests, res.Volume.LostRequests, res.LostReads)
	}
	// Every arrival completed one way or the other — no silent drops.
	if got := res.Requests + res.FailedRequests; got != 40 {
		t.Errorf("completions+failures = %d, want 40", got)
	}
	if res.Volume.RebuildsDone != 0 {
		t.Error("rebuild reported complete on a lost volume")
	}
	if res.Volume.DegradedMs <= 0 {
		t.Error("no degraded window recorded")
	}
}

func TestRunVolumeSecondFailureMidRebuild(t *testing.T) {
	// A second member failure while the rebuild is still in flight — the
	// vulnerability-window loss of the MTTDL model — must surface as
	// DataLoss with failed reads of the lost sectors and sane MTTR and
	// degraded accounting, never a panic or a phantom completed rebuild.
	cases := []struct {
		name      string
		cfg       array.VolumeConfig
		secondDev int
	}{
		{"mirror", mirrorVolCfg(), 1},
		{"parity", parityVolCfg(), 2},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			spec := volFixtures(t, tc.cfg, 1)
			spec.RebuildChunk = 8
			rp := &recordingProbe{}
			arr := make([]float64, 40)
			lbns := make([]int64, 40)
			for i := range arr {
				arr[i] = float64(i)
				lbns[i] = int64(i*5) % tc.cfg.Capacity()
			}
			src := workload.NewFromSlice(volReqs(arr, core.Read, lbns))
			// First failure at 5 ms starts the rebuild (8 chunks × ≥2 ms);
			// the second at 12 ms lands well inside it.
			res, err := RunVolume(nil, spec, src, Options{Probe: rp, Injector: devEvents(t,
				fault.DeviceEvent{AtMs: 5, Dev: 0},
				fault.DeviceEvent{AtMs: 12, Dev: tc.secondDev})})
			if err != nil {
				t.Fatal(err)
			}
			vs := res.Volume
			if !res.DataLoss {
				t.Fatal("second failure mid-rebuild did not surface DataLoss")
			}
			if vs.DeviceFailures != 2 {
				t.Errorf("device failures = %d, want 2", vs.DeviceFailures)
			}
			if vs.RebuildsStarted != 1 || vs.RebuildsDone != 0 {
				t.Errorf("rebuild started/done = %d/%d, want 1/0 (killed mid-flight)",
					vs.RebuildsStarted, vs.RebuildsDone)
			}
			if vs.RebuildMs != 0 {
				t.Errorf("MTTR %.3f ms credited for a rebuild that never finished", vs.RebuildMs)
			}
			if res.FailedRequests == 0 || vs.LostRequests == 0 || res.LostReads == 0 {
				t.Errorf("lost service not reported: failed=%d lost=%d lostReads=%d",
					res.FailedRequests, vs.LostRequests, res.LostReads)
			}
			// Every arrival completed one way or the other — graceful
			// refusal, no silent drops.
			if got := res.Requests + res.FailedRequests; got != 40 {
				t.Errorf("completions+failures = %d, want 40", got)
			}
			// The degraded window opens at the first failure and stays open
			// to the end of the run on a lost volume.
			if vs.DegradedMs <= 0 || vs.DegradedMs > res.Elapsed {
				t.Errorf("degraded window %.3f ms outside (0, %.3f]", vs.DegradedMs, res.Elapsed)
			}
			if rp.count(EventRebuildStart) != 1 || rp.count(EventRebuildDone) != 0 {
				t.Errorf("lifecycle events: start=%d done=%d, want 1/0",
					rp.count(EventRebuildStart), rp.count(EventRebuildDone))
			}
		})
	}
}

func TestRunVolumeLifetimeDrawnFailures(t *testing.T) {
	// Failures drawn from the exponential lifetime model — including
	// repeated deaths after spares are spent — must be deterministic and
	// degrade gracefully, never panic.
	run := func() Result {
		spec := volFixtures(t, mirrorVolCfg(), 1)
		spec.RebuildChunk = 8
		inj, err := fault.NewInjector(fault.InjectorConfig{
			Lifetime: &fault.LifetimeModel{MTTFMs: 15, Slots: 2, HorizonMs: 60, Seed: 9},
		})
		if err != nil {
			t.Fatal(err)
		}
		arr := make([]float64, 60)
		lbns := make([]int64, 60)
		for i := range arr {
			arr[i] = float64(i)
			lbns[i] = int64(i*3) % 64
		}
		src := workload.NewFromSlice(volReqs(arr, core.Read, lbns))
		res, err := RunVolume(nil, spec, src, Options{Injector: inj})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := run(), run()
	if !reflect.DeepEqual(a, b) {
		t.Error("lifetime-drawn runs diverged")
	}
	// MTTF 15 ms over a 60 ms horizon draws ~4 failures per member slot:
	// both members die long before any rebuild covers.
	if a.Volume.DeviceFailures < 2 {
		t.Fatalf("drew %d device failures, want ≥2", a.Volume.DeviceFailures)
	}
	if !a.DataLoss {
		t.Error("both mirror members failed but no DataLoss")
	}
	if got := a.Requests + a.FailedRequests; got != 60 {
		t.Errorf("completions+failures = %d, want 60", got)
	}
	if a.Volume.DegradedMs <= 0 || a.Volume.DegradedMs > a.Elapsed {
		t.Errorf("degraded window %.3f ms outside (0, %.3f]", a.Volume.DegradedMs, a.Elapsed)
	}
}

func TestRunVolumeAdaptivePaceChanges(t *testing.T) {
	// Under a foreground burst adaptive pacing must actually change
	// pace (backing off as the survivor queue grows, sprinting as it
	// drains), emitting one EventRebuildPace per change; the default
	// fixed pacing must emit none.
	run := func(adaptive bool) (Result, *recordingProbe) {
		spec := volFixtures(t, mirrorVolCfg(), 1)
		spec.RebuildChunk = 8
		spec.AdaptiveRebuild = adaptive
		rp := &recordingProbe{}
		// 80 reads at 4/ms against a 1 ms/req survivor: the queue grows
		// through the burst and drains after it ends at 20 ms.
		arr := make([]float64, 80)
		lbns := make([]int64, 80)
		for i := range arr {
			arr[i] = float64(i) * 0.25
			lbns[i] = int64(i*5) % 64
		}
		src := workload.NewFromSlice(volReqs(arr, core.Read, lbns))
		res, err := RunVolume(nil, spec, src,
			Options{Probe: rp, Injector: devEvents(t, fault.DeviceEvent{AtMs: 4, Dev: 0})})
		if err != nil {
			t.Fatal(err)
		}
		return res, rp
	}

	adaptive, arp := run(true)
	if adaptive.Volume.RebuildsDone != 1 {
		t.Fatalf("adaptive rebuild incomplete: %+v", adaptive.Volume)
	}
	if adaptive.Volume.PaceChanges == 0 {
		t.Error("adaptive pacing never changed pace under a varying queue")
	}
	if got := arp.count(EventRebuildPace); got != adaptive.Volume.PaceChanges {
		t.Errorf("pace events = %d, PaceChanges = %d", got, adaptive.Volume.PaceChanges)
	}
	for _, ev := range arp.events {
		if ev.Kind != EventRebuildPace {
			continue
		}
		if ev.Req != nil {
			t.Error("pace event carries a request")
		}
		if ev.Dev != 0 {
			t.Errorf("pace event on slot %d, want failed slot 0", ev.Dev)
		}
		if !(ev.Pace > 0 && ev.Pace <= 1) {
			t.Errorf("pace event outside (0,1]: %g", ev.Pace)
		}
		if ev.Queue < 0 {
			t.Errorf("pace event queue = %d", ev.Queue)
		}
	}

	fixed, frp := run(false) // default fixed pacing, flat-out
	if fixed.Volume.RebuildsDone != 1 {
		t.Fatalf("fixed rebuild incomplete: %+v", fixed.Volume)
	}
	if fixed.Volume.PaceChanges != 0 || frp.count(EventRebuildPace) != 0 {
		t.Errorf("fixed pacing changed pace: changes=%d events=%d",
			fixed.Volume.PaceChanges, frp.count(EventRebuildPace))
	}
}

func TestRunVolumeAdaptiveSprintsWhenIdle(t *testing.T) {
	// With no foreground pressure during the rebuild adaptive pacing
	// holds pace 1 throughout: MTTR matches the flat-out fixed rebuild
	// (16 ms, see TestRunVolumeThrottleStretchesRebuild) and no pace
	// change fires.
	spec := volFixtures(t, mirrorVolCfg(), 1)
	spec.RebuildChunk = 8
	spec.AdaptiveRebuild = true
	src := workload.NewFromSlice(volReqs([]float64{0, 1, 2}, core.Read, []int64{0, 8, 16}))
	res, err := RunVolume(nil, spec, src,
		Options{Injector: devEvents(t, fault.DeviceEvent{AtMs: 4, Dev: 1})})
	if err != nil {
		t.Fatal(err)
	}
	if res.Volume.RebuildsDone != 1 {
		t.Fatalf("rebuild incomplete: %+v", res.Volume)
	}
	if res.Volume.RebuildMs != 16 {
		t.Errorf("idle adaptive MTTR = %g ms, want flat-out 16", res.Volume.RebuildMs)
	}
	if res.Volume.PaceChanges != 0 {
		t.Errorf("pace changed %d times with empty queues", res.Volume.PaceChanges)
	}
}

func TestRunVolumeThrottleStretchesRebuild(t *testing.T) {
	// The same failure rebuilt at 25% throttle must take longer than
	// flat-out, and the rebuild tail must run past source exhaustion.
	run := func(frac float64) Result {
		spec := volFixtures(t, mirrorVolCfg(), 1)
		spec.RebuildChunk = 8
		spec.RebuildFrac = frac
		src := workload.NewFromSlice(volReqs([]float64{0, 1, 2}, core.Read, []int64{0, 8, 16}))
		res, err := RunVolume(nil, spec, src,
			Options{Injector: devEvents(t, fault.DeviceEvent{AtMs: 4, Dev: 1})})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	flat, throttled := run(1), run(0.25)
	if flat.Volume.RebuildsDone != 1 || throttled.Volume.RebuildsDone != 1 {
		t.Fatalf("rebuilds incomplete: flat=%+v throttled=%+v", flat.Volume, throttled.Volume)
	}
	if throttled.Volume.RebuildMs <= flat.Volume.RebuildMs {
		t.Errorf("throttled MTTR %.3f ms not above flat-out %.3f ms",
			throttled.Volume.RebuildMs, flat.Volume.RebuildMs)
	}
	// 8 chunks × 2 ms each: flat-out MTTR ≈ 16 ms; 25% throttle idles
	// 3× the chunk time after each chunk ≈ 58 ms.
	if flat.Volume.RebuildMs != 16 {
		t.Errorf("flat MTTR = %g ms, want 16", flat.Volume.RebuildMs)
	}
	if throttled.Volume.RebuildMs != 58 {
		t.Errorf("throttled MTTR = %g ms, want 58", throttled.Volume.RebuildMs)
	}
}

func TestRunVolumeMemberPhases(t *testing.T) {
	// With a PhaseCollector the run reports volume-level phases per
	// measured request and per-member phases per service visit.
	cfg := parityVolCfg()
	cfg.PerMember = 2700 * 4
	cfg.StripeUnit = 2700
	v, err := array.NewVolume(cfg)
	if err != nil {
		t.Fatal(err)
	}
	n := cfg.Devices()
	devs := make([]core.Device, n)
	scheds := make([]core.Scheduler, n)
	for i := range devs {
		devs[i] = mems.MustDevice(mems.DefaultConfig())
		scheds[i] = sched.NewFCFS()
	}
	pc := NewPhaseCollector()
	src := workload.NewRandom(workload.RandomConfig{
		Rate: 300, ReadFraction: 0.5, MeanBytes: 2048, MaxBytes: 4096,
		SectorSize: devs[0].SectorSize(), Capacity: cfg.Capacity(), Count: 120, Seed: 3,
	})
	res, err := RunVolume(nil, VolumeSpec{Volume: v, Devices: devs, Scheds: scheds}, src,
		Options{Warmup: 10, Probe: pc})
	if err != nil {
		t.Fatal(err)
	}
	if res.Phases == nil || res.Phases.Requests != res.Requests {
		t.Fatalf("volume phases = %+v for %d requests", res.Phases, res.Requests)
	}
	visits := 0
	for i, m := range res.Members {
		if m.Phases == nil {
			t.Fatalf("member %d missing phases", i)
		}
		if m.Phases.Requests != m.Requests {
			t.Errorf("member %d phase visits %d != requests %d", i, m.Phases.Requests, m.Requests)
		}
		visits += m.Phases.Requests
	}
	// Member phases are per visit and cover warmup: at least one visit
	// per completed request, spares idle on a healthy run.
	if visits < res.Requests {
		t.Errorf("member visits %d below measured requests %d", visits, res.Requests)
	}
	if res.Members[n-1].Requests != 0 {
		t.Error("spare device served traffic on a healthy run")
	}
}

func TestAdaptiveRebuildPace(t *testing.T) {
	if got := adaptivePace(0); got != 1 {
		t.Errorf("idle pace = %g, want sprint at 1", got)
	}
	if got := adaptivePace(1); got != 0.5 {
		t.Errorf("adaptivePace(1) = %g, want 0.5", got)
	}
	if got := adaptivePace(1000); got != 0.1 {
		t.Errorf("deep-queue pace = %g, want floor 0.1", got)
	}
	// Monotone non-increasing in queue depth.
	prev := math.Inf(1)
	for q := 0; q <= 64; q++ {
		cur := adaptivePace(q)
		if cur > prev {
			t.Fatalf("pace rose with load: adaptivePace(%d)=%g > adaptivePace(%d)=%g", q, cur, q-1, prev)
		}
		prev = cur
	}
}

func TestRunVolumeOneMemberMatchesRun(t *testing.T) {
	// A one-member stripe volume whose strip is the whole device never
	// splits a request, so it is the same queueing system as Run on that
	// device: every statistic must agree bit for bit, also when requests
	// fail with no retry or requeue budget left. Recovered is not
	// compared: retries land on RunVolume's member ops, never on the
	// volume request whose outcome complete tallies, so RunVolume never
	// counts it.
	dev := mems.MustDevice(mems.DefaultConfig())
	capacity := dev.Capacity()
	reqs := func() workload.Source {
		return workload.DefaultRandom(1500, dev.SectorSize(), capacity, 3000, 7)
	}
	for _, policy := range []string{"FCFS", "SPTF"} {
		for _, tc := range []struct {
			rate     float64
			noBudget bool
		}{{0, false}, {0.02, false}, {0.02, true}} {
			rate := tc.rate
			name := fmt.Sprintf("%s/transient=%g", policy, rate)
			if tc.noBudget {
				name += "/no-budget"
			}
			t.Run(name, func(t *testing.T) {
				opts := func() Options {
					o := Options{Warmup: 100}
					if rate > 0 {
						cfg := fault.DefaultInjectorConfig()
						cfg.TransientRate, cfg.Seed = rate, 3
						if tc.noBudget {
							cfg.MaxRetries, cfg.MaxRequeues = 0, 0
						}
						o.Injector = mustInjector(t, cfg)
					}
					return o
				}
				newSched := func() core.Scheduler {
					s, err := sched.New(policy)
					if err != nil {
						t.Fatal(err)
					}
					return s
				}
				run := Run(nil, dev, newSched(), reqs(), opts())
				v, err := array.NewVolume(array.VolumeConfig{Level: array.VolStripe, Members: 1,
					StripeUnit: capacity, PerMember: capacity})
				if err != nil {
					t.Fatal(err)
				}
				vol, err := RunVolume(nil, VolumeSpec{Volume: v, Devices: []core.Device{dev},
					Scheds: []core.Scheduler{newSched()}}, reqs(), opts())
				if err != nil {
					t.Fatal(err)
				}
				if run.MaxQueue < 2 {
					t.Fatal("no request ever queued; the scheduler half exercises nothing")
				}
				if rate > 0 && !tc.noBudget && run.Retries == 0 {
					t.Fatal("injector produced no retries; the fault half exercises nothing")
				}
				if tc.noBudget && run.FailedRequests == 0 {
					t.Fatal("no request failed; the no-budget half exercises nothing")
				}
				for _, f := range []struct {
					name     string
					run, vol any
				}{
					{"Requests", run.Requests, vol.Requests},
					{"Response", run.Response, vol.Response},
					{"Service", run.Service, vol.Service},
					{"QueueLen", run.QueueLen, vol.QueueLen},
					{"MaxQueue", run.MaxQueue, vol.MaxQueue},
					{"Busy", run.Busy, vol.Busy},
					{"Elapsed", run.Elapsed, vol.Elapsed},
					{"Retries", run.Retries, vol.Retries},
					{"Requeues", run.Requeues, vol.Requeues},
					{"RecoveryMs", run.RecoveryMs, vol.RecoveryMs},
					{"FailedRequests", run.FailedRequests, vol.FailedRequests},
					{"DegradedReads", run.DegradedReads, vol.DegradedReads},
					{"LostReads", run.LostReads, vol.LostReads},
				} {
					if !reflect.DeepEqual(f.run, f.vol) {
						t.Errorf("%s: Run %+v, RunVolume %+v", f.name, f.run, f.vol)
					}
				}
			})
		}
	}
}

// memberOpLife follows one member-op request pointer through the probe
// stream: whether it waits in a queue, and until when its latest
// service visit runs.
type memberOpLife struct {
	queued, serving bool
	serviceEnd      float64
}

func TestRunVolumeRecyclesMemberOpsOnlyAfterTheirLeg(t *testing.T) {
	// Member ops are pooled, so one request pointer realizes many member
	// operations over a run. A recycle that comes too early shows in the
	// probe stream as a pointer arriving again while it still waits in a
	// queue or before its service visit ends, or as a dispatch of a
	// pointer that never arrived. A failing-and-rebuilding parity volume
	// under heavy transient faults drives every path that hands ops
	// around: the dead queue's drain, requeues, degraded plans and
	// rebuild chunks.
	spec := volFixtures(t, parityVolCfg(), 1)
	spec.RebuildChunk = 8
	spec.RebuildFrac = 0.2
	life := map[*core.Request]*memberOpLife{}
	arrivals := 0
	probe := probeFunc(func(ev ProbeEvent) {
		if ev.Req == nil || ev.Kind == EventComplete {
			return // failover events, and volume-level completions
		}
		l := life[ev.Req]
		if l == nil {
			l = &memberOpLife{}
			life[ev.Req] = l
		}
		switch ev.Kind {
		case EventArrive:
			arrivals++
			if l.queued {
				t.Errorf("%p arrived at %g while still queued", ev.Req, ev.Time)
			}
			if l.serving && ev.Time < l.serviceEnd {
				t.Errorf("%p arrived at %g while in service until %g", ev.Req, ev.Time, l.serviceEnd)
			}
			l.queued, l.serving = true, false
		case EventDispatch:
			if !l.queued {
				t.Errorf("%p dispatched at %g without an arrive or requeue", ev.Req, ev.Time)
			}
			l.queued, l.serving = false, true
		case EventService:
			if !l.serving {
				t.Errorf("%p serviced at %g while not dispatched", ev.Req, ev.Time)
			}
			l.serviceEnd = ev.Time
		case EventRequeue:
			if !l.serving || ev.Time != l.serviceEnd {
				t.Errorf("%p requeued at %g, not at the end of a visit (%g)", ev.Req, ev.Time, l.serviceEnd)
			}
			l.queued, l.serving = true, false
		}
	})
	const n = 600
	reqs := make([]*core.Request, n)
	for i := range reqs {
		op := core.Read
		if i%3 == 0 {
			op = core.Write
		}
		reqs[i] = &core.Request{Arrival: float64(i) * 2, Op: op, LBN: int64(i*37) % 120, Blocks: 1 + i%9}
	}
	inj := mustInjector(t, fault.InjectorConfig{TransientRate: 0.3, MaxRetries: 1, MaxRequeues: 3,
		FallbackPenaltyMs: 0.5, Seed: 9, DeviceEvents: []fault.DeviceEvent{{AtMs: 200, Dev: 1}}})
	res, err := RunVolume(nil, spec, workload.NewFromSlice(reqs), Options{Probe: probe, Injector: inj})
	if err != nil {
		t.Fatal(err)
	}
	vs := res.Volume
	if res.Requeues == 0 || vs.DeviceFailures != 1 || vs.RebuildChunks == 0 || vs.DegradedReads == 0 {
		t.Fatalf("run missed a path: requeues %d, failures %d, rebuild chunks %d, degraded reads %d",
			res.Requeues, vs.DeviceFailures, vs.RebuildChunks, vs.DegradedReads)
	}
	if len(life) >= arrivals/2 {
		t.Errorf("%d member-op pointers for %d arrivals: ops are not being recycled", len(life), arrivals)
	}
}

func TestRunVolumeAllocsPerRequest(t *testing.T) {
	// Volume intents and member ops are pooled, plans reuse their
	// storage, the source carves its requests from slabs and takes each
	// back when it completes, and the exact response samples fill
	// blocks, so a volume run allocates per run, not per request: 78
	// objects for 20k requests healthy (0.0039 per request) and 121 with
	// a failure, rebuild and retries (0.0061), most of them pools growing
	// to the run's peak concurrency. The budget is the larger measured
	// value plus a fifth, 145 per run.
	if raceBuild {
		t.Skip("allocation budgets are checked in the normal build; this run is slow under -race")
	}
	const n, budget = 20000, 0.00726
	for _, fail := range []bool{false, true} {
		spec, opts := volumeRebuildFixture(t, n, fail)
		var res Result
		allocs := testing.AllocsPerRun(2, func() {
			var err error
			if res, err = RunVolume(nil, spec, volumeRebuildSource(n), opts); err != nil {
				t.Fatal(err)
			}
		})
		if fail && (res.Volume.DeviceFailures != 1 || res.Volume.RebuildChunks == 0 || res.Retries == 0) {
			t.Fatalf("failing run missed its failure, rebuild or retries: %+v", res.Volume)
		}
		if perReq := allocs / n; perReq > budget {
			t.Errorf("fail=%v: %.5f allocations per request (%.0f per run), budget %g", fail, perReq, allocs, budget)
		}
	}
}

// rogueSched is an FCFS scheduler double that breaks its contract on
// one dispatch: with copyPick it returns a copy of its pick, a request
// it was never given that carries the real op's Ref; otherwise it
// returns its previous pick again, an op it already dispatched.
type rogueSched struct {
	*sched.FCFS
	at, n    int
	copyPick bool
	last     *core.Request
}

func (s *rogueSched) Next(d core.Device, now float64) *core.Request {
	r := s.FCFS.Next(d, now)
	if s.n++; s.n == s.at {
		if s.copyPick {
			c := *r
			return &c
		}
		return s.last
	}
	s.last = r
	return r
}

func TestRunVolumePanicsOnForeignPick(t *testing.T) {
	// A pick that does not lead back to an op queued on its device is a
	// scheduler bug; RunVolume must stop loudly, naming the device,
	// rather than serve a request it cannot account for. Mirror writes
	// put one op on each member; member 1's scheduler misbehaves.
	for _, tc := range []struct {
		name string
		s    *rogueSched
	}{
		// The first dispatch returns a copy of the queued op's request.
		{"never given", &rogueSched{FCFS: sched.NewFCFS(), at: 1, copyPick: true}},
		// The first op has completed and gone back to the pool when
		// the empty queue's second Next returns it again.
		{"already dispatched", &rogueSched{FCFS: sched.NewFCFS(), at: 2}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			spec := volFixtures(t, mirrorVolCfg(), 1)
			spec.Scheds[1] = tc.s
			src := workload.NewFromSlice(volReqs([]float64{0, 10}, core.Write, []int64{0, 8}))
			const want = "sim: device 1 scheduler dispatched a request not queued on it"
			defer func() {
				if got := fmt.Sprint(recover()); got != want {
					t.Errorf("panic = %q, want %q", got, want)
				}
			}()
			RunVolume(nil, spec, src, Options{})
		})
	}
}
