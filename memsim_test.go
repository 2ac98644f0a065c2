package memsim

import (
	"bytes"
	"strings"
	"testing"
)

func TestFacadeEndToEnd(t *testing.T) {
	dev, err := NewMEMSDevice(DefaultMEMSConfig())
	if err != nil {
		t.Fatal(err)
	}
	s, err := NewScheduler("SPTF")
	if err != nil {
		t.Fatal(err)
	}
	src := NewRandomWorkload(800, dev.SectorSize(), dev.Capacity(), 2000, 42)
	res := Simulate(dev, s, src, SimOptions{Warmup: 200})
	if res.Requests != 1800 {
		t.Fatalf("measured %d requests", res.Requests)
	}
	if m := res.Response.Mean(); m <= 0 || m > 10 {
		t.Errorf("mean response = %g ms", m)
	}
	if !strings.Contains(res.String(), "mean-response") {
		t.Error("result string malformed")
	}
}

func TestFacadeDisk(t *testing.T) {
	dev, err := NewDiskDevice(Atlas10KConfig())
	if err != nil {
		t.Fatal(err)
	}
	s, err := NewScheduler("C-LOOK")
	if err != nil {
		t.Fatal(err)
	}
	src := NewRandomWorkload(50, dev.SectorSize(), dev.Capacity(), 500, 1)
	res := Simulate(dev, s, src, SimOptions{})
	if res.Requests != 500 {
		t.Fatalf("measured %d requests", res.Requests)
	}
}

func TestFacadeTraces(t *testing.T) {
	dev, _ := NewMEMSDevice(DefaultMEMSConfig())
	for _, tr := range []*Trace{
		GenerateCelloTrace(dev.Capacity(), 500),
		GenerateTPCCTrace(dev.Capacity(), 500),
	} {
		if tr.Len() != 500 {
			t.Fatalf("%s: %d records", tr.Name, tr.Len())
		}
		s, _ := NewScheduler("FCFS")
		res := Simulate(dev, s, TraceSource(tr), SimOptions{})
		if res.Requests != 500 {
			t.Fatalf("%s: completed %d", tr.Name, res.Requests)
		}
	}
}

func TestFacadePower(t *testing.T) {
	dev, _ := NewMEMSDevice(DefaultMEMSConfig())
	m := NewPowerManaged(dev, MEMSPowerModel(), ImmediateIdle())
	s, _ := NewScheduler("FCFS")
	src := NewRandomWorkload(20, dev.SectorSize(), dev.Capacity(), 300, 3)
	res := Simulate(m, s, src, SimOptions{})
	m.FinishAt(res.Elapsed)
	rep := m.Report()
	if rep.TotalJ() <= 0 || rep.Restarts == 0 {
		t.Errorf("power report: %+v", rep)
	}
	if MobileDiskPowerModel().RestartMs <= MEMSPowerModel().RestartMs {
		t.Error("disk restart should dwarf MEMS restart")
	}
	if AlwaysOn().TimeoutMs <= ImmediateIdle().TimeoutMs {
		t.Error("policy constructors inverted")
	}
}

func TestFacadeExperiments(t *testing.T) {
	ids := ExperimentIDs()
	if len(ids) != 26 {
		t.Fatalf("experiment IDs: %v", ids)
	}
	tables, err := RunExperiment("table1", QuickExperimentParams())
	if err != nil {
		t.Fatal(err)
	}
	if len(tables) == 0 {
		t.Fatal("no tables")
	}
	if _, err := RunExperiment("nope", QuickExperimentParams()); err == nil {
		t.Error("expected error for unknown experiment")
	}
	if DefaultExperimentParams().Requests <= QuickExperimentParams().Requests {
		t.Error("default params should exceed quick params")
	}
}

func TestFacadeSchedulerNames(t *testing.T) {
	names := SchedulerNames()
	if len(names) != 4 {
		t.Fatalf("names = %v", names)
	}
	for _, n := range names {
		if _, err := NewScheduler(n); err != nil {
			t.Errorf("NewScheduler(%q): %v", n, err)
		}
	}
}

func TestFacadeManagedDeviceAndClosedSim(t *testing.T) {
	dev, _ := NewMEMSDevice(DefaultMEMSConfig())
	md := NewManagedDevice(dev, nil)
	reqs := []*Request{
		{Op: Read, LBN: 0, Blocks: 8},
		{Op: Write, LBN: 5000, Blocks: 8},
	}
	res := SimulateClosed(md, RequestsSource(reqs), SimOptions{})
	if res.Requests != 2 {
		t.Fatalf("completed %d", res.Requests)
	}
}

func TestFacadeArrayAndCache(t *testing.T) {
	devs := make([]Device, 4)
	scheds := make([]Scheduler, 4)
	for i := range devs {
		d, err := NewMEMSDevice(DefaultMEMSConfig())
		if err != nil {
			t.Fatal(err)
		}
		devs[i] = d
		if scheds[i], err = NewScheduler("FCFS"); err != nil {
			t.Fatal(err)
		}
	}
	per := devs[0].Capacity() / 8 * 8
	v, err := NewVolume(VolumeConfig{Level: VolumeParity, Members: 4, StripeUnit: 8, PerMember: per})
	if err != nil {
		t.Fatal(err)
	}
	if v.Capacity() != 3*per {
		t.Errorf("parity volume capacity = %d, want %d", v.Capacity(), 3*per)
	}
	// One small write: read-modify-write on the data and parity members.
	res, err := SimulateVolume(VolumeSpec{Volume: v, Devices: devs, Scheds: scheds},
		RequestsSource([]*Request{{Op: Write, LBN: 0, Blocks: 8}}), SimOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Requests != 1 || res.Response.Mean() <= 0 {
		t.Errorf("volume write: %d completions, mean response %g", res.Requests, res.Response.Mean())
	}
	ops := 0
	for _, m := range res.Members {
		ops += m.Requests
	}
	if ops != 4 {
		t.Errorf("small write issued %d member ops, want 4 (read+write on data and parity)", ops)
	}

	inner, _ := NewMEMSDevice(DefaultMEMSConfig())
	c := NewCachedDevice(inner, DefaultCacheConfig())
	c.Access(&Request{Op: Read, LBN: 0, Blocks: 8}, 0)
	c.Access(&Request{Op: Read, LBN: 8, Blocks: 8}, 0)
	if c.Hits() == 0 {
		t.Error("read-ahead should produce a hit")
	}
}

func TestFacadeExtensions(t *testing.T) {
	s := NewAgedSPTF(0.05)
	if s.Name() != "ASPTF(0.05)" {
		t.Errorf("name = %q", s.Name())
	}
	g2, g3 := MEMSConfigGen2(), MEMSConfigGen3()
	d2, err := NewMEMSDevice(g2)
	if err != nil {
		t.Fatal(err)
	}
	d3, err := NewMEMSDevice(g3)
	if err != nil {
		t.Fatal(err)
	}
	if d3.Capacity() <= d2.Capacity() {
		t.Error("generations should grow capacity")
	}
	inner, _ := NewMEMSDevice(DefaultMEMSConfig())
	sr := NewSlipRemapDevice(inner)
	sr.Remap(0, inner.Capacity()-1)
	if sr.Remapped() != 1 {
		t.Error("remap table")
	}
}

func TestFacadeSimulateMulti(t *testing.T) {
	devs := make([]Device, 2)
	scheds := make([]Scheduler, 2)
	for i := range devs {
		d, err := NewMEMSDevice(DefaultMEMSConfig())
		if err != nil {
			t.Fatal(err)
		}
		devs[i] = d
		scheds[i], err = NewScheduler("SPTF")
		if err != nil {
			t.Fatal(err)
		}
	}
	per := devs[0].Capacity()
	src := NewRandomWorkload(1000, 512, 2*per, 800, 6)
	res, err := SimulateMulti(devs, scheds, ConcatRouter(per), src, SimOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Requests != 800 {
		t.Fatalf("completed %d", res.Requests)
	}
	if StripeRouter(8, 2) == nil {
		t.Fatal("nil router")
	}
}

func TestFacadeProbe(t *testing.T) {
	dev, err := NewMEMSDevice(DefaultMEMSConfig())
	if err != nil {
		t.Fatal(err)
	}
	s, _ := NewScheduler("SPTF")
	var buf bytes.Buffer
	pc := NewPhaseCollector()
	src := NewRandomWorkload(900, dev.SectorSize(), dev.Capacity(), 500, 9)
	res := Simulate(dev, s, src, SimOptions{
		Warmup: 50,
		Probe:  MultiProbe{pc, WithRun(NewJSONLProbe(&buf), "facade")},
	})
	if res.Phases == nil || res.Phases.Requests != res.Requests {
		t.Fatalf("Phases = %+v, requests %d", res.Phases, res.Requests)
	}
	if res.Phases.Positioning.Mean() <= 0 || res.Phases.Positioning.P99() < res.Phases.Positioning.P95() {
		t.Errorf("positioning stats: mean=%g p95=%g p99=%g",
			res.Phases.Positioning.Mean(), res.Phases.Positioning.P95(), res.Phases.Positioning.P99())
	}
	if buf.Len() == 0 {
		t.Error("JSONL probe wrote nothing")
	}
	var bd Breakdown
	if _, ok := Device(dev).(BreakdownReporter); !ok {
		t.Error("MEMS device does not report breakdowns through the facade")
	} else if bd, _ = dev.LastBreakdown(); bd.ServiceMs <= 0 {
		t.Errorf("last breakdown = %+v", bd)
	}
	if EventComplete.String() != "complete" {
		t.Errorf("EventComplete = %q", EventComplete.String())
	}
}

func TestFacadeSimulateVolume(t *testing.T) {
	cfg := VolumeConfig{
		Level: VolumeMirror, Members: 2, Spares: 1,
		StripeUnit: 2700, PerMember: 2700 * 10,
	}
	v, err := NewVolume(cfg)
	if err != nil {
		t.Fatal(err)
	}
	n := cfg.Devices()
	devs := make([]Device, n)
	scheds := make([]Scheduler, n)
	for i := range devs {
		d, err := NewMEMSDevice(DefaultMEMSConfig())
		if err != nil {
			t.Fatal(err)
		}
		devs[i] = d
		scheds[i], err = NewScheduler("SPTF")
		if err != nil {
			t.Fatal(err)
		}
	}
	inj, err := NewFaultInjector(FaultInjectorConfig{
		DeviceEvents: []DeviceFailureEvent{{AtMs: 50, Dev: 0}},
	})
	if err != nil {
		t.Fatal(err)
	}
	src := NewRandomWorkload(500, 512, v.Capacity(), 400, 11)
	res, err := SimulateVolume(VolumeSpec{Volume: v, Devices: devs, Scheds: scheds, RebuildFrac: 0.5},
		src, SimOptions{Injector: inj})
	if err != nil {
		t.Fatal(err)
	}
	if res.Requests+res.FailedRequests != 400 {
		t.Fatalf("completions %d + failures %d ≠ 400", res.Requests, res.FailedRequests)
	}
	if res.Volume == nil || res.Volume.DeviceFailures != 1 || res.Volume.RebuildsDone != 1 {
		t.Fatalf("failover metrics missing: %+v", res.Volume)
	}
	if res.DataLoss {
		t.Fatal("mirror failover reported data loss")
	}
	if len(res.Members) != n {
		t.Fatalf("member attribution for %d slots, want %d", len(res.Members), n)
	}
}

func TestFacadeAvailability(t *testing.T) {
	// The availability exports compose: an adaptive rebuild policy paces
	// a volume whose failure is drawn from the lifetime model, and the
	// Monte-Carlo primitive estimates MTTDL deterministically.
	cfg := VolumeConfig{
		Level: VolumeMirror, Members: 2, Spares: 1,
		StripeUnit: 2700, PerMember: 2700 * 10,
	}
	v, err := NewVolume(cfg)
	if err != nil {
		t.Fatal(err)
	}
	n := cfg.Devices()
	devs := make([]Device, n)
	scheds := make([]Scheduler, n)
	for i := range devs {
		d, err := NewMEMSDevice(DefaultMEMSConfig())
		if err != nil {
			t.Fatal(err)
		}
		devs[i] = d
		scheds[i], err = NewScheduler("SPTF")
		if err != nil {
			t.Fatal(err)
		}
	}
	inj, err := NewFaultInjector(FaultInjectorConfig{
		Lifetime: &DeviceLifetimeModel{MTTFMs: 400, Slots: cfg.Members, HorizonMs: 800, Seed: 4},
	})
	if err != nil {
		t.Fatal(err)
	}
	src := NewRandomWorkload(500, 512, v.Capacity(), 400, 11)
	res, err := SimulateVolume(VolumeSpec{Volume: v, Devices: devs, Scheds: scheds, AdaptiveRebuild: true},
		src, SimOptions{Injector: inj})
	if err != nil {
		t.Fatal(err)
	}
	if res.Requests+res.FailedRequests != 400 {
		t.Fatalf("completions %d + failures %d ≠ 400", res.Requests, res.FailedRequests)
	}
	if res.Volume == nil {
		t.Fatal("no volume stats")
	}

	x, lost := TimeToDataLoss(NewLifetimeSampler(1e6, 3), cfg.Members, 1e3, 1<<22)
	y, lost2 := TimeToDataLoss(NewLifetimeSampler(1e6, 3), cfg.Members, 1e3, 1<<22)
	if x != y || lost != lost2 {
		t.Errorf("MTTDL trial not deterministic: (%g,%v) vs (%g,%v)", x, lost, y, lost2)
	}
	if lost && x <= 0 {
		t.Errorf("non-positive loss time %g", x)
	}
}
