package sim

import (
	"fmt"
	"io"
	"math"
	"strconv"
	"testing"

	"memsim/internal/array"
	"memsim/internal/core"
	"memsim/internal/disk"
	"memsim/internal/fault"
	"memsim/internal/mems"
	"memsim/internal/sched"
	"memsim/internal/workload"
)

// benchRequests builds a deterministic random request slice against dev.
func benchRequests(dev core.Device, n int) []*core.Request {
	src := workload.DefaultRandom(1000, dev.SectorSize(), dev.Capacity(), n, 1)
	return workload.Slice(src)
}

// BenchmarkMEMSAccess times the MEMS device's Access hot path — sled
// seek, settle attribution and per-segment transfer — which every
// simulated request pays at least once.
func BenchmarkMEMSAccess(b *testing.B) {
	d := mems.MustDevice(mems.DefaultConfig())
	reqs := benchRequests(d, 4096)
	now := 0.0
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		now += d.Access(reqs[i%len(reqs)], now)
	}
}

// BenchmarkDiskAccess times the disk model's Access hot path: seek
// curve, rotational position and zoned transfer.
func BenchmarkDiskAccess(b *testing.B) {
	d := disk.MustDevice(disk.Atlas10K())
	reqs := benchRequests(d, 4096)
	now := 0.0
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		now += d.Access(reqs[i%len(reqs)], now)
	}
}

// estimateSink keeps the estimate benches' results live.
var estimateSink float64

// estimateStates is the pricing benches' setup: 64 devices, each moved
// by one Access, the time its Access completes, and the requests to
// price. The timed loops hold neither Access nor timer toggles.
func estimateStates(newDev func() core.Device) (devs []core.Device, nows []float64, reqs []*core.Request) {
	const states = 64
	devs = make([]core.Device, states)
	nows = make([]float64, states)
	for i := range devs {
		devs[i] = newDev()
		if reqs == nil {
			reqs = benchRequests(devs[i], 4096)
		}
		nows[i] = devs[i].Access(reqs[len(reqs)-1-i], 0)
	}
	return devs, nows, reqs
}

// benchDepth is the candidates one pricing-bench op prices.
const benchDepth = 8

// benchEstimate times the cost-model side of one SPTF dispatch: each op
// prices 8 queued candidates with price from one of estimateStates'
// device states, each priced at the completion time of its Access.
func benchEstimate(b *testing.B, newDev func() core.Device, price core.CostModel) {
	devs, nows, reqs := estimateStates(newDev)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d, now := devs[i%len(devs)], nows[i%len(devs)]
		for _, r := range reqs[(i*benchDepth)%len(reqs):][:benchDepth] {
			estimateSink += price(d, r, now)
		}
	}
}

// BenchmarkMEMSEstimate is SPTF's per-dispatch pricing on the MEMS
// device; an op is 8 EstimateAccess calls.
func BenchmarkMEMSEstimate(b *testing.B) {
	benchEstimate(b, func() core.Device { return mems.MustDevice(mems.DefaultConfig()) }, core.AccessCost)
}

// BenchmarkMEMSLowerBound is the MEMS device's cheap side of a pruned
// SPTF dispatch; an op is 8 LowerBound calls on the same candidates
// BenchmarkMEMSEstimate prices in full. Their keys are made before the
// timer starts, as SPTF makes each queued request's key once.
func BenchmarkMEMSLowerBound(b *testing.B) {
	devs, nows, reqs := estimateStates(func() core.Device { return mems.MustDevice(mems.DefaultConfig()) })
	lbs := make([]core.LowerBounder, len(devs))
	for i, d := range devs {
		lbs[i] = d.(core.LowerBounder)
	}
	keys := make([]core.BoundKey, len(reqs))
	for i, r := range reqs {
		keys[i] = lbs[0].BoundKey(r)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		lb, now := lbs[i%len(lbs)], nows[i%len(lbs)]
		ks := keys[(i*benchDepth)%len(keys):][:benchDepth]
		for j := range ks {
			estimateSink += lb.LowerBound(&ks[j], now)
		}
	}
}

// BenchmarkDiskEstimate is SPTF's per-dispatch pricing on the disk
// model; an op is 8 EstimateAccess calls.
func BenchmarkDiskEstimate(b *testing.B) {
	benchEstimate(b, func() core.Device { return disk.MustDevice(disk.Atlas10K()) }, core.AccessCost)
}

// discardProbe is the cheapest possible observer; it isolates the
// event-emission overhead from any probe-side work.
type discardProbe struct{}

func (discardProbe) Observe(ProbeEvent) {}

// benchRun drives one open-arrival run per iteration; the probe
// variants quantify the instrumentation's cost against the nil-probe
// baseline the byte-identity test guards.
func benchRun(b *testing.B, p Probe) {
	d := mems.MustDevice(mems.DefaultConfig())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		src := workload.DefaultRandom(1100, 512, d.Capacity(), 2000, 1)
		Run(nil, d, sched.NewSPTF(), src, Options{Warmup: 100, Probe: p})
	}
}

func BenchmarkRunNilProbe(b *testing.B)   { benchRun(b, nil) }
func BenchmarkRunDiscard(b *testing.B)    { benchRun(b, discardProbe{}) }
func BenchmarkRunPhaseStats(b *testing.B) { benchRun(b, NewPhaseCollector()) }

// BenchmarkPhaseCollector isolates the probe-side aggregation path —
// PhaseStats.add through Observe — from the simulation driving it, in
// both percentile backends. The exact row resets its collector before
// the distributions reach exactLimit, so it never migrates; the sketch
// row pre-fills exactLimit observations, so every timed one lands in
// the sketch. Run with -benchmem: the exact backend's bytes/op is
// dominated by retained-sample growth, the sketch's by nothing (its
// buckets saturate immediately).
func BenchmarkPhaseCollector(b *testing.B) {
	ev := ProbeEvent{Kind: EventComplete, Measured: true, Req: &core.Request{
		Phases: core.Breakdown{Seek: 0.4, Settle: 0.2, Transfer: 0.1, ServiceMs: 0.7},
	}}
	b.Run("exact", func(b *testing.B) {
		c := NewPhaseCollector()
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if i%(exactLimit-1) == 0 {
				c.ResetProbe()
			}
			c.Observe(ev)
		}
	})
	b.Run("sketch", func(b *testing.B) {
		c := NewPhaseCollector()
		for i := 0; i < exactLimit; i++ {
			c.Observe(ev)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			c.Observe(ev)
		}
	})
}

// BenchmarkJSONLObserve times one JSONLProbe.Observe over the event mix
// a plain open run emits (arrive, dispatch, service, complete for each
// request, under a runner-style run label), writing to io.Discard, so
// it measures encoding and buffering alone.
func BenchmarkJSONLObserve(b *testing.B) {
	var mix []ProbeEvent
	for _, ev := range jsonlEvents() {
		switch ev.Kind {
		case EventArrive, EventDispatch, EventService, EventComplete:
			mix = append(mix, ev)
		}
	}
	jp := NewJSONLProbe(io.Discard)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		jp.Observe(mix[i%len(mix)])
	}
	if err := jp.Flush(); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkJSONLObserveRun times one JSONLProbe.Observe over the event
// stream of a real run (openRunEvents), replayed in order into
// io.Discard. Unlike BenchmarkJSONLObserve's four fixed events, its
// floats recur only as often as they do in a trace, so the float memo
// is measured at its real hit rate.
func BenchmarkJSONLObserveRun(b *testing.B) {
	events := openRunEvents()
	jp := NewJSONLProbe(io.Discard)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		jp.Observe(events[i%len(events)])
	}
	if err := jp.Flush(); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkJSONFloat times the trace's float writer alone, on the
// distinct float fields of an open run's records (openRunEvents) in
// stream order, which are the values the probe's float memo misses on.
// The strconv row writes the same bytes the way encoding/json does
// (strconvJSONFloat), as the reference.
func BenchmarkJSONFloat(b *testing.B) {
	var mix []float64
	seen := map[uint64]bool{}
	for _, ev := range openRunEvents() {
		fs := []float64{ev.Time}
		if ev.Req != nil {
			fs = append(fs, ev.Req.Arrival)
		}
		switch ev.Kind {
		case EventService:
			bd := ev.Breakdown
			fs = append(fs, bd.Seek, bd.Settle, bd.Turnaround, bd.Transfer, bd.Overhead, bd.Recovery, bd.ServiceMs)
		case EventComplete:
			fs = append(fs, ev.Req.ResponseTime(), ev.Req.Phases.ServiceMs)
		}
		for _, f := range fs {
			if !seen[math.Float64bits(f)] {
				seen[math.Float64bits(f)] = true
				mix = append(mix, f)
			}
		}
	}
	for _, w := range []struct {
		name  string
		write func([]byte, float64) []byte
	}{{"schubfach", appendJSONFloat}, {"strconv", strconvJSONFloat}} {
		b.Run(w.name, func(b *testing.B) {
			buf := make([]byte, 0, 32)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				buf = w.write(buf[:0], mix[i%len(mix)])
			}
		})
	}
}

// strconvJSONFloat is encoding/json's own float64 encoding: strconv's
// shortest 'f' form, or its 'e' form for 0 < |f| < 1e-6 and |f| ≥ 1e21
// with a two-digit negative exponent trimmed (e-07 → e-7).
func strconvJSONFloat(b []byte, f float64) []byte {
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	b = strconv.AppendFloat(b, f, format, -1, 64)
	if format == 'e' {
		if n := len(b); b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
			b[n-2] = b[n-1]
			b = b[:n-1]
		}
	}
	return b
}

// captureProbe keeps every event it observes, each with a copy of its
// request as it stood when the event fired.
type captureProbe struct{ events []ProbeEvent }

func (c *captureProbe) Observe(ev ProbeEvent) {
	if ev.Req != nil {
		r := *ev.Req
		ev.Req = &r
	}
	c.events = append(c.events, ev)
}

// openRunEvents is the event stream of a 20k-request open SPTF run on
// the MEMS G1 device at 1100 req/s, the shape of memsperf's
// open-observed workload.
func openRunEvents() []ProbeEvent {
	d := mems.MustDevice(mems.DefaultConfig())
	c := &captureProbe{}
	Run(nil, d, sched.NewSPTF(), workload.DefaultRandom(1100, 512, d.Capacity(), 20000, 1), Options{Probe: c})
	return c.events
}

// BenchmarkEngineMillion is the harness's end-to-end scale probe: one
// full high-volume run per iteration in each regime (the volume row is
// the multi-device one), with a PhaseCollector attached (run with -benchtime=1x; -short drops the
// request count tenfold, which also changes the subbench name so
// cross-scale numbers are never compared). At 1M requests the
// collector's distributions cross exactLimit about halfway through and
// finish in the sketch; the -short rows stay exact. The two
// fcfs-saturated rows run FCFS past saturation, where the queue grows
// to tens of thousands, so per-dispatch bookkeeping that grows with
// depth shows; their size is fixed at satRequests under -short too.
func BenchmarkEngineMillion(b *testing.B) {
	n := 1000000
	if testing.Short() {
		n = 100000
	}
	b.Run(fmtScale("open", n), func(b *testing.B) {
		d := mems.MustDevice(mems.DefaultConfig())
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			src := workload.DefaultRandom(1100, 512, d.Capacity(), n, 1)
			Run(nil, d, sched.NewSPTF(), src,
				Options{Warmup: n / 100, Probe: NewPhaseCollector()})
		}
	})
	b.Run(fmtScale("open-jsonl", n), func(b *testing.B) {
		// The open row observed as memsbench -trace observes it: a
		// JSONL lifecycle trace beside the PhaseCollector, here written
		// to io.Discard, so the row's excess over open is the trace's
		// encoding and buffering.
		d := mems.MustDevice(mems.DefaultConfig())
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			src := workload.DefaultRandom(1100, 512, d.Capacity(), n, 1)
			jp := NewJSONLProbe(io.Discard)
			Run(nil, d, sched.NewSPTF(), src,
				Options{Warmup: n / 100, Probe: MultiProbe{NewPhaseCollector(), jp}})
			if err := jp.Flush(); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run(fmtScale("closed", n), func(b *testing.B) {
		d := mems.MustDevice(mems.DefaultConfig())
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			src := workload.DefaultRandom(1100, 512, d.Capacity(), n, 1)
			RunClosed(nil, d, src,
				Options{Warmup: n / 100, Probe: NewPhaseCollector()})
		}
	})
	b.Run(fmtScale("volume", n), func(b *testing.B) {
		spec, opts := volumeRebuildFixture(b, n, true)
		opts.Warmup, opts.Probe = n/100, NewPhaseCollector()
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := RunVolume(nil, spec, volumeRebuildSource(n), opts); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run(fmtScale("open-fcfs-saturated", satRequests), func(b *testing.B) {
		d := mems.MustDevice(mems.DefaultConfig())
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			Run(nil, d, sched.NewFCFS(), saturatedSource(d),
				Options{Warmup: satRequests / 100, Probe: NewPhaseCollector()})
		}
	})
	b.Run(fmtScale("volume-fcfs-saturated", satRequests), func(b *testing.B) {
		// A one-member stripe whose strip is the whole device: the same
		// queueing system as the open row, through the volume path.
		d := mems.MustDevice(mems.DefaultConfig())
		v, err := array.NewVolume(array.VolumeConfig{Level: array.VolStripe, Members: 1,
			StripeUnit: d.Capacity(), PerMember: d.Capacity()})
		if err != nil {
			b.Fatal(err)
		}
		spec := VolumeSpec{Volume: v, Devices: []core.Device{d}, Scheds: []core.Scheduler{sched.NewFCFS()}}
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := RunVolume(nil, spec, saturatedSource(d),
				Options{Warmup: satRequests / 100, Probe: NewPhaseCollector()}); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// satRequests is the size of the fcfs-saturated rows.
const satRequests = 200_000

// saturatedSource is the fcfs-saturated rows' arrival stream: random
// 4 KB-mean requests over d at 1500 req/s, past the MEMS G1 device's
// FCFS saturation rate (fig6), so the queue grows for the whole run.
func saturatedSource(d core.Device) workload.Source {
	return workload.DefaultRandom(1500, d.SectorSize(), d.Capacity(), satRequests, 7)
}

// The shape of memsperf's volume-rebuild workload: a 4+1
// rotated-parity volume of MEMS G1 members with one-cylinder stripe
// units and SPTF queues, at 1000 volume requests/s, where 1% of access
// attempts hit a transient error and, when failing, member slot 1 dies
// a quarter of the way through the arrival stream and is rebuilt at a
// fixed 0.3 throttle.
const (
	volBenchRate      = 1000
	volBenchChunk     = 2700
	volBenchPerMember = 6_750_000
)

// volumeRebuildFixture builds the volume-rebuild spec and options for
// an n-request stream; fail schedules the mid-run member failure.
func volumeRebuildFixture(tb testing.TB, n int, fail bool) (VolumeSpec, Options) {
	tb.Helper()
	v, err := array.NewVolume(array.VolumeConfig{Level: array.VolParity, Members: 4, Spares: 1,
		StripeUnit: volBenchChunk, PerMember: volBenchPerMember})
	if err != nil {
		tb.Fatal(err)
	}
	spec := VolumeSpec{Volume: v, RebuildChunk: volBenchChunk, RebuildFrac: 0.3}
	for range v.Config().Devices() {
		spec.Devices = append(spec.Devices, mems.MustDevice(mems.DefaultConfig()))
		spec.Scheds = append(spec.Scheds, sched.NewSPTF())
	}
	cfg := fault.DefaultInjectorConfig()
	cfg.TransientRate, cfg.Seed = 0.01, 1
	if fail {
		cfg.DeviceEvents = []fault.DeviceEvent{{AtMs: 0.25 * float64(n) / volBenchRate * 1000, Dev: 1}}
	}
	inj, err := fault.NewInjector(cfg)
	if err != nil {
		tb.Fatal(err)
	}
	return spec, Options{Injector: inj}
}

// volumeRebuildSource is the volume-rebuild arrival stream: n random
// requests of 4 KB mean size over the fixture volume's capacity.
func volumeRebuildSource(n int) workload.Source {
	return workload.NewRandom(workload.RandomConfig{
		Rate: volBenchRate, ReadFraction: 0.67, MeanBytes: 4096, MaxBytes: 32 * 1024,
		SectorSize: 512, Capacity: 3 * volBenchPerMember, Count: n, Seed: 1,
	})
}

func fmtScale(regime string, n int) string {
	return fmt.Sprintf("%s/n=%d", regime, n)
}
