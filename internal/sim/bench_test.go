package sim

import (
	"fmt"
	"io"
	"testing"

	"memsim/internal/core"
	"memsim/internal/disk"
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

// benchEstimate times the cost-model side of one SPTF dispatch: each op
// prices 8 queued candidates with price from one device state.
// The states come from 64 devices, each moved by one Access before the
// timer starts, so the timed loop holds neither Access nor timer
// toggles; each device is priced at the completion time of its Access.
func benchEstimate(b *testing.B, newDev func() core.Device, price core.CostModel) {
	const states, depth = 64, 8
	devs := make([]core.Device, states)
	nows := make([]float64, states)
	var reqs []*core.Request
	for i := range devs {
		devs[i] = newDev()
		if reqs == nil {
			reqs = benchRequests(devs[i], 4096)
		}
		nows[i] = devs[i].Access(reqs[len(reqs)-1-i], 0)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d, now := devs[i%states], nows[i%states]
		for _, r := range reqs[(i*depth)%len(reqs):][:depth] {
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
// SPTF dispatch; an op is 8 AccessLowerBound calls on the same
// candidates BenchmarkMEMSEstimate prices in full.
func BenchmarkMEMSLowerBound(b *testing.B) {
	benchEstimate(b, func() core.Device { return mems.MustDevice(mems.DefaultConfig()) }, core.AccessCostBound)
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
// both percentile backends. Run with -benchmem: the exact backend's
// bytes/op is dominated by retained-sample growth, the sketch's by
// nothing (its buckets saturate immediately).
func BenchmarkPhaseCollector(b *testing.B) {
	ev := ProbeEvent{Kind: EventComplete, Measured: true, Req: &core.Request{
		Phases: core.Breakdown{Seek: 0.4, Settle: 0.2, Transfer: 0.1, ServiceMs: 0.7},
	}}
	for _, mode := range []string{"exact", "sketch"} {
		b.Run(mode, func(b *testing.B) {
			c := NewPhaseCollector()
			if mode == "sketch" {
				c.UseSketch()
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				c.Observe(ev)
			}
		})
	}
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

// BenchmarkEngineMillion is the harness's end-to-end scale probe: one
// full high-volume run per iteration in each regime, sketch-backed so
// stats memory stays O(1) (run with -benchtime=1x; -short drops the
// request count tenfold, which also changes the subbench name so
// cross-scale numbers are never compared).
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
			Run(&Context{Sketch: true}, d, sched.NewSPTF(), src,
				Options{Warmup: n / 100, Probe: NewPhaseCollector()})
		}
	})
	b.Run(fmtScale("closed", n), func(b *testing.B) {
		d := mems.MustDevice(mems.DefaultConfig())
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			src := workload.DefaultRandom(1100, 512, d.Capacity(), n, 1)
			RunClosed(&Context{Sketch: true}, d, src,
				Options{Warmup: n / 100, Probe: NewPhaseCollector()})
		}
	})
	b.Run(fmtScale("multi", n), func(b *testing.B) {
		const members = 4
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			devs := make([]core.Device, members)
			scheds := make([]core.Scheduler, members)
			for j := range devs {
				devs[j] = mems.MustDevice(mems.DefaultConfig())
				scheds[j] = sched.NewSPTF()
			}
			perDev := devs[0].Capacity()
			src := workload.DefaultRandom(1100, 512, perDev*members, n, 1)
			if _, err := RunMulti(&Context{Sketch: true}, devs, scheds, ConcatRouter(perDev), src,
				Options{Warmup: n / 100, Probe: NewPhaseCollector()}); err != nil {
				b.Fatal(err)
			}
		}
	})
}

func fmtScale(regime string, n int) string {
	return fmt.Sprintf("%s/n=%d", regime, n)
}
