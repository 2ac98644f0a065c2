package main

// workloads.go declares the five workloads. Each setup builds one rep's
// fresh inputs — devices, schedulers, request streams, probes — and
// returns the closure that runs it; measure times only that closure.
// A non-nil ledger wraps every layer the engine calls (ledger.go).

import (
	"crypto/sha256"
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"time"

	"memsim/internal/array"
	"memsim/internal/core"
	"memsim/internal/experiments"
	"memsim/internal/fault"
	"memsim/internal/mems"
	"memsim/internal/runner"
	"memsim/internal/sched"
	"memsim/internal/sim"
	"memsim/internal/stats"
	"memsim/internal/trace"
	"memsim/internal/workload"
)

// config is what one rep is built from.
type config struct {
	seed  int64
	n     int // top-level requests per rep (engine workloads)
	smoke bool
}

// outcome is one rep's simulated result. It holds counts, not the
// sim.Result, so a rep's result is garbage once it is fingerprinted and
// the next rep starts from the same live heap.
type outcome struct {
	// units counts the rep's top-level simulated requests, or its runner
	// jobs for artifacts-quick; failed counts those that ended in error.
	units, failed int
	counts        resultCounts    // engine workloads
	sum           *runner.Summary // artifacts-quick
	traceBytes    int64           // JSONL bytes written (open-observed)
	// fingerprint renders every deterministic output of the rep as text
	// lines. It is called once, after the clock stops, and then dropped.
	fingerprint func() []string
}

// resultCounts are the simulated counts of an engine rep that a traced
// run reports per layer.
type resultCounts struct {
	requests, memberOps, retries, requeues, failed int
	rebuildChunks, degradedReads                   int
}

type benchWorkload struct {
	name string
	// why is the one-line reason the workload is in the benchmark.
	why string
	// n and smokeN are the top-level requests per rep in a measured and
	// a smoke run; zero for artifacts-quick, whose size is Quick().
	n, smokeN int
	// minReps is the fewest measured reps of an untraced run.
	minReps int
	setup   func(c config, l *ledger) func() (outcome, error)
	// layers adds the workload's own per-layer metrics after a traced run.
	layers func(c config, l *ledger, traced []repStats, m map[string]float64)
}

func (w benchWorkload) engine() bool { return w.n > 0 }

var workloads = []benchWorkload{
	{
		name:    "open-observed",
		why:     "MEMS G1 + SPTF under the paper's open random workload with PhaseCollector and JSONL tracing attached: observing dominates",
		n:       300_000,
		smokeN:  3_000,
		minReps: 3,
		setup:   openObserved,
	},
	{
		name:    "tpcc-deep",
		why:     "MEMS G1 + SPTF replaying the TPC-C trace scaled x12: deep queues with locality, scheduler-bound",
		n:       500_000,
		smokeN:  5_000,
		minReps: 3,
		setup:   tpccDeep,
	},
	{
		name:    "closed-mems",
		why:     "MEMS G1 back-to-back under RunClosed: no scheduler, isolates device Access and the engine floor",
		n:       3_000_000,
		smokeN:  30_000,
		minReps: 3,
		setup:   closedMems,
	},
	{
		name:    "volume-rebuild",
		why:     "rotated-parity volume losing a member mid-run: parity RMW, fork-join, degraded reads, rebuild and fault retries",
		n:       500_000,
		smokeN:  5_000,
		minReps: 3,
		setup:   volumeRebuild,
		layers:  plannerReplay,
	},
	{
		name:    "artifacts-quick",
		why:     "every memsbench artifact at Quick() size on 2 workers: what users run, incl. the Custom-body regimes",
		minReps: 2,
		setup:   artifactsQuick,
		layers:  artifactLayers,
	},
}

func findWorkload(name string) (benchWorkload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return benchWorkload{}, false
}

func workloadNames() []string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return names
}

// openRate is the random workload's arrival rate, below the roughly
// 1300 req/s at which MEMS G1 saturates (fig. 7). RunClosed ignores
// arrival times, so closed-mems draws the same stream.
const openRate = 1100

func newMEMS() *mems.Device { return mems.MustDevice(mems.DefaultConfig()) }

func engineOutcome(res sim.Result, n int, extra ...string) outcome {
	c := resultCounts{
		requests: res.Requests,
		retries:  res.Retries,
		requeues: res.Requeues,
		failed:   res.FailedRequests,
	}
	for _, m := range res.Members {
		c.memberOps += m.Requests
	}
	if v := res.Volume; v != nil {
		c.rebuildChunks, c.degradedReads = v.RebuildChunks, v.DegradedReads
	}
	return outcome{
		units:       n,
		failed:      res.FailedRequests,
		counts:      c,
		fingerprint: func() []string { return append(resultLines(res), extra...) },
	}
}

// countingWriter counts the bytes written through it.
type countingWriter struct {
	w io.Writer
	n int64
}

func (c *countingWriter) Write(p []byte) (int, error) {
	n, err := c.w.Write(p)
	c.n += int64(n)
	return n, err
}

// openObserved is the memsbench -trace setup: a PhaseCollector and a
// JSONL lifecycle trace (hashed instead of written to disk) on every run.
func openObserved(c config, l *ledger) func() (outcome, error) {
	d := newMEMS()
	src := workload.DefaultRandom(openRate, d.SectorSize(), d.Capacity(), c.n, c.seed)
	h := sha256.New()
	cw := &countingWriter{w: h}
	jp := sim.NewJSONLProbe(cw)
	dev, s, in := l.device(d), l.sched(sched.NewSPTF()), l.source(src)
	opts := sim.Options{Probe: sim.MultiProbe{sim.NewPhaseCollector(), l.jsonlProbe(jp)}}
	return func() (outcome, error) {
		res := sim.Run(nil, dev, s, in, opts)
		if err := jp.Flush(); err != nil {
			return outcome{}, fmt.Errorf("jsonl: %w", err)
		}
		out := engineOutcome(res, c.n, fmt.Sprintf("jsonl: bytes=%d sha256=%x", cw.n, h.Sum(nil)))
		out.traceBytes = cw.n
		return out, nil
	}
}

// tpccScale is the top of the fig. 7b sweep.
const tpccScale = 12

// tpccDeep generates the trace in set-up; the run replays it, building
// each request as the engine draws it, so the replay pays one request
// allocation per arrival like the generated workloads.
func tpccDeep(c config, l *ledger) func() (outcome, error) {
	d := newMEMS()
	cfg := trace.DefaultTPCC(d.Capacity(), c.n)
	cfg.Seed = c.seed
	tr := trace.GenerateTPCC(cfg).Scale(tpccScale)
	dev, s, in := l.device(d), l.sched(sched.NewSPTF()), l.source(&replay{recs: tr.Records})
	return func() (outcome, error) {
		return engineOutcome(sim.Run(nil, dev, s, in, sim.Options{}), c.n), nil
	}
}

// replay is a workload.Source over trace records.
type replay struct {
	recs []trace.Record
	i    int
}

func (r *replay) Next() *core.Request {
	if r.i == len(r.recs) {
		return nil
	}
	r.i++
	return r.recs[r.i-1].Request()
}

func closedMems(c config, l *ledger) func() (outcome, error) {
	d := newMEMS()
	src := workload.DefaultRandom(openRate, d.SectorSize(), d.Capacity(), c.n, c.seed)
	dev, in := l.device(d), l.source(src)
	return func() (outcome, error) {
		return engineOutcome(sim.RunClosed(nil, dev, in, sim.Options{}), c.n), nil
	}
}

// The volume-rebuild scenario: the rebuild artifact's parity geometry
// (4 MEMS G1 members + 1 hot spare, one cylinder per stripe unit) at
// 1000 req/s; member slot 1 dies a quarter of the way through the
// arrival stream and is rebuilt at a fixed 0.3 throttle while 1% of
// access attempts hit a transient error.
const (
	volumeRate      = 1000
	volumeChunk     = 2700
	volumePerMember = 6_750_000
	volumeFailSlot  = 1
	volumeThrottle  = 0.3
	volumeFaultRate = 0.01
)

func volumeConfig() array.VolumeConfig {
	return array.VolumeConfig{
		Level: array.VolParity, Members: 4, Spares: 1,
		StripeUnit: volumeChunk, PerMember: volumePerMember,
	}
}

func volumeSource(c config) workload.Source {
	return workload.NewRandom(workload.RandomConfig{
		Rate:         volumeRate,
		ReadFraction: 0.67,
		MeanBytes:    4096,
		MaxBytes:     32 * 1024,
		SectorSize:   512,
		Capacity:     volumeConfig().Capacity(),
		Count:        c.n,
		Seed:         c.seed,
	})
}

func volumeRebuild(c config, l *ledger) func() (outcome, error) {
	cfg := volumeConfig()
	v, err := array.NewVolume(cfg)
	if err != nil {
		panic(err) // the configuration is a constant
	}
	devs := make([]core.Device, cfg.Devices())
	scheds := make([]core.Scheduler, cfg.Devices())
	for i := range devs {
		devs[i] = l.device(newMEMS())
		scheds[i] = l.sched(sched.NewSPTF())
	}
	icfg := fault.DefaultInjectorConfig()
	icfg.Seed = runner.DeriveSeed(c.seed, "volume-rebuild")
	icfg.TransientRate = volumeFaultRate
	icfg.DeviceEvents = []fault.DeviceEvent{{AtMs: 0.25 * float64(c.n) / volumeRate * 1000, Dev: volumeFailSlot}}
	inj, err := fault.NewInjector(icfg)
	if err != nil {
		panic(err)
	}
	spec := sim.VolumeSpec{Volume: v, Devices: devs, Scheds: scheds, RebuildChunk: volumeChunk, RebuildFrac: volumeThrottle}
	in := l.source(volumeSource(c))
	return func() (outcome, error) {
		res, err := sim.RunVolume(nil, spec, in, sim.Options{Injector: inj})
		if err != nil {
			return outcome{}, err
		}
		return engineOutcome(res, c.n), nil
	}
}

// plannerReplay times array.Volume's planners, which RunVolume calls
// internally: the workload's request stream is replayed through a fresh
// volume's PlanRead/PlanWrite while healthy, then again after Fail.
// Each pass is timed as a whole, so no per-call clock is added.
func plannerReplay(c config, _ *ledger, _ []repStats, m map[string]float64) {
	var reads, writes []*core.Request
	src := volumeSource(c)
	for r := src.Next(); r != nil; r = src.Next() {
		if r.Op == core.Read {
			reads = append(reads, r)
		} else {
			writes = append(writes, r)
		}
	}
	v, err := array.NewVolume(volumeConfig())
	if err != nil {
		panic(err)
	}
	phases := 0
	pass := func(reqs []*core.Request) float64 {
		t := time.Now()
		for _, r := range reqs {
			var pl array.Plan
			if r.Op == core.Read {
				pl, _ = v.PlanRead(r.LBN, r.Blocks)
			} else {
				pl, _ = v.PlanWrite(r.LBN, r.Blocks)
			}
			phases += len(pl.Phases)
		}
		return float64(time.Since(t).Nanoseconds()) / float64(max(len(reqs), 1))
	}
	m["array.plan_read_ns"] = pass(reads)
	m["array.plan_write_ns"] = pass(writes)
	if err := v.Fail(volumeFailSlot); err != nil {
		panic(err)
	}
	m["array.plan_degraded_ns"] = pass(append(reads, writes...))
	if phases == 0 {
		panic("planner replay planned nothing")
	}
}

// artifactsSmokeRequests sizes the smoke run of artifacts-quick.
const artifactsSmokeRequests = 300

// artifactWorkers is fixed, not nproc, so the suite is the same batch on
// every host.
const artifactWorkers = 2

func artifactParams(c config) experiments.Params {
	p := experiments.Quick()
	p.Seed = c.seed
	if c.smoke {
		p = p.WithRequests(artifactsSmokeRequests)
	}
	return p
}

// artifactsQuick runs every registered artifact as one batch, as
// `memsbench -quick -parallel 2` does. Set-up builds every artifact's
// plan, the part of RunEach before its first job, and checks that job
// labels are unique, which the traced run needs to attribute each job
// to its artifact.
func artifactsQuick(c config, l *ledger) func() (outcome, error) {
	p := artifactParams(c)
	ids := experiments.IDs()
	if _, err := jobArtifacts(ids, p); err != nil {
		panic(err)
	}
	ctx := &runner.Context{Workers: artifactWorkers, Progress: l.progress()}
	return func() (outcome, error) {
		outs, sum, err := experiments.RunEach(ctx, ids, p)
		if err != nil {
			return outcome{}, err
		}
		return outcome{
			units:       sum.Jobs,
			failed:      sum.Failed,
			sum:         &sum,
			fingerprint: func() []string { return artifactLines(outs) },
		}, nil
	}
}

// jobArtifacts maps every job label of the batch to its artifact ID.
func jobArtifacts(ids []string, p experiments.Params) (map[string]string, error) {
	m := map[string]string{}
	for _, id := range ids {
		pl, err := experiments.PlanFor(id, p)
		if err != nil {
			return nil, err
		}
		for _, j := range pl.Jobs {
			if prev, dup := m[j.Label]; dup {
				return nil, fmt.Errorf("job label %q in both %s and %s", j.Label, prev, id)
			}
			m[j.Label] = id
		}
	}
	return m, nil
}

func artifactLayers(c config, l *ledger, traced []repStats, m map[string]float64) {
	byJob, err := jobArtifacts(experiments.IDs(), artifactParams(c))
	if err != nil {
		panic(err)
	}
	walls := make([]float64, len(l.jobs))
	var busyMs, batchMs float64
	for i, ev := range l.jobs {
		walls[i] = ev.WallMs
		busyMs += ev.WallMs
		m["experiments.wall_s."+byJob[ev.Label]] += ev.WallMs / 1000 / float64(len(traced))
	}
	for _, r := range traced {
		batchMs += r.out.sum.ElapsedMs
	}
	last := traced[len(traced)-1].out.sum
	m["runner.jobs"] = float64(last.Jobs)
	m["runner.failed_jobs"] = float64(last.Failed)
	m["runner.job_wall_p50_ms"] = quantile(walls, 0.5)
	m["runner.job_wall_max_ms"] = quantile(walls, 1)
	m["runner.pool_util"] = busyMs / (artifactWorkers * batchMs)
}

// artifactLines fingerprints a batch: one line per table with its CSV
// hash, so a mismatch names the table that changed.
func artifactLines(outs []experiments.Outcome) []string {
	var lines []string
	for _, o := range outs {
		if o.Err != nil {
			lines = append(lines, fmt.Sprintf("%s: error: %v", o.ID, o.Err))
			continue
		}
		for _, t := range o.Tables {
			h := sha256.New()
			t.CSV(h)
			lines = append(lines, fmt.Sprintf("%s/%s: rows=%d csv-sha256=%x", o.ID, t.ID, len(t.Rows), h.Sum(nil)))
		}
	}
	return lines
}

// g formats a float at full round-trip precision, so a fingerprint
// catches a change in the last bit of any statistic.
func g(x float64) string { return strconv.FormatFloat(x, 'g', -1, 64) }

func welfordLine(name string, w stats.Welford) string {
	return fmt.Sprintf("%s: n=%d mean=%s min=%s max=%s var=%s", name, w.N(), g(w.Mean()), g(w.Min()), g(w.Max()), g(w.Variance()))
}

func distLine(name string, d *stats.Dist) string {
	return fmt.Sprintf("%s: n=%d mean=%s p95=%s p99=%s", name, d.N(), g(d.Mean()), g(d.P95()), g(d.P99()))
}

func phaseLines(name string, ps *sim.PhaseStats) []string {
	if ps == nil {
		return nil
	}
	lines := []string{fmt.Sprintf("%s: requests=%d", name, ps.Requests)}
	for _, ph := range []struct {
		n string
		d *stats.Dist
	}{
		{"seek", &ps.Seek}, {"settle", &ps.Settle}, {"turnaround", &ps.Turnaround},
		{"transfer", &ps.Transfer}, {"overhead", &ps.Overhead}, {"recovery", &ps.Recovery},
		{"service", &ps.Service}, {"unattributed", &ps.Unattributed},
	} {
		lines = append(lines, distLine(name+"."+ph.n, ph.d))
	}
	return lines
}

// resultLines renders every observable field of a sim.Result.
func resultLines(res sim.Result) []string {
	lines := []string{
		fmt.Sprintf("requests=%d elapsed=%s busy=%s maxqueue=%d cancelled=%v",
			res.Requests, g(res.Elapsed), g(res.Busy), res.MaxQueue, res.Cancelled),
		welfordLine("response", res.Response),
		welfordLine("service", res.Service),
		welfordLine("queuelen", res.QueueLen),
		fmt.Sprintf("faults: retries=%d recovered=%d failed=%d degraded=%d requeues=%d recoveryms=%s lostreads=%d dataloss=%v clamped=%d",
			res.Retries, res.Recovered, res.FailedRequests, res.DegradedReads, res.Requeues,
			g(res.RecoveryMs), res.LostReads, res.DataLoss, res.ClampedRequests),
	}
	lines = append(lines, phaseLines("phases", res.Phases)...)
	for i, m := range res.Members {
		lines = append(lines, fmt.Sprintf("member[%d]: requests=%d busy=%s", i, m.Requests, g(m.Busy)))
		lines = append(lines, phaseLines(fmt.Sprintf("member[%d].phases", i), m.Phases)...)
	}
	if v := res.Volume; v != nil {
		lines = append(lines,
			fmt.Sprintf("volume: failures=%d rebuilds=%d/%d chunks=%d rebuildms=%s degradedms=%s rebuildbusy=%s",
				v.DeviceFailures, v.RebuildsStarted, v.RebuildsDone, v.RebuildChunks,
				g(v.RebuildMs), g(v.DegradedMs), g(v.RebuildBusy)),
			fmt.Sprintf("volume.counts: dr=%d dw=%d sr=%d pace=%d lost=%d",
				v.DegradedReads, v.DegradedWrites, v.SpareReads, v.PaceChanges, v.LostRequests),
			distLine("volume.healthy", &v.Healthy),
			distLine("volume.degraded", &v.Degraded))
		for cl := range v.ClassResponse {
			lines = append(lines, distLine("volume.class."+core.Class(cl).String(), &v.ClassResponse[cl]))
		}
	}
	return lines
}

// quantile returns the nearest-rank q-quantile of xs (q in (0,1]).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(math.Ceil(q*float64(len(s)))) - 1
	return s[min(max(i, 0), len(s)-1)]
}

// median is the midpoint of xs, averaging the middle pair of an even
// count.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	mid := len(s) / 2
	if len(s)%2 == 1 {
		return s[mid]
	}
	return (s[mid-1] + s[mid]) / 2
}
