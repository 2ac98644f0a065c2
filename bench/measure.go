package main

// measure.go drives one workload: repeated set-up for setup_s, a warm-up
// rep, measured reps until the time budget is spent, the result checks,
// and the metrics.

import (
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/debug"
	"slices"
	"strconv"
	"strings"
	"time"

	"memsim/internal/experiments"
)

// metricDef is one metric of BENCHMARK.json. bound is the share by which
// an end-to-end metric may worsen before a change counts as a regression.
type metricDef struct {
	name, unit, better string
	bound              float64
}

// endToEnd lists the metrics of an untraced run. For artifacts-quick the
// unit of work behind the per-request metrics is a runner job. The
// bounds of the host-time and RSS metrics are set by the run-to-run
// spread measured on a shared 2-vCPU VM (README.md).
var endToEnd = []metricDef{
	{"sim_req_per_s", "1/s", "higher", 0.25},
	{"suite_wall_s", "s", "lower", 0.25},
	{"alloc_bytes_per_req", "B", "lower", 0.05},
	{"allocs_per_req", "count", "lower", 0.05},
	{"alloc_mb", "MB", "lower", 0.05},
	{"max_rss_mb", "MB", "lower", 0.25},
	{"setup_s", "s", "lower", 0.25},
}

// layerDefs lists the metrics of a traced run, grouped by the module the
// layer lives in. A layer a workload does not reach reads 0.
var layerDefs = []metricDef{
	{name: "workload.next_ns", unit: "ns", better: "lower"},
	{name: "workload.share", unit: "fraction", better: "lower"},
	{name: "sched.next_ns", unit: "ns", better: "lower"},
	{name: "sched.next_p99_ns", unit: "ns", better: "lower"},
	{name: "sched.next_self_ns", unit: "ns", better: "lower"},
	{name: "sched.add_ns", unit: "ns", better: "lower"},
	{name: "sched.depth_mean", unit: "count", better: "lower"},
	{name: "sched.estimates_per_dispatch", unit: "count", better: "lower"},
	{name: "sched.share", unit: "fraction", better: "lower"},
	{name: "mems.access_ns", unit: "ns", better: "lower"},
	{name: "mems.access_per_req", unit: "count", better: "lower"},
	{name: "mems.estimate_ns", unit: "ns", better: "lower"},
	{name: "mems.estimate_per_req", unit: "count", better: "lower"},
	{name: "mems.share", unit: "fraction", better: "lower"},
	{name: "sim.jsonl.observe_ns", unit: "ns", better: "lower"},
	{name: "sim.jsonl.events_per_req", unit: "count", better: "lower"},
	{name: "sim.jsonl.bytes_per_event", unit: "B", better: "lower"},
	{name: "sim.jsonl.share", unit: "fraction", better: "lower"},
	{name: "sim.engine.residue_ns_per_req", unit: "ns", better: "lower"},
	{name: "sim.engine.share", unit: "fraction", better: "lower"},
	{name: "sim.trace_overhead", unit: "fraction", better: "lower"},
	{name: "array.member_ops_per_req", unit: "count", better: "lower"},
	{name: "array.plan_read_ns", unit: "ns", better: "lower"},
	{name: "array.plan_write_ns", unit: "ns", better: "lower"},
	{name: "array.plan_degraded_ns", unit: "ns", better: "lower"},
	{name: "array.rebuild_chunks", unit: "count", better: "lower"},
	{name: "array.degraded_reads", unit: "count", better: "lower"},
	{name: "fault.retries_per_req", unit: "count", better: "lower"},
	{name: "fault.requeues", unit: "count", better: "lower"},
	{name: "fault.failed_requests", unit: "count", better: "lower"},
	{name: "runner.jobs", unit: "count", better: "lower"},
	{name: "runner.job_wall_p50_ms", unit: "ms", better: "lower"},
	{name: "runner.job_wall_max_ms", unit: "ms", better: "lower"},
	{name: "runner.pool_util", unit: "fraction", better: "higher"},
	{name: "runner.failed_jobs", unit: "count", better: "lower"},
}

// perLayer is layerDefs plus the per-artifact wall time of every
// registered experiment.
func perLayer() []metricDef {
	defs := append([]metricDef(nil), layerDefs...)
	for _, id := range experiments.IDs() {
		defs = append(defs, metricDef{name: "experiments.wall_s." + id, unit: "s", better: "lower"})
	}
	return defs
}

// options are the command-line settings of one run.
type options struct {
	seed    int64
	seconds int
	trace   bool
	smoke   bool
	update  bool
}

// repStats is one measured rep.
type repStats struct {
	wall time.Duration
	// scale turns the rep's host time into host-normalised time:
	// probeNominal over the mean of the host probes around the rep.
	scale              float64
	allocBytes, allocs uint64
	peakRSS            int64
	out                outcome
	lines              []string
}

// runRep times one built rep. Every rep starts from a collected heap
// returned to the OS, with the kernel's peak-RSS mark reset, so its
// peak RSS is its own and not the previous rep's.
func runRep(run func() (outcome, error)) (repStats, error) {
	debug.FreeOSMemory()
	resetPeakRSS()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	t := time.Now()
	out, err := run()
	wall := time.Since(t)
	runtime.ReadMemStats(&after)
	if err != nil {
		return repStats{}, err
	}
	peak, err := peakRSS()
	if err != nil {
		return repStats{}, err
	}
	// The fingerprint closure holds the rep's whole result; dropping it
	// keeps the kept reps from growing the heap the next rep runs on.
	lines := out.fingerprint()
	out.fingerprint = nil
	return repStats{
		wall:       wall,
		allocBytes: after.TotalAlloc - before.TotalAlloc,
		allocs:     after.Mallocs - before.Mallocs,
		peakRSS:    peak,
		out:        out,
		lines:      lines,
	}, nil
}

// resetPeakRSS clears the process's peak-RSS mark (Linux 4.0+). Where
// the kernel refuses, the mark keeps the process-wide peak.
func resetPeakRSS() {
	f, err := os.OpenFile("/proc/self/clear_refs", os.O_WRONLY, 0)
	if err != nil {
		return
	}
	defer f.Close()
	_, _ = f.WriteString("5") // best effort, see above
}

// peakRSS returns the peak resident set size in bytes since the last
// resetPeakRSS, from /proc/self/status.
func peakRSS() (int64, error) {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, fmt.Errorf("peak RSS: %w", err)
	}
	for _, line := range strings.Split(string(data), "\n") {
		if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseInt(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(v), "kB")), 10, 64)
			if err != nil {
				return 0, fmt.Errorf("peak RSS: %q: %w", line, err)
			}
			return kb * 1024, nil
		}
	}
	return 0, fmt.Errorf("peak RSS: no VmHWM in /proc/self/status")
}

// setupBurst is how long set-up is repeated before each untraced rep;
// the last build runs the rep and setup_s is the median of them all.
// Spreading the samples over the run exposes them to the same host
// conditions as the reps. The heap is collected once per burst, not
// before each sample: with a GC before each, the small set-ups ran at
// one of two speeds that a process kept for its whole run.
const setupBurst = 20 * time.Millisecond

func buildTimed(w benchWorkload, c config, samples *[]float64) func() (outcome, error) {
	var run func() (outcome, error)
	runtime.GC()
	for start := time.Now(); run == nil || time.Since(start) < setupBurst; {
		t := time.Now()
		run = w.setup(c, nil)
		*samples = append(*samples, time.Since(t).Seconds())
	}
	return run
}

// stat is a reported metric. Min, Max and Samples describe the spread
// of a metric measured once per rep or set-up.
type stat struct {
	Value   float64 `json:"value"`
	Unit    string  `json:"unit"`
	Min     float64 `json:"min,omitempty"`
	Max     float64 `json:"max,omitempty"`
	Samples int     `json:"samples,omitempty"`
}

// report is one run of one workload.
type report struct {
	Workload  string `json:"workload"`
	Seed      int64  `json:"seed"`
	Trace     int    `json:"trace"`
	Smoke     bool   `json:"smoke,omitempty"`
	Reps      int    `json:"reps"`
	Correct   bool   `json:"correct"`
	Attempted int    `json:"attempted"`
	Failed    int    `json:"failed"`
	// Check is "pinned", "re-pinned", "unchecked", or why the result is
	// wrong.
	Check   string          `json:"check"`
	SHA256  string          `json:"sha256"`
	Metrics map[string]stat `json:"metrics"`
	// Host holds the raw host timings the untraced run normalised.
	Host   *hostTimes `json:"host,omitempty"`
	ledger string
}

// hostTimes are a run's rep walls as the host clock read them and its
// host probes, both in seconds.
type hostTimes struct {
	WallS  stat `json:"wall_s"`
	ProbeS stat `json:"probe_s"`
}

// measure runs workload w and returns its report. An error means the
// benchmark could not run the workload at all; a wrong result is a report
// with Correct false.
func measure(w benchWorkload, o options) (report, error) {
	c := config{seed: o.seed, n: w.n, smoke: o.smoke}
	if o.smoke {
		c.n = w.smokeN
	}
	rep := report{Workload: w.name, Seed: o.seed, Smoke: o.smoke}
	if w.engine() {
		// The simulation is single-threaded. With a second P the runtime
		// keeps waking an idle vCPU for GC work, which on a small VM made
		// reps slower and their walls 1.5x as spread (bench/README.md).
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	}
	var setups []float64
	if w.engine() && !o.smoke {
		warm := c
		warm.n = c.n / 10
		if _, err := runRep(w.setup(warm, nil)); err != nil {
			return rep, fmt.Errorf("%s warm-up: %w", w.name, err)
		}
	}

	var l *ledger
	minReps := w.minReps
	if o.trace {
		rep.Trace = 1
		l = &ledger{}
		minReps = (minReps + 1) / 2
	}
	budget := time.Duration(o.seconds) * time.Second
	if o.smoke {
		minReps, budget = 1, 0
	}
	// A traced run alternates untraced and traced reps, so both see the
	// same host conditions and their walls give the tracing overhead.
	// The host is probed before the first untraced rep and after each.
	var plain, traced []repStats
	var probes []float64
	probe := probeHost()
	start := time.Now()
	for len(plain) < minReps || time.Since(start) < budget {
		var s []float64
		r, err := runRep(buildTimed(w, c, &s))
		if err != nil {
			return rep, fmt.Errorf("%s: %w", w.name, err)
		}
		next := probeHost()
		r.scale = probeNominal / ((probe + next) / 2)
		probes = append(probes, probe)
		probe = next
		for _, x := range s {
			setups = append(setups, x*r.scale)
		}
		plain = append(plain, r)
		if l != nil {
			r, err := runRep(w.setup(c, l))
			if err != nil {
				return rep, fmt.Errorf("%s traced: %w", w.name, err)
			}
			traced = append(traced, r)
		}
	}
	probes = append(probes, probe)
	rep.Reps = len(plain) + len(traced)
	for _, r := range append(plain, traced...) {
		rep.Attempted += r.out.units
		rep.Failed += r.out.failed
	}

	rep.Check, rep.Correct = checkResult(w, o, plain, traced)
	rep.SHA256 = hashLines(plain[0].lines)
	if o.trace {
		m := layerMetrics(w, c, l, plain, traced)
		rep.Metrics = withUnits(perLayer(), m)
		if w.engine() {
			rep.ledger = ledgerText(m, traced)
		}
	} else {
		rep.Metrics = endToEndMetrics(plain, setups)
		walls := make([]float64, len(plain))
		for i, r := range plain {
			walls[i] = r.wall.Seconds()
		}
		rep.Host = &hostTimes{WallS: spread(walls), ProbeS: spread(probes)}
	}
	return rep, nil
}

// checkResult verifies that every rep, traced or not, produced the same
// fingerprint, and compares it with the pinned one. It returns the
// check's outcome and whether the result is correct.
func checkResult(w benchWorkload, o options, plain, traced []repStats) (string, bool) {
	want := plain[0].lines
	for i, r := range plain[1:] {
		if d := firstDiff(r.lines, want); d != "" {
			return fmt.Sprintf("rep %d differs from rep 1: %s", i+2, d), false
		}
	}
	for i, r := range traced {
		if d := firstDiff(r.lines, want); d != "" {
			return fmt.Sprintf("traced rep %d differs from the untraced result: %s", i+1, d), false
		}
	}
	key := w.name
	if o.smoke {
		key += ".smoke"
	}
	check, err := pin(o.seed, key, want, o.update)
	if err != nil {
		return err.Error(), false
	}
	return check, true
}

func endToEndMetrics(plain []repStats, setups []float64) map[string]stat {
	per := func(f func(r repStats) float64) stat {
		xs := make([]float64, len(plain))
		for i, r := range plain {
			xs[i] = f(r)
		}
		return spread(xs)
	}
	norm := func(r repStats) float64 { return r.wall.Seconds() * r.scale }
	m := map[string]stat{
		"sim_req_per_s": per(func(r repStats) float64 { return float64(r.out.units) / norm(r) }),
		"suite_wall_s":  per(norm),
		"alloc_bytes_per_req": per(func(r repStats) float64 {
			return float64(r.allocBytes) / float64(r.out.units)
		}),
		"allocs_per_req": per(func(r repStats) float64 { return float64(r.allocs) / float64(r.out.units) }),
		"alloc_mb":       per(func(r repStats) float64 { return float64(r.allocBytes) / 1e6 }),
		"max_rss_mb":     per(func(r repStats) float64 { return float64(r.peakRSS) / 1e6 }),
		"setup_s":        spread(setups),
	}
	for _, d := range endToEnd {
		s := m[d.name]
		s.Unit = d.unit
		m[d.name] = s
	}
	return m
}

func spread(xs []float64) stat {
	return stat{Value: median(xs), Min: slices.Min(xs), Max: slices.Max(xs), Samples: len(xs)}
}

func withUnits(defs []metricDef, m map[string]float64) map[string]stat {
	out := make(map[string]stat, len(defs))
	for _, d := range defs {
		out[d.name] = stat{Value: m[d.name], Unit: d.unit}
	}
	return out
}

// layerMetrics derives the per-layer metrics of a traced run. Times are
// per call, shares are of the traced reps' summed wall time, and counts
// per request are per top-level simulated request.
func layerMetrics(w benchWorkload, c config, l *ledger, plain, traced []repStats) map[string]float64 {
	var wallNs, units, traceBytes int64
	tracedWalls := make([]float64, len(traced))
	plainWalls := make([]float64, len(plain))
	for i, r := range traced {
		wallNs += r.wall.Nanoseconds()
		units += int64(r.out.units)
		traceBytes += r.out.traceBytes
		tracedWalls[i] = r.wall.Seconds()
	}
	for i, r := range plain {
		plainWalls[i] = r.wall.Seconds()
	}
	ratio := func(a, b int64) float64 {
		if b == 0 {
			return 0
		}
		return float64(a) / float64(b)
	}
	share := func(ns int64) float64 { return ratio(ns, wallNs) }
	perReq := func(x int64) float64 { return ratio(x, units) }

	m := map[string]float64{"sim.trace_overhead": median(tracedWalls)/median(plainWalls) - 1}
	if w.engine() {
		schedSelf := l.schedNext.ns - l.nested.ns + l.schedAdd.ns
		residue := wallNs - l.timedNs()
		nextNs := make([]float64, len(l.nextNs))
		for i, ns := range l.nextNs {
			nextNs[i] = float64(ns)
		}
		for k, v := range map[string]float64{
			"workload.next_ns":              l.srcNext.perCall(),
			"workload.share":                share(l.srcNext.ns),
			"sched.next_ns":                 l.schedNext.perCall(),
			"sched.next_p99_ns":             quantile(nextNs, 0.99),
			"sched.next_self_ns":            ratio(l.schedNext.ns-l.nested.ns, l.schedNext.calls),
			"sched.add_ns":                  l.schedAdd.perCall(),
			"sched.depth_mean":              ratio(l.depth, l.dispatches),
			"sched.estimates_per_dispatch":  ratio(l.nested.calls, l.dispatches),
			"sched.share":                   share(schedSelf),
			"mems.access_ns":                l.access.perCall(),
			"mems.access_per_req":           perReq(l.access.calls),
			"mems.estimate_ns":              l.estimate.perCall(),
			"mems.estimate_per_req":         perReq(l.estimate.calls),
			"mems.share":                    share(l.access.ns + l.estimate.ns),
			"sim.jsonl.observe_ns":          l.jsonl.perCall(),
			"sim.jsonl.events_per_req":      perReq(l.jsonl.calls),
			"sim.jsonl.bytes_per_event":     ratio(traceBytes, l.jsonl.calls),
			"sim.jsonl.share":               share(l.jsonl.ns),
			"sim.engine.residue_ns_per_req": ratio(residue, units),
			"sim.engine.share":              share(residue),
		} {
			m[k] = v
		}
		c := traced[len(traced)-1].out.counts
		n := int64(c.requests)
		m["array.member_ops_per_req"] = ratio(int64(c.memberOps), n)
		m["array.rebuild_chunks"] = float64(c.rebuildChunks)
		m["array.degraded_reads"] = float64(c.degradedReads)
		m["fault.retries_per_req"] = ratio(int64(c.retries), n)
		m["fault.requeues"] = float64(c.requeues)
		m["fault.failed_requests"] = float64(c.failed)
	}
	if w.layers != nil {
		w.layers(c, l, traced, m)
	}
	return m
}

// ledgerText renders the traced run's wall time split by layer. The
// shares add up to 100% by construction: whatever no wrapper timed is
// engine residue, and that residue is itself a finding.
func ledgerText(m map[string]float64, traced []repStats) string {
	var wall time.Duration
	for _, r := range traced {
		wall += r.wall
	}
	rows := []struct {
		name  string
		share float64
	}{
		{"workload", m["workload.share"]},
		{"sched self", m["sched.share"]},
		{"mems", m["mems.share"]},
		{"sim.jsonl", m["sim.jsonl.share"]},
		{"engine residue", m["sim.engine.share"]},
	}
	s := fmt.Sprintf("  ledger over %d traced reps, %.3f s traced wall:\n", len(traced), wall.Seconds())
	total := 0.0
	for _, r := range rows {
		s += fmt.Sprintf("    %-15s %6.1f%%\n", r.name, 100*r.share)
		total += r.share
	}
	s += fmt.Sprintf("    %-15s %6.1f%%\n", "total", 100*total)
	s += fmt.Sprintf("  engine residue %.0f ns/req; tracing overhead (traced/untraced wall - 1) %.1f%%\n",
		m["sim.engine.residue_ns_per_req"], 100*m["sim.trace_overhead"])
	return s
}

// printReport writes the human-readable part of a report. Per-layer
// metrics of layers the workload does not reach read 0 and are left out.
func printReport(w io.Writer, r report, defs []metricDef) {
	mode := "untraced"
	if r.Trace == 1 {
		mode = "traced"
	}
	fmt.Fprintf(w, "%s seed=%d %s: %d reps, %d attempted, %d failed, result %s (sha256 %.12s)\n",
		r.Workload, r.Seed, mode, r.Reps, r.Attempted, r.Failed, r.Check, r.SHA256)
	for _, d := range defs {
		s := r.Metrics[d.name]
		switch {
		case r.Trace == 1 && s.Value == 0:
		case s.Samples > 0:
			fmt.Fprintf(w, "  %-30s %14.6g %-8s median of %d, min %.6g, max %.6g\n", d.name, s.Value, s.Unit, s.Samples, s.Min, s.Max)
		default:
			fmt.Fprintf(w, "  %-30s %14.6g %s\n", d.name, s.Value, s.Unit)
		}
	}
	if h := r.Host; h != nil {
		fmt.Fprintf(w, "  host clock: rep wall median %.6g s (min %.6g, max %.6g); host probe median %.6g s (min %.6g, max %.6g), nominal %g s\n",
			h.WallS.Value, h.WallS.Min, h.WallS.Max, h.ProbeS.Value, h.ProbeS.Min, h.ProbeS.Max, probeNominal)
	}
	fmt.Fprint(w, r.ledger)
}
