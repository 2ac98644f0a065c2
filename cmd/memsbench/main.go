// memsbench regenerates the paper's tables and figures.
//
// Usage:
//
//	memsbench                     # run every artifact at full size
//	memsbench -run fig6           # one artifact
//	memsbench -run fig6,table2    # several
//	memsbench -quick              # reduced sizes (seconds instead of minutes)
//	memsbench -csv -o results/    # write one CSV per table instead of text
//	memsbench -parallel 8         # worker-pool width (default: NumCPU)
//	memsbench -progress           # report per-job completions to stderr
//	memsbench -list               # list artifact IDs
//	memsbench -run faultinject -fault-rate 0.02
//	                              # fault injection with an extra error rate
//	memsbench -run phases -trace run.jsonl
//	                              # request-lifecycle JSONL alongside the tables
//	memsbench -run fig11 -think-ms 10
//	                              # closed-loop terminals with think time
//	                              # (default 0: the paper's back-to-back regime)
//	memsbench -run mttdl -trials 500 -mttf-hours 2000
//	                              # Monte-Carlo MTTDL under the lifetime model
//	memsbench -run rebuild -rebuild-policy adaptive
//	                              # queue-aware rebuild pacing only
//	memsbench -run schedcost -sched Priority
//	                              # cost-model scheduler comparison, one extra policy
//	memsbench -run rebuild -member-sched Priority
//	                              # class-aware volume member queues during rebuild
//	memsbench -check              # simulator invariant checking on every run
//	memsbench -sketch             # bounded quantile sketches: O(1) stats
//	                              # memory at any request count, p95/p99
//	                              # within ±1% of exact
//	memsbench -requests 1000000 -sketch -run phases
//	                              # a million-request run that would
//	                              # otherwise retain every observation
//	memsbench -timeout 30s        # per-job wall-clock deadline
//	memsbench -run mttdl -checkpoint mttdl.ckpt
//	                              # resumable Monte-Carlo trials (byte-identical
//	                              # resume after an interrupt)
//
// Artifact IDs follow the paper: table1, fig5…fig11, table2, plus the
// quantified extensions fault, faultinject and power (DESIGN.md §2).
//
// Every experiment is a batch of isolated jobs (internal/runner), so
// -parallel N spreads the suite over N workers while producing output
// byte-identical to a sequential run.
//
// Lifecycle: SIGINT/SIGTERM cancels the in-flight jobs cooperatively
// (a second signal kills immediately); experiments whose jobs all
// finished still publish their artifacts, the rest are reported as
// cancelled, and the exit status is nonzero. Any job failure — panic,
// deadline, invariant violation — likewise exits nonzero.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"strings"
	"syscall"
	"time"

	"memsim/internal/experiments"
	"memsim/internal/runner"
	"memsim/internal/sched"
	"memsim/internal/sim"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is the whole CLI behind an exit code, parameterized for tests:
// 0 on success, 1 on a rejected flag value or any job or artifact
// failure (interruption included), 2 on flag-parse errors.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("memsbench", flag.ContinueOnError)
	var (
		runIDs     = fs.String("run", "all", "comma-separated artifact IDs, or \"all\"")
		quick      = fs.Bool("quick", false, "use reduced simulation sizes")
		csv        = fs.Bool("csv", false, "emit CSV files instead of text tables")
		out        = fs.String("o", "", "output directory for -csv (default: current)")
		list       = fs.Bool("list", false, "list artifact IDs and exit")
		seed       = fs.Int64("seed", 1, "random seed for all generators")
		reqs       = fs.Int("requests", 0, "override per-run request count (rescales warmup, closed runs and trials proportionally; ≤ 0: keep the preset)")
		parallel   = fs.Int("parallel", runtime.NumCPU(), "simulation jobs to run concurrently (≤ 0: GOMAXPROCS)")
		progress   = fs.Bool("progress", false, "report per-job completions to stderr")
		faultRate  = fs.Float64("fault-rate", 0, "extra transient-error rate for the faultinject sweep, in [0,1)")
		faultSeed  = fs.Int64("fault-seed", 0, "seed for fault-injection randomness (0: derive from -seed)")
		failDev    = fs.Int("fail-dev", 0, "volume member slot the rebuild experiment kills (reduced modulo the member count)")
		rebuild    = fs.Float64("rebuild", 0, "extra rebuild-throttle fraction for the rebuild sweep, in (0,1]; 0 keeps the standard sweep")
		policy     = fs.String("rebuild-policy", "", "rebuild pacing for the rebuild sweep: \"\" (fixed sweep + adaptive row), \"fixed\", or \"adaptive\"")
		mttfHours  = fs.Float64("mttf-hours", 0, "per-device exponential MTTF in hours for the mttdl experiment (0: default 1000, compressed scale)")
		trials     = fs.Int("trials", 0, "override the Monte-Carlo trial count (mttdl and other multi-trial experiments; 0 keeps the preset)")
		thinkMs    = fs.Float64("think-ms", 0, "mean exponential think time (ms) for closed-loop terminals (fig11); 0 keeps the paper's back-to-back regime")
		schedName  = fs.String("sched", "", "extra scheduling policy for the schedcost comparison (e.g. \"SettleAware\", \"Priority\"); empty keeps the standard pair")
		mSched     = fs.String("member-sched", "", "scheduling policy for the rebuild experiment's volume member queues (default SPTF)")
		tracePath  = fs.String("trace", "", "write request-lifecycle JSONL (one event per line) to this file; forces -parallel 1 so event order is deterministic")
		timeout    = fs.Duration("timeout", 0, "per-job wall-clock deadline; a job past it fails without killing the batch (0: none)")
		check      = fs.Bool("check", false, "enable simulator invariant self-checking on every run (conservation, clock monotonicity, breakdown reconciliation)")
		sketch     = fs.Bool("sketch", false, "use bounded quantile sketches for percentile statistics (O(1) memory at any request count; p95/p99 within ±1%)")
		checkpoint = fs.String("checkpoint", "", "atomic progress checkpoint for resumable experiments (mttdl): interrupted trials resume byte-identically")
	)
	fs.SetOutput(io.Discard)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			fs.SetOutput(stderr)
			fs.PrintDefaults()
			return 0
		}
		fmt.Fprintln(stderr, "memsbench:", err)
		return 2
	}

	fail := func(err error) int {
		fmt.Fprintln(stderr, "memsbench:", err)
		return 1
	}

	if *list {
		for _, id := range experiments.IDs() {
			fmt.Fprintln(stdout, id)
		}
		return 0
	}

	p := experiments.Default()
	if *quick {
		p = experiments.Quick()
	}
	if err := validateFlags(flagValues{
		faultRate: *faultRate, rebuild: *rebuild, rebuildPolicy: *policy,
		mttfHours: *mttfHours, trials: *trials, failDev: *failDev, thinkMs: *thinkMs,
		sched: *schedName, memberSched: *mSched,
		timeout: *timeout, checkpoint: *checkpoint,
	}); err != nil {
		return fail(err)
	}
	p.Seed = *seed
	p.FaultRate = *faultRate
	p.FaultSeed = *faultSeed
	p.FailDev = *failDev
	p.RebuildFrac = *rebuild
	p.RebuildPolicy = *policy
	p.MTTFHours = *mttfHours
	p.ThinkMs = *thinkMs
	p.Sched = *schedName
	p.MemberSched = *mSched
	p.Checkpoint = *checkpoint
	p = p.WithRequests(*reqs)
	// An explicit -trials wins over the preset and any -requests rescale.
	if *trials > 0 {
		p.Trials = *trials
	}

	ids := experiments.IDs()
	if *runIDs != "all" {
		ids = strings.Split(*runIDs, ",")
		for i := range ids {
			ids[i] = strings.TrimSpace(ids[i])
		}
	}

	// SIGINT/SIGTERM cancel the batch cooperatively through the context;
	// stop() restores default handling afterwards, so a second signal
	// during artifact writing kills the process outright.
	sigCtx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	ctx := &runner.Context{Workers: *parallel, Timeout: *timeout,
		Sim: sim.Context{Ctx: sigCtx, Check: *check, Sketch: *sketch}}
	if *progress {
		ctx.Progress = func(ev runner.Event) {
			if ev.Err != nil {
				fmt.Fprintf(stderr, "memsbench: [%d/%d] %s: %v\n", ev.Done, ev.Total, ev.Label, ev.Err)
				return
			}
			fmt.Fprintf(stderr, "memsbench: [%d/%d] %s (%.0f ms wall, %.0f ms simulated)\n",
				ev.Done, ev.Total, ev.Label, ev.WallMs, ev.SimMs)
		}
	}

	var (
		outcomes []experiments.Outcome
		sum      runner.Summary
		batchErr error // batch construction failed (unknown ID): nothing ran
	)
	if *tracePath == "" {
		outcomes, sum, batchErr = experiments.RunEach(ctx, ids, p)
	} else {
		ctx.Workers = 1
		// The lifecycle trace spans the whole batch: with any job missing
		// it would masquerade as a complete record, so it commits only
		// when every job finished.
		err := runner.WriteArtifact(*tracePath, func(w io.Writer) error {
			if *parallel > 1 {
				fmt.Fprintln(stderr, "memsbench: -trace forces -parallel 1 for deterministic event order")
			}
			probe := sim.NewJSONLProbe(w)
			ctx.Sim.Probe = probe
			if outcomes, sum, batchErr = experiments.RunEach(ctx, ids, p); batchErr != nil {
				return batchErr
			}
			if sigCtx.Err() != nil {
				return errIncompleteTrace
			}
			for _, o := range outcomes {
				if o.Err != nil {
					return errIncompleteTrace
				}
			}
			return probe.Flush()
		})
		switch {
		case batchErr != nil: // reported below, before anything else
		case errors.Is(err, errIncompleteTrace):
			fmt.Fprintln(stderr, "memsbench: discarding incomplete lifecycle trace")
		case err != nil:
			return fail(fmt.Errorf("-trace: %w", err))
		default:
			fmt.Fprintf(stderr, "memsbench: wrote lifecycle trace to %s\n", *tracePath)
		}
	}
	if batchErr != nil {
		return fail(batchErr)
	}

	interrupted := sigCtx.Err() != nil
	failed := 0
	for _, o := range outcomes {
		if o.Err != nil {
			failed++
			fmt.Fprintln(stderr, "memsbench:", o.Err)
		}
	}
	if *progress {
		simTotal := sum.Sim.Mean() * float64(sum.Sim.N())
		fmt.Fprintf(stderr, "memsbench: %d jobs in %.0f ms wall (%.0f ms simulated across jobs)\n",
			sum.Jobs, sum.ElapsedMs, simTotal)
	}

	// Publish every completed experiment — under interruption the ones
	// that finished are still correct, and the CSV path writes each
	// atomically.
	for _, o := range outcomes {
		if o.Err != nil {
			continue
		}
		for _, t := range o.Tables {
			if *csv {
				if err := writeCSV(t, *out, stdout); err != nil {
					return fail(err)
				}
			} else {
				t.Fprint(stdout)
			}
		}
	}

	switch {
	case interrupted:
		fmt.Fprintf(stderr, "memsbench: interrupted: %d/%d jobs done, %d cancelled; %d/%d artifacts intact\n",
			sum.Jobs-sum.Failed, sum.Jobs, sum.Cancelled, len(outcomes)-failed, len(outcomes))
		return 1
	case failed > 0:
		fmt.Fprintf(stderr, "memsbench: %d of %d artifacts failed\n", failed, len(outcomes))
		return 1
	}
	return 0
}

// errIncompleteTrace discards a lifecycle trace whose batch lost a job.
var errIncompleteTrace = errors.New("incomplete lifecycle trace")

// flagValues collects the fault/rebuild/availability/lifecycle knobs
// subject to parse-time validation, so a bad value fails with a
// one-line error before any simulation starts.
type flagValues struct {
	faultRate     float64
	rebuild       float64
	rebuildPolicy string
	mttfHours     float64
	trials        int
	failDev       int
	thinkMs       float64
	sched         string
	memberSched   string
	timeout       time.Duration
	checkpoint    string
}

// validateFlags rejects out-of-range or nonsensical knob values. The
// float checks are written so that NaN, which compares false against
// everything, fails them. Flags not checked here accept every value:
// -seed and -fault-seed name streams, -parallel ≤ 0 means GOMAXPROCS,
// and -requests ≤ 0 keeps the preset's request counts.
func validateFlags(v flagValues) error {
	if v.faultRate < 0 || v.faultRate >= 1 || math.IsNaN(v.faultRate) {
		return fmt.Errorf("-fault-rate %g out of [0,1)", v.faultRate)
	}
	if v.rebuild < 0 || v.rebuild > 1 || math.IsNaN(v.rebuild) {
		return fmt.Errorf("-rebuild %g out of [0,1]", v.rebuild)
	}
	switch v.rebuildPolicy {
	case "", "fixed", "adaptive":
	default:
		return fmt.Errorf("-rebuild-policy %q must be \"fixed\" or \"adaptive\" (empty runs both)", v.rebuildPolicy)
	}
	if v.mttfHours < 0 || math.IsNaN(v.mttfHours) || math.IsInf(v.mttfHours, 0) {
		return fmt.Errorf("-mttf-hours %g must be a positive number of hours (0: default)", v.mttfHours)
	}
	if v.trials < 0 {
		return fmt.Errorf("-trials %d must be non-negative (0: preset default)", v.trials)
	}
	if v.failDev < 0 {
		return fmt.Errorf("-fail-dev %d must be non-negative", v.failDev)
	}
	if !(v.thinkMs >= 0) || math.IsInf(v.thinkMs, 1) {
		return fmt.Errorf("-think-ms %g must be a finite, non-negative mean (0: back-to-back)", v.thinkMs)
	}
	if v.sched != "" {
		if _, err := sched.New(v.sched); err != nil {
			return fmt.Errorf("-sched %q must be one of %s", v.sched, strings.Join(sched.AllNames(), ", "))
		}
	}
	if v.memberSched != "" {
		if _, err := sched.New(v.memberSched); err != nil {
			return fmt.Errorf("-member-sched %q must be one of %s", v.memberSched, strings.Join(sched.AllNames(), ", "))
		}
	}
	if v.timeout < 0 {
		return fmt.Errorf("-timeout %s must be non-negative (0: no deadline)", v.timeout)
	}
	if v.checkpoint != "" {
		if info, err := os.Stat(v.checkpoint); err == nil && info.IsDir() {
			return fmt.Errorf("-checkpoint %s: is a directory", v.checkpoint)
		}
		if dir := filepath.Dir(v.checkpoint); dir != "." {
			if info, err := os.Stat(dir); err != nil || !info.IsDir() {
				return fmt.Errorf("-checkpoint %s: directory %s does not exist", v.checkpoint, dir)
			}
		}
	}
	return nil
}

// writeCSV writes one table's CSV artifact atomically.
func writeCSV(t experiments.Table, out string, stdout io.Writer) error {
	dir := out
	if dir == "" {
		dir = "."
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	path := filepath.Join(dir, t.ID+".csv")
	// Atomic: an interrupted run never leaves a truncated artifact.
	err := runner.WriteArtifact(path, func(w io.Writer) error {
		t.CSV(w)
		return nil
	})
	if err != nil {
		return err
	}
	fmt.Fprintln(stdout, "wrote", path)
	return nil
}
