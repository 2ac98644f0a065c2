// memsim runs one storage simulation from flags and prints its metrics:
// the paper's random workload (§3), or a Cello-like or TPC-C-like trace,
// generated or read from a file. With -o it also writes the run's
// request-lifecycle JSONL (the memsbench -trace schema; see README.md).
//
// Usage examples:
//
//	memsim -device mems -sched SPTF -rate 1500 -requests 20000
//	memsim -device disk -sched C-LOOK -rate 100
//	memsim -device mems -settle 0 -sched SSTF_LBN -rate 2000
//	memsim -device mems -trace cello -scale 16
//	memsim -tracefile cello.txt -warmup 0 -check -o run.jsonl
//
// A trace, generated or read, is scaled by -scale, clipped to -requests
// and validated against the device before it runs. The -o file appears
// only when the run succeeds. Exit status: 0 on success, 1 on a rejected
// flag value or a failed or interrupted run, 2 when flags do not parse.
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
	"strings"
	"syscall"

	"memsim/internal/core"
	"memsim/internal/disk"
	"memsim/internal/mems"
	"memsim/internal/runner"
	"memsim/internal/sched"
	"memsim/internal/sim"
	"memsim/internal/trace"
	"memsim/internal/workload"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is the whole CLI behind an exit code, parameterized for tests.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("memsim", flag.ContinueOnError)
	var (
		device    = fs.String("device", "mems", "device model: mems | disk")
		schedName = fs.String("sched", "SPTF", "scheduler: "+strings.Join(sched.AllNames(), " | "))
		rate      = fs.Float64("rate", 1000, "arrival rate for the random workload (req/s)")
		requests  = fs.Int("requests", 20000, "number of requests (a trace is clipped to this many)")
		warmup    = fs.Int("warmup", 1000, "completions excluded from statistics")
		settle    = fs.Float64("settle", 1, "MEMS settling time constants")
		seed      = fs.Int64("seed", 1, "workload seed")
		traceKind = fs.String("trace", "", "replay a synthetic trace instead: cello | tpcc")
		traceFile = fs.String("tracefile", "", "replay a trace file (text format)")
		scale     = fs.Float64("scale", 1, "trace scale factor (arrival-rate multiplier)")
		progress  = fs.Bool("progress", false, "report completions to stderr while the run is in flight")
		out       = fs.String("o", "", "write request-lifecycle JSONL (one event per line) to this file")
		check     = fs.Bool("check", false, "enable simulator invariant self-checking (conservation, clock monotonicity, breakdown reconciliation)")
	)
	fs.SetOutput(io.Discard)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			fs.SetOutput(stderr)
			fs.PrintDefaults()
			return 0
		}
		fmt.Fprintln(stderr, "memsim:", err)
		return 2
	}
	fail := func(err error) int {
		fmt.Fprintln(stderr, "memsim:", err)
		return 1
	}
	// Parse-time validation, so a bad value fails with one line before
	// any simulation starts. The float checks are written so that NaN,
	// which compares false against everything, fails them. -seed accepts
	// any value: every seed names a random stream.
	switch {
	case fs.NArg() > 0:
		return fail(fmt.Errorf("unexpected argument %q", fs.Arg(0)))
	case !(*rate > 0) || math.IsInf(*rate, 1):
		return fail(fmt.Errorf("-rate %g must be a positive, finite arrival rate", *rate))
	case *requests <= 0:
		return fail(fmt.Errorf("-requests %d must be positive", *requests))
	case *warmup < 0:
		return fail(fmt.Errorf("-warmup %d must be non-negative", *warmup))
	case *warmup >= *requests:
		return fail(fmt.Errorf("-warmup %d leaves none of the %d -requests to measure", *warmup, *requests))
	case !(*settle >= 0) || math.IsInf(*settle, 1):
		return fail(fmt.Errorf("-settle %g must be a finite, non-negative number of time constants", *settle))
	case !(*scale > 0) || math.IsInf(*scale, 1):
		return fail(fmt.Errorf("-scale %g must be a positive, finite factor", *scale))
	case *traceKind != "" && *traceFile != "":
		return fail(errors.New("-trace and -tracefile are exclusive"))
	}

	var (
		dev core.Device
		err error
	)
	switch *device {
	case "mems":
		cfg := mems.DefaultConfig()
		cfg.SettleConstants = *settle
		dev, err = mems.NewDevice(cfg)
	case "disk":
		dev, err = disk.NewDevice(disk.Atlas10K())
	default:
		err = fmt.Errorf("unknown device %q (want mems or disk)", *device)
	}
	if err != nil {
		return fail(err)
	}
	s, err := sched.New(*schedName)
	if err != nil {
		return fail(fmt.Errorf("%w (want one of %s)", err, strings.Join(sched.AllNames(), ", ")))
	}

	n := *requests
	var src workload.Source
	if *traceKind == "" && *traceFile == "" {
		src = workload.DefaultRandom(*rate, dev.SectorSize(), dev.Capacity(), n, *seed)
	} else {
		var tr *trace.Trace
		if *traceFile != "" {
			tr, err = trace.ReadFile(*traceFile)
		} else {
			tr, err = trace.Generate(*traceKind, dev.Capacity(), n)
		}
		if err != nil {
			return fail(err)
		}
		tr = tr.Scale(*scale).Clip(n)
		if err := tr.Validate(dev.Capacity()); err != nil {
			return fail(err)
		}
		if n = tr.Len(); *warmup >= n {
			return fail(fmt.Errorf("-warmup %d leaves none of the trace's %d requests to measure", *warmup, n))
		}
		src = workload.NewFromSlice(tr.Requests())
	}

	// SIGINT/SIGTERM stop the run cooperatively, so an interrupted run
	// fails cleanly, leaving neither the -o file nor its temporary file.
	sigCtx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	sctx := &sim.Context{Ctx: sigCtx, Check: *check}
	if *progress {
		sctx.Probe = &sim.ProgressProbe{Report: func(completed int, simMs float64) {
			fmt.Fprintf(stderr, "memsim: %d/%d requests, %.0f ms simulated\n", completed, n, simMs)
		}}
	}
	pc := sim.NewPhaseCollector()
	var res sim.Result
	simulate := func(probe sim.Probe) (err error) {
		defer func() {
			if r := recover(); r != nil {
				// An invariant violation joins one line per violation.
				err = errors.New(strings.ReplaceAll(fmt.Sprint(r), "\n", "; "))
			}
		}()
		res = sim.Run(sctx, dev, s, src, sim.Options{Warmup: *warmup, Probe: probe})
		switch {
		case sctx.Cancelled():
			return errors.New("interrupted")
		case math.IsInf(res.Elapsed, 0) || math.IsNaN(res.Elapsed):
			return fmt.Errorf("simulated clock overflowed (%g ms)", res.Elapsed)
		}
		return nil
	}
	if *out == "" {
		err = simulate(pc)
	} else {
		err = runner.WriteArtifact(*out, func(w io.Writer) error {
			jp := sim.NewJSONLProbe(w)
			if err := simulate(sim.MultiProbe{pc, jp}); err != nil {
				return err
			}
			return jp.Flush()
		})
	}
	if err != nil {
		return fail(err)
	}

	ps := res.Phases
	fmt.Fprintf(stdout, "device           %s\n", dev.Name())
	fmt.Fprintf(stdout, "scheduler        %s\n", s.Name())
	fmt.Fprintf(stdout, "requests         %d (after %d warmup)\n", res.Requests, *warmup)
	fmt.Fprintf(stdout, "simulated time   %.1f ms\n", res.Elapsed)
	fmt.Fprintf(stdout, "utilization      %.1f%%\n", res.Utilization()*100)
	fmt.Fprintf(stdout, "mean response    %.3f ms\n", res.Response.Mean())
	fmt.Fprintf(stdout, "response stddev  %.3f ms\n", res.Response.StdDev())
	fmt.Fprintf(stdout, "response cv²     %.3f\n", res.Response.SquaredCV())
	fmt.Fprintf(stdout, "max response     %.3f ms\n", res.Response.Max())
	fmt.Fprintf(stdout, "mean service     %.3f ms\n", res.Service.Mean())
	fmt.Fprintf(stdout, "mean queue len   %.2f (max %d)\n", res.QueueLen.Mean(), res.MaxQueue)
	fmt.Fprintf(stdout, "mean phases      seek %.3f  settle/rot %.3f  turnaround %.3f  transfer %.3f  overhead %.3f ms\n",
		ps.Seek.Mean(), ps.Settle.Mean(), ps.Turnaround.Mean(), ps.Transfer.Mean(), ps.Overhead.Mean())
	fmt.Fprintf(stdout, "positioning      mean %.3f  p95 %.3f  p99 %.3f ms (share %.2f of service)\n",
		ps.Positioning.Mean(), ps.Positioning.P95(), ps.Positioning.P99(),
		ps.Positioning.Mean()/ps.Service.Mean())
	if *out != "" {
		fmt.Fprintf(stderr, "memsim: wrote lifecycle trace to %s\n", *out)
	}
	return 0
}
