// memstrace generates, inspects and replays storage traces in the
// repository's text format (one "<time-ms> <r|w> <lbn> <blocks>" record
// per line).
//
// Usage:
//
//	memstrace -gen cello -count 50000 -o cello.txt   # generate
//	memstrace -gen tpcc -scale 4 -o tpcc.txt
//	memstrace -stats cello.txt                       # summarize
//	memstrace -replay cello.txt -device mems -sched SPTF -o run.jsonl
//	                                                 # replay through the
//	                                                 # simulator, emitting
//	                                                 # the lifecycle JSONL
//
// Replay drives the trace through the open-arrival simulation loop on the
// chosen device and scheduler, writes one JSON lifecycle record per event
// (the same schema as memsbench -trace, documented in README.md) and
// prints a per-phase service summary to stderr.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"memsim/internal/core"
	"memsim/internal/disk"
	"memsim/internal/mems"
	"memsim/internal/sched"
	"memsim/internal/sim"
	"memsim/internal/trace"
	"memsim/internal/workload"
)

func main() {
	var (
		gen      = flag.String("gen", "", "generate a synthetic trace: cello | tpcc")
		count    = flag.Int("count", 50000, "records to generate")
		capacity = flag.Int64("capacity", 0, "device capacity in sectors (default: the paper's MEMS device)")
		scale    = flag.Float64("scale", 1, "scale factor applied to arrival times")
		out      = flag.String("o", "", "output file (default stdout)")
		statsF   = flag.String("stats", "", "summarize an existing trace file")
		replayF  = flag.String("replay", "", "replay an existing trace file through the simulator")
		device   = flag.String("device", "mems", "replay device: mems | disk")
		schedN   = flag.String("sched", "FCFS", "replay scheduler: "+strings.Join(sched.AllNames(), " | "))
		warmup   = flag.Int("warmup", 0, "replay completions to discard before measuring")
	)
	flag.Parse()

	if *capacity == 0 {
		g, err := mems.NewGeometry(mems.DefaultConfig())
		if err != nil {
			fatal(err)
		}
		*capacity = g.TotalSectors
	}

	switch {
	case *statsF != "":
		tr, err := readTrace(*statsF)
		if err != nil {
			fatal(err)
		}
		printStats(tr)
	case *replayF != "":
		if err := replay(*replayF, *device, *schedN, *scale, *warmup, *out); err != nil {
			fatal(err)
		}
	case *gen != "":
		var tr *trace.Trace
		switch *gen {
		case "cello":
			tr = trace.GenerateCello(trace.DefaultCello(*capacity, *count))
		case "tpcc":
			tr = trace.GenerateTPCC(trace.DefaultTPCC(*capacity, *count))
		default:
			fatal(fmt.Errorf("unknown generator %q (want cello or tpcc)", *gen))
		}
		if *scale != 1 {
			tr = tr.Scale(*scale)
		}
		w, closeOut, err := openOut(*out)
		if err != nil {
			fatal(err)
		}
		if err := trace.Write(w, tr); err != nil {
			fatal(err)
		}
		if err := closeOut(); err != nil {
			fatal(err)
		}
		if *out != "" {
			fmt.Fprintf(os.Stderr, "wrote %d records to %s\n", tr.Len(), *out)
		}
	default:
		flag.Usage()
		os.Exit(2)
	}
}

// replay runs a trace file through the simulator on the named device and
// scheduler, streaming lifecycle JSONL to outPath (stdout when empty) and
// a per-phase summary to stderr.
func replay(path, device, schedName string, scale float64, warmup int, outPath string) error {
	dev, err := newDevice(device)
	if err != nil {
		return err
	}
	s, err := sched.New(schedName)
	if err != nil {
		return fmt.Errorf("%w (want one of %s)", err, strings.Join(sched.AllNames(), ", "))
	}
	tr, err := readTrace(path)
	if err != nil {
		return err
	}
	if scale != 1 {
		tr = tr.Scale(scale)
	}
	if err := tr.Validate(dev.Capacity()); err != nil {
		return fmt.Errorf("trace does not fit %s (%d sectors): %w", device, dev.Capacity(), err)
	}

	w, closeOut, err := openOut(outPath)
	if err != nil {
		return err
	}
	jp := sim.NewJSONLProbe(w)
	pc := sim.NewPhaseCollector()
	res := sim.Run(nil, dev, s, workload.NewFromSlice(tr.Requests()),
		sim.Options{Warmup: warmup, Probe: sim.MultiProbe{pc, jp}})
	if err := jp.Flush(); err != nil {
		return fmt.Errorf("writing lifecycle trace: %w", err)
	}
	if err := closeOut(); err != nil {
		return err
	}

	ps := res.Phases
	fmt.Fprintf(os.Stderr, "replayed %d requests (%s, %s), %.1f ms simulated\n",
		res.Requests, device, s.Name(), res.Elapsed)
	fmt.Fprintf(os.Stderr, "mean response   %8.3f ms   service %8.3f ms\n",
		res.Response.Mean(), res.Service.Mean())
	fmt.Fprintf(os.Stderr, "mean phases     seek %.3f  settle/rot %.3f  turnaround %.3f  transfer %.3f  overhead %.3f ms\n",
		ps.Seek.Mean(), ps.Settle.Mean(), ps.Turnaround.Mean(), ps.Transfer.Mean(), ps.Overhead.Mean())
	fmt.Fprintf(os.Stderr, "positioning     mean %.3f  p95 %.3f  p99 %.3f ms (share %.2f of service)\n",
		ps.Positioning.Mean(), ps.Positioning.P95(), ps.Positioning.P99(),
		ps.Positioning.Mean()/ps.Service.Mean())
	return nil
}

// newDevice builds the replay device, rejecting unknown names cleanly.
func newDevice(name string) (core.Device, error) {
	switch name {
	case "mems":
		return mems.NewDevice(mems.DefaultConfig())
	case "disk":
		return disk.NewDevice(disk.Atlas10K())
	default:
		return nil, fmt.Errorf("unknown device %q (want mems or disk)", name)
	}
}

// readTrace loads and parses a trace file.
func readTrace(path string) (*trace.Trace, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return trace.Read(f, path)
}

// openOut resolves the -o destination: stdout when empty, otherwise a
// freshly created file. Directories and uncreatable paths become clean
// errors before any simulation work starts.
func openOut(path string) (io.Writer, func() error, error) {
	if path == "" {
		return os.Stdout, func() error { return nil }, nil
	}
	if info, err := os.Stat(path); err == nil && info.IsDir() {
		return nil, nil, fmt.Errorf("-o %s: is a directory", path)
	}
	f, err := os.Create(path)
	if err != nil {
		return nil, nil, fmt.Errorf("-o %s: %w", path, err)
	}
	return f, f.Close, nil
}

func printStats(tr *trace.Trace) {
	s := tr.Summarize()
	fmt.Printf("trace            %s\n", tr.Name)
	fmt.Printf("records          %d\n", s.Records)
	fmt.Printf("duration         %.1f s\n", s.DurationMs/1000)
	fmt.Printf("mean rate        %.1f req/s\n", s.MeanRate)
	fmt.Printf("read fraction    %.2f\n", float64(s.Reads)/float64(s.Records))
	fmt.Printf("mean size        %.1f sectors (%.1f KB)\n", s.MeanBlocks, s.MeanBlocks*512/1024)
	fmt.Printf("sequential frac  %.3f\n", s.SeqFraction)
	fmt.Printf("LBN span         %d sectors (%.2f GB)\n", s.UniqueRegion, float64(s.UniqueRegion)*512/1e9)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "memstrace:", err)
	os.Exit(1)
}
