// memstrace generates and inspects storage traces in the repository's
// text format (one "<time-ms> <r|w> <lbn> <blocks>" record per line).
//
// Usage:
//
//	memstrace -gen cello -count 50000 -o cello.txt   # generate
//	memstrace -gen tpcc -scale 4 -o tpcc.txt
//	memstrace -stats cello.txt                       # summarize
//
// To replay a trace through the simulator, use memsim -tracefile.
// Exit status: 0 on success, 1 on a rejected flag value or a failed
// command, 2 when the flags do not parse or name no command.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"

	"memsim/internal/mems"
	"memsim/internal/runner"
	"memsim/internal/trace"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is the whole CLI behind an exit code, parameterized for tests.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("memstrace", flag.ContinueOnError)
	var (
		gen      = fs.String("gen", "", "generate a synthetic trace: cello | tpcc")
		count    = fs.Int("count", 50000, "records to generate")
		capacity = fs.Int64("capacity", 0, "device capacity in sectors (default: the paper's MEMS device)")
		scale    = fs.Float64("scale", 1, "scale factor applied to arrival times")
		out      = fs.String("o", "", "output file (default stdout)")
		statsF   = fs.String("stats", "", "summarize an existing trace file")
	)
	fs.SetOutput(io.Discard)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			fs.SetOutput(stderr)
			fs.PrintDefaults()
			return 0
		}
		fmt.Fprintln(stderr, "memstrace:", err)
		return 2
	}
	fail := func(err error) int {
		fmt.Fprintln(stderr, "memstrace:", err)
		return 1
	}
	// The float check is written so that NaN, which compares false
	// against everything, fails it.
	switch {
	case *count <= 0:
		return fail(fmt.Errorf("-count %d must be positive", *count))
	case *capacity != 0 && *capacity < 1<<16: // room for the generators' hot regions, tables and log
		return fail(fmt.Errorf("-capacity %d must be at least 65536 sectors (0: the paper's MEMS device)", *capacity))
	case !(*scale > 0) || math.IsInf(*scale, 1):
		return fail(fmt.Errorf("-scale %g must be a positive, finite factor", *scale))
	case fs.NArg() > 0:
		return fail(fmt.Errorf("unexpected argument %q", fs.Arg(0)))
	}

	switch {
	case *statsF != "":
		tr, err := trace.ReadFile(*statsF)
		if err != nil {
			return fail(err)
		}
		if tr.Len() == 0 {
			return fail(fmt.Errorf("trace %s has no records", *statsF))
		}
		printStats(stdout, tr)
	case *gen != "":
		if *capacity == 0 {
			g, err := mems.NewGeometry(mems.DefaultConfig())
			if err != nil {
				return fail(err)
			}
			*capacity = g.TotalSectors
		}
		tr, err := trace.Generate(*gen, *capacity, *count)
		if err != nil {
			return fail(err)
		}
		if *scale != 1 {
			tr = tr.Scale(*scale)
		}
		if err := tr.Validate(*capacity); err != nil {
			return fail(err)
		}
		if *out == "" {
			if err := trace.Write(stdout, tr); err != nil {
				return fail(err)
			}
			return 0
		}
		if err := runner.WriteArtifact(*out, func(w io.Writer) error { return trace.Write(w, tr) }); err != nil {
			return fail(err)
		}
		fmt.Fprintf(stderr, "wrote %d records to %s\n", tr.Len(), *out)
	default:
		fmt.Fprintln(stderr, "usage: memstrace -gen cello|tpcc [-count n] [-capacity sectors] [-scale f] [-o file] | -stats file")
		return 2
	}
	return 0
}

func printStats(w io.Writer, tr *trace.Trace) {
	s := tr.Summarize()
	fmt.Fprintf(w, "trace            %s\n", tr.Name)
	fmt.Fprintf(w, "records          %d\n", s.Records)
	fmt.Fprintf(w, "duration         %.1f s\n", s.DurationMs/1000)
	fmt.Fprintf(w, "mean rate        %.1f req/s\n", s.MeanRate)
	fmt.Fprintf(w, "read fraction    %.2f\n", float64(s.Reads)/float64(s.Records))
	fmt.Fprintf(w, "mean size        %.1f sectors (%.1f KB)\n", s.MeanBlocks, s.MeanBlocks*512/1024)
	fmt.Fprintf(w, "sequential frac  %.3f\n", s.SeqFraction)
	fmt.Fprintf(w, "LBN span         %d sectors (%.2f GB)\n", s.UniqueRegion, float64(s.UniqueRegion)*512/1e9)
}
