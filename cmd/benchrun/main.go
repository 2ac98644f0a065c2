// Command benchrun runs the repository's benchmark suites and writes
// their results as machine-readable JSON (the BENCH_23.json format),
// the input side of the benchmark-regression harness (cmd/benchgate
// compares two such files).
//
// Usage:
//
//	go run ./cmd/benchrun -out BENCH_23.json          # full profile
//	go run ./cmd/benchrun -quick -out /tmp/cur.json   # CI-sized
//
// The suites cover the engine hot path (./internal/sim BenchmarkRun*,
// BenchmarkPhaseCollector, BenchmarkJSONLObserve(Run), the trace's float
// writer against strconv (BenchmarkJSONFloat), device Access,
// SPTF-style EstimateAccess pricing and the MEMS lower bound), the sled
// seek solver (./internal/physics: a rest-to-rest X seek and a moving Y
// seek between row boundaries), the
// schedulers at queue depths 8/64/512/4096 (BenchmarkSchedNext, every
// algorithm, with the full estimates and the bounds per dispatch), the
// stats backends
// (./internal/stats Dist/Sketch/Sample benches), the fault layer's
// artifact kernels (./internal/fault: the remap artifact's slip-remap
// scan and the fault artifact's loss Monte Carlo), the workload layer
// (./internal/workload BenchmarkSourceNext: one Random.Next, with its
// allocations per request), and the
// million-request end-to-end runs in the open, closed and volume
// regimes (BenchmarkEngineMillion, whose open-jsonl row adds a JSONL
// lifecycle trace to the open row and whose volume row, the one
// multi-device row, is a failing and rebuilding parity volume under
// transient faults; -quick
// drops them to 100k requests, which also changes the subbench name so
// the gate never compares across scales). All suites run with
// -benchmem, so every record carries ns/op, B/op and allocs/op, plus
// any custom unit the benchmark reports (estimates/op, bounds/op).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"regexp"
	"runtime"
	"sort"
	"strconv"
	"strings"

	"memsim/internal/benchrec"
	"memsim/internal/runner"
)

// suite is one `go test -bench` invocation.
type suite struct {
	pkg     string
	pattern string
	// benchtime overrides the quick/full default when non-empty.
	benchtime string
	short     bool
}

// procSuffix is the GOMAXPROCS suffix go test appends to a benchmark
// name.
var procSuffix = regexp.MustCompile(`-\d+$`)

// parseLine parses one result line of `go test -bench -benchmem`: the
// name, the iteration count, then value-unit pairs — ns/op, any custom
// units from b.ReportMetric, B/op and allocs/op. ok is false for any
// other line.
func parseLine(line string) (r benchrec.Result, ok bool) {
	f := strings.Fields(line)
	if len(f) < 4 || len(f)%2 != 0 || !strings.HasPrefix(f[0], "Benchmark") {
		return r, false
	}
	iters, err := strconv.ParseInt(f[1], 10, 64)
	if err != nil {
		return r, false
	}
	r = benchrec.Result{Name: procSuffix.ReplaceAllString(f[0], ""), Iterations: iters}
	for i := 2; i < len(f); i += 2 {
		v, err := strconv.ParseFloat(f[i], 64)
		if err != nil {
			return r, false
		}
		switch unit := f[i+1]; unit {
		case "ns/op":
			r.NsPerOp, ok = v, true
		case "B/op":
			r.BytesPerOp = int64(v)
		case "allocs/op":
			r.AllocsPerOp = int64(v)
		default:
			if r.Metrics == nil {
				r.Metrics = make(map[string]float64)
			}
			r.Metrics[unit] = v
		}
	}
	return r, ok
}

func main() {
	out := flag.String("out", "BENCH_23.json", "output JSON path")
	quick := flag.Bool("quick", false, "CI-sized run: shorter benchtime, 100k-request EngineMillion")
	flag.Parse()

	bt := "1s"
	schedBT := "200x"
	if *quick {
		bt = "0.2s"
		schedBT = "50x"
	}
	suites := []suite{
		{pkg: "./internal/sim", pattern: "^(BenchmarkRunNilProbe|BenchmarkRunDiscard|BenchmarkRunPhaseStats|BenchmarkPhaseCollector|BenchmarkJSONLObserve|BenchmarkJSONLObserveRun|BenchmarkJSONFloat|BenchmarkMEMSAccess|BenchmarkDiskAccess|BenchmarkMEMSEstimate|BenchmarkMEMSLowerBound|BenchmarkDiskEstimate)$", benchtime: bt},
		{pkg: "./internal/sim", pattern: "^BenchmarkEngineMillion$", benchtime: "1x", short: *quick},
		{pkg: "./internal/physics", pattern: "^(BenchmarkSeekSolverClosedForm|BenchmarkSeekSolverRestToRest|BenchmarkSeekSolverMovingY)$", benchtime: bt},
		{pkg: ".", pattern: "^BenchmarkSchedNext$", benchtime: schedBT},
		{pkg: "./internal/stats", pattern: "^(BenchmarkDistAdd|BenchmarkSketchPercentile|BenchmarkSamplePercentileRepeated)$", benchtime: bt},
		{pkg: "./internal/fault", pattern: "^(BenchmarkSlipRemapScan|BenchmarkLossProbability)$", benchtime: bt},
		{pkg: "./internal/workload", pattern: "^BenchmarkSourceNext$", benchtime: bt},
	}

	doc := benchrec.File{GoVersion: runtime.Version(), Quick: *quick}
	for _, s := range suites {
		rs, err := runSuite(s)
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchrun: %s %q: %v\n", s.pkg, s.pattern, err)
			os.Exit(1)
		}
		doc.Benchmarks = append(doc.Benchmarks, rs...)
	}
	sort.Slice(doc.Benchmarks, func(i, j int) bool {
		a, b := doc.Benchmarks[i], doc.Benchmarks[j]
		if a.Package != b.Package {
			return a.Package < b.Package
		}
		return a.Name < b.Name
	})

	buf, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchrun: %v\n", err)
		os.Exit(1)
	}
	buf = append(buf, '\n')
	if err := runner.WriteArtifact(*out, func(w io.Writer) error {
		_, err := w.Write(buf)
		return err
	}); err != nil {
		fmt.Fprintf(os.Stderr, "benchrun: %v\n", err)
		os.Exit(1)
	}
	fmt.Printf("benchrun: wrote %d benchmarks to %s\n", len(doc.Benchmarks), *out)
}

// runSuite executes one go test -bench invocation and parses its
// benchmark lines.
func runSuite(s suite) ([]benchrec.Result, error) {
	args := []string{"test", "-run", "^$", "-bench", s.pattern, "-benchmem",
		"-benchtime", s.benchtime}
	if s.short {
		args = append(args, "-short")
	}
	args = append(args, s.pkg)
	fmt.Fprintf(os.Stderr, "benchrun: go %s\n", strings.Join(args, " "))
	cmd := exec.Command("go", args...)
	cmd.Stderr = os.Stderr
	outBuf, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("%v\n%s", err, outBuf)
	}
	pkg := packageName(string(outBuf), s.pkg)
	var rs []benchrec.Result
	for _, line := range strings.Split(string(outBuf), "\n") {
		if r, ok := parseLine(line); ok {
			r.Package = pkg
			rs = append(rs, r)
		}
	}
	if len(rs) == 0 {
		return nil, fmt.Errorf("no benchmark lines in output:\n%s", outBuf)
	}
	return rs, nil
}

// packageName extracts the import path from the trailing "ok <pkg> ..."
// line, falling back to the relative path.
func packageName(output, fallback string) string {
	for _, line := range strings.Split(output, "\n") {
		if f := strings.Fields(line); len(f) >= 2 && f[0] == "ok" {
			return f[1]
		}
	}
	return fallback
}
