// Command benchgate compares a current benchrun profile against the
// committed baseline (BENCH_19.json) and fails when a gated benchmark
// regressed beyond the threshold — the CI side of the
// benchmark-regression harness.
//
// Usage:
//
//	go run ./cmd/benchgate -baseline BENCH_19.json -current /tmp/cur.json
//
// Only benchmarks matching -gate (default: the engine hot path,
// BenchmarkRun*/BenchmarkEngineMillion in internal/sim, the MEMS
// device's BenchmarkMEMSAccess/BenchmarkMEMSEstimate/
// BenchmarkMEMSLowerBound, and the sled solver's
// BenchmarkSeekSolverClosedForm/BenchmarkSeekSolverMovingY in
// internal/physics) are enforced;
// everything present in both files is printed for the log. A gated
// benchmark missing from either side is reported but not fatal, so a
// quick (CI-sized) run — whose EngineMillion subbenches carry a
// different n= scale — gates on the benches both profiles share
// instead of comparing across scales.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"regexp"
	"sort"

	"memsim/internal/benchrec"
)

func load(path string) (map[string]benchrec.Result, *benchrec.File, error) {
	buf, err := os.ReadFile(path)
	if err != nil {
		return nil, nil, err
	}
	var f benchrec.File
	if err := json.Unmarshal(buf, &f); err != nil {
		return nil, nil, fmt.Errorf("%s: %v", path, err)
	}
	m := make(map[string]benchrec.Result, len(f.Benchmarks))
	for _, r := range f.Benchmarks {
		m[r.Package+":"+r.Name] = r
	}
	return m, &f, nil
}

func main() {
	baseline := flag.String("baseline", "BENCH_19.json", "committed baseline JSON")
	current := flag.String("current", "", "freshly measured JSON (required)")
	threshold := flag.Float64("threshold", 0.20, "fatal ns/op regression fraction on gated benches")
	gate := flag.String("gate", `internal/sim:Benchmark(Run|EngineMillion|MEMS(Access|Estimate|LowerBound))|internal/physics:BenchmarkSeekSolver(ClosedForm|MovingY)`, "package:name regexp selecting enforced benches")
	flag.Parse()
	if *current == "" {
		fmt.Fprintln(os.Stderr, "benchgate: -current is required")
		os.Exit(2)
	}
	gateRe, err := regexp.Compile(*gate)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchgate: bad -gate: %v\n", err)
		os.Exit(2)
	}
	base, baseDoc, err := load(*baseline)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchgate: %v\n", err)
		os.Exit(2)
	}
	cur, curDoc, err := load(*current)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchgate: %v\n", err)
		os.Exit(2)
	}
	if baseDoc.Quick != curDoc.Quick {
		fmt.Printf("note: comparing quick=%v against quick=%v — absolute times differ in precision\n",
			curDoc.Quick, baseDoc.Quick)
	}

	keys := make([]string, 0, len(base))
	for k := range base {
		keys = append(keys, k)
	}
	sort.Strings(keys)

	var regressions, gated, compared int
	fmt.Printf("%-68s %14s %14s %8s\n", "benchmark", "base ns/op", "cur ns/op", "Δ")
	for _, k := range keys {
		b := base[k]
		c, ok := cur[k]
		enforced := gateRe.MatchString(k)
		if !ok {
			if enforced {
				fmt.Printf("%-68s %14.0f %14s %8s (gated bench missing from current run)\n",
					k, b.NsPerOp, "—", "—")
			}
			continue
		}
		compared++
		delta := (c.NsPerOp - b.NsPerOp) / b.NsPerOp
		mark := " "
		if enforced {
			gated++
			mark = "*"
			if delta > *threshold {
				regressions++
				mark = "!"
			}
		}
		fmt.Printf("%-68s %14.0f %14.0f %+7.1f%% %s\n", k, b.NsPerOp, c.NsPerOp, delta*100, mark)
	}
	fmt.Printf("\n%d compared, %d gated (threshold +%.0f%%), %d regressions\n",
		compared, gated, *threshold*100, regressions)
	if gated == 0 {
		fmt.Fprintln(os.Stderr, "benchgate: no gated benchmarks were compared — gate pattern or profiles are wrong")
		os.Exit(1)
	}
	if regressions > 0 {
		fmt.Fprintf(os.Stderr, "benchgate: %d gated benchmark(s) regressed beyond +%.0f%% ns/op\n",
			regressions, *threshold*100)
		os.Exit(1)
	}
}
