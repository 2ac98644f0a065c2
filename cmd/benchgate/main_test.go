package main

import (
	"regexp"
	"strings"
	"testing"

	"memsim/internal/benchrec"
)

// TestCompareShowsNewGatedRows checks that a gated row only the current
// profile has is printed, marked as not gated, and counts neither as
// compared nor as a regression, while rows in both are compared and a
// gated one past the threshold regresses.
func TestCompareShowsNewGatedRows(t *testing.T) {
	res := func(ns float64) benchrec.Result { return benchrec.Result{NsPerOp: ns} }
	base := map[string]benchrec.Result{
		"internal/sim:BenchmarkRunNilProbe": res(100),
		"internal/sim:BenchmarkJSONFloat":   res(50),
	}
	cur := map[string]benchrec.Result{
		"internal/sim:BenchmarkRunNilProbe":                        res(130),
		"internal/sim:BenchmarkJSONFloat":                          res(40),
		"internal/sim:BenchmarkEngineMillion/open-jsonl/n=1000000": res(7e8),
		"internal/sim:BenchmarkJSONLObserveRun":                    res(90),
	}
	var out strings.Builder
	compared, gated, regressions := compare(&out, base, cur, regexp.MustCompile(`internal/sim:Benchmark(Run|EngineMillion)`), 0.2)
	if compared != 2 || gated != 1 || regressions != 1 {
		t.Errorf("compared, gated, regressions = %d, %d, %d; want 2, 1, 1", compared, gated, regressions)
	}
	var fresh []string
	for _, line := range strings.Split(out.String(), "\n") {
		if strings.HasSuffix(line, "(no baseline, not gated)") {
			fresh = append(fresh, strings.Fields(line)[0])
		}
	}
	if len(fresh) != 1 || fresh[0] != "internal/sim:BenchmarkEngineMillion/open-jsonl/n=1000000" {
		t.Errorf("rows marked as new: %q, want only the EngineMillion open-jsonl row\n%s", fresh, out.String())
	}
}
