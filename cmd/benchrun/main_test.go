package main

import (
	"reflect"
	"testing"

	"memsim/internal/benchrec"
)

// TestParseLine covers the line shapes go test -bench -benchmem prints:
// the standard triplet, a custom b.ReportMetric unit between ns/op and
// B/op, and lines that are not results.
func TestParseLine(t *testing.T) {
	cases := []struct {
		line string
		want benchrec.Result
		ok   bool
	}{
		{"BenchmarkMEMSAccess-2   \t 3964420\t       302.9 ns/op\t       0 B/op\t       0 allocs/op",
			benchrec.Result{Name: "BenchmarkMEMSAccess", Iterations: 3964420, NsPerOp: 302.9}, true},
		{"BenchmarkSchedNext/SPTF/depth=512-2 \t 200\t 19449 ns/op\t 1.970 estimates/op\t 81 B/op\t 0 allocs/op",
			benchrec.Result{Name: "BenchmarkSchedNext/SPTF/depth=512", Iterations: 200, NsPerOp: 19449,
				BytesPerOp: 81, Metrics: map[string]float64{"estimates/op": 1.97}}, true},
		{"BenchmarkEngineMillion/mems-sptf/n=100000 1 912345678 ns/op 5 B/op 1 allocs/op",
			benchrec.Result{Name: "BenchmarkEngineMillion/mems-sptf/n=100000", Iterations: 1, NsPerOp: 912345678,
				BytesPerOp: 5, AllocsPerOp: 1}, true},
		{"BenchmarkSchedNext", benchrec.Result{}, false},
		{"ok  \tmemsim\t12.3s", benchrec.Result{}, false},
		{"BenchmarkX-2 200 1.5 estimates/op", benchrec.Result{}, false},
	}
	for _, c := range cases {
		got, ok := parseLine(c.line)
		if ok != c.ok || ok && !reflect.DeepEqual(got, c.want) {
			t.Errorf("parseLine(%q) = %+v, %v; want %+v, %v", c.line, got, ok, c.want, c.ok)
		}
	}
}
