// Package benchrec defines the machine-readable benchmark record that
// cmd/benchrun writes and cmd/benchgate compares (the BENCH_18.json
// format). A committed profile is the MarshalIndent of a File with
// two-space indentation and a trailing newline.
package benchrec

// Result is one benchmark measurement.
type Result struct {
	// Package is the Go package the benchmark lives in.
	Package string `json:"package"`
	// Name is the benchmark name including subbenchmarks, with the
	// GOMAXPROCS suffix stripped (BenchmarkSchedNext/SPTF/depth=8).
	Name string `json:"name"`
	// Iterations is the b.N the reported averages cover.
	Iterations int64 `json:"iterations"`
	// NsPerOp, BytesPerOp and AllocsPerOp are the standard -benchmem
	// triplet.
	NsPerOp     float64 `json:"ns_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
	// Metrics holds the custom units the benchmark reported with
	// b.ReportMetric, keyed by unit (estimates/op).
	Metrics map[string]float64 `json:"metrics,omitempty"`
}

// File is one benchmark profile document.
type File struct {
	// GoVersion records the toolchain that produced the numbers.
	GoVersion string `json:"go_version"`
	// Quick marks a CI-sized run (shorter benchtime, -short million
	// benches); quick and full numbers are not comparable.
	Quick bool `json:"quick"`
	// Benchmarks holds every measurement, sorted by package then name.
	Benchmarks []Result `json:"benchmarks"`
}
