// Command memsperf is the repository's benchmark: the host cost of the
// simulator on five workloads, end to end and layer by layer.
//
// Usage, from this directory:
//
//	go run .                                  # every workload, untraced then traced, each in a child process
//	go run . -workload tpcc-deep -trace 1     # one workload in this process
//	go run . -smoke                           # tiny inputs, one rep each, for tests
//	go run . -o out.json                      # also write every metric and host metadata
//	go run . -seed 2 -update                  # re-pin the expected results of seed 2
//
// A single-workload run prints its metrics, and as its last line one
// JSON object {"correct", "attempted", "failed", "metrics"}: end-to-end
// metrics untraced, per-layer metrics with -trace 1. It exits 1 when the
// result differs from the pinned one, and 2 on bad flags. README.md
// describes the workloads, the metrics and how to read the ledger.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"strings"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("memsperf", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		name     = fs.String("workload", "", "workload to run in this process (one of "+strings.Join(workloadNames(), ", ")+"); empty runs them all in child processes")
		seed     = fs.Int64("seed", 1, "seed the workload inputs are generated from; seeds 1 and 2 have pinned results")
		seconds  = fs.Int("seconds", 20, "measured time per run, in seconds; a run always completes its minimum reps")
		traceArg = fs.Int("trace", 0, "1 for a traced run reporting per-layer metrics, 0 for end-to-end metrics")
		smoke    = fs.Bool("smoke", false, "tiny inputs and one rep per workload, traced and untraced, in this process")
		update   = fs.Bool("update", false, "re-pin the expected result of seed 1 or 2 to this run's")
		out      = fs.String("o", "", "also write every metric with its unit, plus host metadata, as JSON to this file")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	usage := func(format string, a ...any) int {
		fmt.Fprintf(stderr, "memsperf: "+format+"\n", a...)
		return 2
	}
	switch {
	case fs.NArg() > 0:
		return usage("unexpected argument %q", fs.Arg(0))
	case *traceArg != 0 && *traceArg != 1:
		return usage("-trace %d must be 0 or 1", *traceArg)
	case *seconds < 0:
		return usage("-seconds %d must not be negative", *seconds)
	}
	selected := workloads
	if *name != "" {
		w, ok := findWorkload(*name)
		if !ok {
			return usage("unknown workload %q (have %s)", *name, strings.Join(workloadNames(), ", "))
		}
		selected = []benchWorkload{w}
	}
	o := options{seed: *seed, seconds: *seconds, trace: *traceArg == 1, smoke: *smoke, update: *update}

	// show prints a report measured in this process.
	show := func(r report) {
		printReport(stdout, r, defsFor(r))
		if !r.Correct {
			fmt.Fprintf(stderr, "memsperf: %s: %s\n", r.Workload, r.Check)
		}
	}
	var reports []report
	ok := true
	switch {
	case *smoke || *name == "":
		for _, w := range selected {
			for _, traced := range []bool{false, true} {
				o.trace = traced
				var rep report
				var err error
				if *smoke {
					rep, err = measure(w, o)
					if err == nil {
						show(rep)
					}
				} else {
					rep, err = runChild(w.name, o, stdout, stderr)
				}
				if err != nil {
					fmt.Fprintln(stderr, "memsperf:", err)
					ok = false
					continue
				}
				reports = append(reports, rep)
				ok = ok && rep.Correct
			}
		}
		printSummary(stdout, reports)
	default:
		rep, err := measure(selected[0], o)
		if err != nil {
			fmt.Fprintln(stderr, "memsperf:", err)
			return 1
		}
		reports = append(reports, rep)
		ok = rep.Correct
		show(rep)
		defer printResult(stdout, rep)
	}
	if *out != "" {
		if err := writeReports(*out, reports); err != nil {
			fmt.Fprintln(stderr, "memsperf:", err)
			ok = false
		}
	}
	if !ok {
		return 1
	}
	return 0
}

func defsFor(r report) []metricDef {
	if r.Trace == 1 {
		return perLayer()
	}
	return endToEnd
}

// printResult writes the last line of a single-workload run.
func printResult(w io.Writer, r report) {
	type metric struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	line := struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{r.Correct, r.Attempted, r.Failed, map[string]metric{}}
	for k, s := range r.Metrics {
		line.Metrics[k] = metric{s.Value, s.Unit}
	}
	b, err := json.Marshal(line)
	if err != nil {
		panic(err) // every value is finite
	}
	fmt.Fprintln(w, string(b))
}

// runChild runs one workload in a fresh process of this binary, so each
// workload starts with a clean heap, GC state and peak RSS, and returns
// the report the child wrote.
func runChild(name string, o options, stdout, stderr io.Writer) (report, error) {
	exe, err := os.Executable()
	if err != nil {
		return report{}, err
	}
	f, err := os.CreateTemp(".", ".memsperf-*.json")
	if err != nil {
		return report{}, err
	}
	f.Close()
	defer os.Remove(f.Name())
	trace := 0
	if o.trace {
		trace = 1
	}
	args := []string{"-workload", name, "-seed", strconv.FormatInt(o.seed, 10),
		"-seconds", strconv.Itoa(o.seconds), "-trace", strconv.Itoa(trace),
		"-o", f.Name()}
	if o.update {
		args = append(args, "-update")
	}
	cmd := exec.Command(exe, args...)
	cmd.Stdout, cmd.Stderr = stdout, stderr
	runErr := cmd.Run()
	var fr fileReport
	data, err := os.ReadFile(f.Name())
	if err == nil {
		err = json.Unmarshal(data, &fr)
	}
	if err != nil || len(fr.Runs) != 1 {
		return report{}, fmt.Errorf("%s trace=%d: no report (%v, %v)", name, trace, runErr, err)
	}
	return fr.Runs[0], nil
}

// printSummary tabulates the end-to-end medians of every untraced run.
func printSummary(w io.Writer, reports []report) {
	fmt.Fprintf(w, "\n%-16s", "workload")
	for _, d := range endToEnd {
		fmt.Fprintf(w, " %20s", d.name+" ("+d.unit+")")
	}
	fmt.Fprintln(w, "  result")
	for _, r := range reports {
		if r.Trace == 1 {
			continue
		}
		fmt.Fprintf(w, "%-16s", r.Workload)
		for _, d := range endToEnd {
			fmt.Fprintf(w, " %20.6g", r.Metrics[d.name].Value)
		}
		fmt.Fprintln(w, "  "+r.Check)
	}
}

// hostInfo is the metadata a measurement needs to be read against.
type hostInfo struct {
	GoVersion  string `json:"go_version"`
	OS         string `json:"os"`
	Arch       string `json:"arch"`
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	CPUModel   string `json:"cpu_model"`
}

type fileReport struct {
	Host hostInfo `json:"host"`
	Runs []report `json:"runs"`
}

func host() hostInfo {
	h := hostInfo{
		GoVersion:  runtime.Version(),
		OS:         runtime.GOOS,
		Arch:       runtime.GOARCH,
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		CPUModel:   "unknown",
	}
	if f, err := os.Open("/proc/cpuinfo"); err == nil {
		defer f.Close()
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
				h.CPUModel = strings.TrimSpace(v)
				break
			}
		}
	}
	return h
}

func writeReports(path string, reports []report) error {
	b, err := json.MarshalIndent(fileReport{Host: host(), Runs: reports}, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, append(b, '\n'), 0o644); err != nil {
		return fmt.Errorf("-o: %w", err)
	}
	return nil
}
