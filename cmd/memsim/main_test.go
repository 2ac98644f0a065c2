package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// execRun invokes the CLI entry point with captured output.
func execRun(args ...string) (code int, stdout, stderr string) {
	var out, errw bytes.Buffer
	code = run(args, &out, &errw)
	return code, out.String(), errw.String()
}

// wantOneLineFailure checks a rejected invocation: the given exit code and
// exactly one stderr line mentioning want.
func wantOneLineFailure(t *testing.T, args []string, code int, want string) {
	t.Helper()
	got, _, stderr := execRun(args...)
	if got != code || strings.Count(stderr, "\n") != 1 || !strings.Contains(stderr, want) {
		t.Errorf("%q: exit %d, stderr %q; want exit %d and one line mentioning %q", args, got, stderr, code, want)
	}
}

// writeTrace writes a trace file into a test directory.
func writeTrace(t *testing.T, content string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "t.txt")
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestNumericFlags(t *testing.T) {
	// Every numeric flag at 0, -1, NaN and +Inf. A value either runs
	// (exit 0), is rejected (exit 1, one stderr line), or does not parse
	// as the flag's type (exit 2, one stderr line).
	const (
		accepted = 0
		rejected = 1
		noParse  = 2
	)
	cases := []struct {
		flag, value string
		want        int
		why         string // for accepted values
	}{
		{"-rate", "0", rejected, ""},
		{"-rate", "-1", rejected, ""},
		{"-rate", "NaN", rejected, ""},
		{"-rate", "+Inf", rejected, ""},
		{"-requests", "0", rejected, ""},
		{"-requests", "-1", rejected, ""},
		{"-requests", "NaN", noParse, ""},
		{"-requests", "+Inf", noParse, ""},
		{"-warmup", "0", accepted, "every completion is measured"},
		{"-warmup", "-1", rejected, ""},
		{"-warmup", "NaN", noParse, ""},
		{"-warmup", "+Inf", noParse, ""},
		{"-settle", "0", accepted, "the paper's no-settling case"},
		{"-settle", "-1", rejected, ""},
		{"-settle", "NaN", rejected, ""},
		{"-settle", "+Inf", rejected, ""},
		{"-seed", "0", accepted, "every seed names a random stream"},
		{"-seed", "-1", accepted, "every seed names a random stream"},
		{"-seed", "NaN", noParse, ""},
		{"-seed", "+Inf", noParse, ""},
		{"-scale", "0", rejected, ""},
		{"-scale", "-1", rejected, ""},
		{"-scale", "NaN", rejected, ""},
		{"-scale", "+Inf", rejected, ""},
	}
	for _, tc := range cases {
		for _, src := range [][]string{nil, {"-trace", "cello"}, {"-trace", "tpcc"}} {
			args := append([]string{"-requests", "200", "-warmup", "0"}, src...)
			args = append(args, tc.flag, tc.value)
			code, _, stderr := execRun(args...)
			switch {
			case tc.want == accepted && tc.why == "":
				t.Errorf("%s %s is accepted without a reason", tc.flag, tc.value)
			case code != tc.want:
				t.Errorf("%q: exit %d, want %d; stderr:\n%s", args, code, tc.want, stderr)
			case tc.want != accepted && strings.Count(stderr, "\n") != 1:
				t.Errorf("%q: stderr is not one line:\n%s", args, stderr)
			case tc.want != accepted && !strings.Contains(stderr, tc.flag):
				t.Errorf("%q: stderr does not name %s: %s", args, tc.flag, stderr)
			}
		}
	}
}

func TestBadFlagCombinations(t *testing.T) {
	wantOneLineFailure(t, []string{"-warmup", "100000", "-requests", "2000"}, 1, "-warmup")
	wantOneLineFailure(t, []string{"-warmup", "2000", "-requests", "2000"}, 1, "-warmup")
	wantOneLineFailure(t, []string{"-trace", "cello", "-tracefile", "x.txt"}, 1, "exclusive")
	wantOneLineFailure(t, []string{"-trace", "sprite"}, 1, "sprite")
	wantOneLineFailure(t, []string{"-requests", "200", "stray"}, 1, "stray")
	wantOneLineFailure(t, []string{"-no-such-flag"}, 2, "no-such-flag")
}

func TestWarmupCoveringTheTraceRejected(t *testing.T) {
	// -requests does not bound a trace file's length from below: the
	// warmup check runs again against the records actually loaded.
	path := writeTrace(t, "0.0 r 10 8\n5.0 w 5000 8\n")
	wantOneLineFailure(t, []string{"-tracefile", path, "-warmup", "2"}, 1, "-warmup 2")
}

func TestDeviceValidation(t *testing.T) {
	for _, dev := range []string{"mems", "disk"} {
		if code, _, stderr := execRun("-device", dev, "-requests", "200", "-warmup", "0"); code != 0 {
			t.Errorf("-device %s: exit %d, stderr:\n%s", dev, code, stderr)
		}
	}
	wantOneLineFailure(t, []string{"-device", "floppy"}, 1, "floppy")
}

func TestReplayValidation(t *testing.T) {
	// Errors surface before any simulation work: bad scheduler,
	// unreadable trace, oversized trace.
	path := writeTrace(t, "0.0 r 10 4\n")
	wantOneLineFailure(t, []string{"-tracefile", path, "-warmup", "0", "-sched", "ELEVATOR"}, 1, "ELEVATOR")
	wantOneLineFailure(t, []string{"-tracefile", filepath.Join(t.TempDir(), "missing.txt"), "-warmup", "0"}, 1, "missing.txt")
	big := writeTrace(t, "0.0 r 99999999999 4\n")
	wantOneLineFailure(t, []string{"-tracefile", big, "-warmup", "0"}, 1, "outside capacity")
}

func TestReplayRejectsMalformedTraces(t *testing.T) {
	// Replay input is untrusted: truncated rows, unparseable fields and
	// non-finite times must come back as one-line errors from the parse
	// or validation layer, never reach the simulator.
	cases := []struct {
		name, content, want string
	}{
		{"truncated row", "1.0 r 10\n", "want 4 fields"},
		{"bad op", "1.0 x 10 4\n", "bad op"},
		{"bad time", "abc r 10 4\n", "bad time"},
		{"nan time", "NaN r 10 4\n", "non-finite time"},
		{"inf time", "+Inf r 10 4\n", "non-finite time"},
		{"overflow time", "1e309 r 10 4\n", "bad time"},
		{"time regression", "5.0 r 10 4\n1.0 r 20 4\n", "precedes"},
		{"zero blocks", "1.0 r 10 0\n", "blocks"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			path := writeTrace(t, tc.content)
			wantOneLineFailure(t, []string{"-tracefile", path, "-sched", "FCFS", "-warmup", "0"}, 1, tc.want)
		})
	}
	// A finite time can still overflow once scaled; Validate runs after
	// Scale, so that too is a one-line error.
	path := writeTrace(t, "1e308 r 10 4\n")
	wantOneLineFailure(t, []string{"-tracefile", path, "-warmup", "0", "-scale", "0.01"}, 1, "non-finite time")
}

func TestReplaySmoke(t *testing.T) {
	// A well-formed two-record trace replays end to end into a JSONL
	// file, and writing it leaves the printed summary unchanged.
	dir := t.TempDir()
	path := writeTrace(t, "0.0 r 10 8\n5.0 w 5000 8\n")
	out := filepath.Join(dir, "out.jsonl")
	args := []string{"-tracefile", path, "-sched", "SPTF", "-warmup", "0"}
	code, plain, stderr := execRun(args...)
	if code != 0 {
		t.Fatalf("exit %d, stderr:\n%s", code, stderr)
	}
	code, traced, stderr := execRun(append(args, "-o", out)...)
	if code != 0 {
		t.Fatalf("exit %d, stderr:\n%s", code, stderr)
	}
	if plain != traced {
		t.Errorf("-o changed the summary:\n%s\nvs\n%s", plain, traced)
	}
	if !strings.Contains(plain, "positioning") || !strings.Contains(plain, "requests         2 ") {
		t.Errorf("summary lacks the request count or phase lines:\n%s", plain)
	}
	data, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	if lines := strings.Count(string(data), "\n"); lines != 8 { // 2 requests × (arrive, dispatch, service, complete)
		t.Errorf("JSONL lines = %d, want 8\n%s", lines, data)
	}
	if ents, _ := os.ReadDir(dir); len(ents) != 1 {
		t.Errorf("%d directory entries after the run, want only the JSONL", len(ents))
	}
}

func TestOutputPathValidation(t *testing.T) {
	dir := t.TempDir()
	wantOneLineFailure(t, []string{"-requests", "200", "-warmup", "0", "-o", dir}, 1, "is a directory")
	wantOneLineFailure(t, []string{"-requests", "200", "-warmup", "0", "-o", filepath.Join(dir, "missing", "r.jsonl")}, 1, "missing")
}

func TestFailedRunLeavesNoOutput(t *testing.T) {
	// A finite but absurd settling time overflows the simulated clock:
	// the run fails with one line, and neither the -o file nor its
	// temporary file is left behind.
	dir := t.TempDir()
	out := filepath.Join(dir, "r.jsonl")
	wantOneLineFailure(t, []string{"-requests", "200", "-warmup", "0", "-settle", "1e308", "-o", out}, 1, "r.jsonl")
	if ents, _ := os.ReadDir(dir); len(ents) != 0 {
		t.Errorf("failed run left %d entries behind, want none", len(ents))
	}
	// Without -o the overflow is still a failure, not an Inf summary.
	wantOneLineFailure(t, []string{"-requests", "200", "-warmup", "0", "-settle", "1e308"}, 1, "overflowed")
}

func TestCheck(t *testing.T) {
	// -check passes on a sound run without changing its summary, and a
	// violation becomes a one-line error rather than a panic.
	args := []string{"-requests", "500", "-warmup", "50", "-trace", "tpcc", "-scale", "8"}
	code, plain, stderr := execRun(args...)
	if code != 0 {
		t.Fatalf("exit %d, stderr:\n%s", code, stderr)
	}
	code, checked, stderr := execRun(append(args, "-check")...)
	if code != 0 || checked != plain {
		t.Errorf("checked run: exit %d, summary changed: %v; stderr:\n%s", code, checked != plain, stderr)
	}
	wantOneLineFailure(t, []string{"-requests", "200", "-warmup", "0", "-settle", "1e308", "-check"}, 1, "invariant violated")
}

func TestProgress(t *testing.T) {
	// -progress prints one line per 1000 completions, warmup included,
	// with the simulated time reached; a count that is a multiple of
	// 1000 reports its last completion too. The summary is unchanged.
	for _, tc := range []struct {
		requests string
		want     string
	}{
		{"2500", "memsim: 1000/2500 requests, 1009 ms simulated\nmemsim: 2000/2500 requests, 2035 ms simulated\n"},
		{"2000", "memsim: 1000/2000 requests, 1009 ms simulated\nmemsim: 2000/2000 requests, 2035 ms simulated\n"},
	} {
		args := []string{"-requests", tc.requests, "-warmup", "100"}
		_, plain, _ := execRun(args...)
		code, stdout, stderr := execRun(append(args, "-progress")...)
		if code != 0 || stderr != tc.want {
			t.Errorf("-requests %s -progress: exit %d, stderr:\n%s\nwant:\n%s", tc.requests, code, stderr, tc.want)
		}
		if stdout != plain {
			t.Errorf("-requests %s: -progress changed the summary", tc.requests)
		}
	}
}
