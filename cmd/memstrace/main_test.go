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
		{"-count", "0", rejected, ""},
		{"-count", "-1", rejected, ""},
		{"-count", "NaN", noParse, ""},
		{"-count", "+Inf", noParse, ""},
		{"-capacity", "0", accepted, "0 selects the paper's MEMS device"},
		{"-capacity", "-1", rejected, ""},
		{"-capacity", "1", rejected, ""},
		{"-capacity", "NaN", noParse, ""},
		{"-capacity", "+Inf", noParse, ""},
		{"-scale", "0", rejected, ""},
		{"-scale", "-1", rejected, ""},
		{"-scale", "NaN", rejected, ""},
		{"-scale", "+Inf", rejected, ""},
	}
	for _, tc := range cases {
		for _, gen := range []string{"cello", "tpcc"} {
			args := []string{"-gen", gen, "-count", "50", tc.flag, tc.value}
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

func TestSmallestCapacityGenerates(t *testing.T) {
	// The generators lay out valid traces on the smallest accepted device.
	for _, gen := range []string{"cello", "tpcc"} {
		code, _, stderr := execRun("-gen", gen, "-count", "20000", "-capacity", "65536")
		if code != 0 {
			t.Errorf("-gen %s at the minimum capacity: exit %d, stderr:\n%s", gen, code, stderr)
		}
	}
}

func TestGenerateThenStats(t *testing.T) {
	// -gen -o writes the trace atomically (no temporary file left), and
	// -stats reads it back.
	dir := t.TempDir()
	path := filepath.Join(dir, "c.txt")
	code, _, stderr := execRun("-gen", "tpcc", "-count", "300", "-scale", "4", "-o", path)
	if code != 0 || !strings.Contains(stderr, "wrote 300 records") {
		t.Fatalf("exit %d, stderr:\n%s", code, stderr)
	}
	if ents, _ := os.ReadDir(dir); len(ents) != 1 {
		t.Errorf("%d directory entries, want only the trace", len(ents))
	}
	code, stdout, stderr := execRun("-stats", path)
	if code != 0 || !strings.Contains(stdout, "records          300") {
		t.Errorf("exit %d, stdout:\n%s\nstderr:\n%s", code, stdout, stderr)
	}
}

func TestStatsRejectsEmptyTrace(t *testing.T) {
	// A trace with no records has no read fraction or mean size to
	// report: -stats exits 1 with one line naming the file, as memsim
	// -tracefile rejects a trace with no requests.
	dir := t.TempDir()
	for _, tc := range []struct{ name, content string }{
		{"empty.txt", ""},
		{"comments.txt", "# trace: nothing\n# 0 records\n\n"},
	} {
		path := filepath.Join(dir, tc.name)
		if err := os.WriteFile(path, []byte(tc.content), 0o644); err != nil {
			t.Fatal(err)
		}
		code, stdout, stderr := execRun("-stats", path)
		if code != 1 || stdout != "" || strings.Count(stderr, "\n") != 1 || !strings.Contains(stderr, path) {
			t.Errorf("%s: exit %d, stdout %q, stderr %q; want exit 1, no stdout and one line naming the file",
				tc.name, code, stdout, stderr)
		}
	}
}

func TestOpenOutValidation(t *testing.T) {
	// A bad -o path is a one-line error that leaves nothing behind, and
	// without -o the trace goes to stdout.
	dir := t.TempDir()
	for _, out := range []string{dir, filepath.Join(dir, "missing", "c.txt")} {
		code, _, stderr := execRun("-gen", "cello", "-count", "50", "-o", out)
		if code != 1 || strings.Count(stderr, "\n") != 1 {
			t.Errorf("-o %s: exit %d, stderr %q; want 1 and one line", out, code, stderr)
		}
	}
	if ents, _ := os.ReadDir(dir); len(ents) != 0 {
		t.Errorf("bad -o paths left %d entries behind", len(ents))
	}
	code, stdout, _ := execRun("-gen", "cello", "-count", "50")
	if code != 0 || !strings.HasPrefix(stdout, "# trace: cello-synthetic (50 records)") {
		t.Errorf("stdout trace: exit %d, %.60q", code, stdout)
	}
}

func TestCommandErrors(t *testing.T) {
	dir := t.TempDir()
	cases := []struct {
		args []string
		code int
		want string
	}{
		{[]string{"-gen", "sprite"}, 1, "sprite"},
		{[]string{"-stats", filepath.Join(dir, "missing.txt")}, 1, "missing.txt"},
		{[]string{"-gen", "cello", "stray"}, 1, "stray"},
		{[]string{"-replay", "c.txt"}, 2, "-replay"},
		{nil, 2, "usage"},
	}
	for _, tc := range cases {
		code, _, stderr := execRun(tc.args...)
		if code != tc.code || strings.Count(stderr, "\n") != 1 || !strings.Contains(stderr, tc.want) {
			t.Errorf("%q: exit %d, stderr %q; want exit %d and one line mentioning %q", tc.args, code, stderr, tc.code, tc.want)
		}
	}
	if ents, _ := os.ReadDir(dir); len(ents) != 0 {
		t.Errorf("failed commands left %d entries behind", len(ents))
	}
}
