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

func TestRunExitSuccess(t *testing.T) {
	code, stdout, stderr := execRun("-quick", "-run", "table1")
	if code != 0 {
		t.Fatalf("exit %d, stderr:\n%s", code, stderr)
	}
	if !strings.Contains(stdout, "table1") {
		t.Errorf("stdout missing the artifact:\n%s", stdout)
	}
}

func TestRunExitFlagParseError(t *testing.T) {
	// -sketch is not a flag: a distribution picks its own backend by size.
	for _, flag := range []string{"-no-such-flag", "-sketch"} {
		code, _, stderr := execRun(flag)
		if code != 2 || strings.Count(stderr, "\n") != 1 || !strings.Contains(stderr, flag) {
			t.Errorf("%s: exit %d, stderr %q; want exit 2 and one line naming it", flag, code, stderr)
		}
	}
}

func TestRunExitBadFlagValue(t *testing.T) {
	code, _, stderr := execRun("-timeout", "-5s")
	if code != 1 {
		t.Fatalf("exit %d, want 1", code)
	}
	if !strings.Contains(stderr, "-timeout") {
		t.Errorf("stderr does not name the flag:\n%s", stderr)
	}
}

func TestRunExitUnknownArtifact(t *testing.T) {
	code, _, stderr := execRun("-quick", "-run", "nosuch")
	if code != 1 {
		t.Fatalf("exit %d, want 1", code)
	}
	if !strings.Contains(stderr, "nosuch") {
		t.Errorf("stderr does not name the artifact:\n%s", stderr)
	}
}

func TestRunExitNonzeroOnForcedJobFailure(t *testing.T) {
	// A 1 ns per-job deadline force-fails every simulating job; the exit
	// code must be nonzero and the artifact reported as failed, with no
	// table on stdout.
	code, stdout, stderr := execRun("-quick", "-requests", "300", "-run", "fig5", "-timeout", "1ns")
	if code != 1 {
		t.Fatalf("exit %d, want 1, stderr:\n%s", code, stderr)
	}
	if !strings.Contains(stderr, "artifacts failed") && !strings.Contains(stderr, "interrupted") {
		t.Errorf("stderr does not report the failure:\n%s", stderr)
	}
	if stdout != "" {
		t.Errorf("failed artifact still printed tables:\n%s", stdout)
	}
}

func TestRunPartialFailureStillPublishesIntactArtifacts(t *testing.T) {
	// With one failing and one succeeding experiment in the same batch,
	// the intact artifact publishes and the exit code stays nonzero.
	code, stdout, stderr := execRun("-quick", "-requests", "300",
		"-run", "fig5,table1", "-timeout", "1ns")
	if code != 1 {
		t.Fatalf("exit %d, want 1, stderr:\n%s", code, stderr)
	}
	if !strings.Contains(stdout, "table1") {
		t.Errorf("intact artifact not published:\n%s", stdout)
	}
	if !strings.Contains(stderr, "1 of 2 artifacts failed") {
		t.Errorf("stderr does not report the split:\n%s", stderr)
	}
}

func TestRunCheckSmoke(t *testing.T) {
	// -check over a real (small) simulating artifact: the invariant
	// probe must pass, leaving the run green.
	code, _, stderr := execRun("-quick", "-requests", "300", "-run", "fig5", "-check")
	if code != 0 {
		t.Fatalf("checked run exit %d, stderr:\n%s", code, stderr)
	}
}

func TestRunCorruptCheckpointFails(t *testing.T) {
	path := filepath.Join(t.TempDir(), "mttdl.ckpt")
	if err := os.WriteFile(path, []byte("garbage{"), 0o644); err != nil {
		t.Fatal(err)
	}
	code, _, stderr := execRun("-quick", "-requests", "300", "-trials", "10",
		"-run", "mttdl", "-checkpoint", path)
	if code != 1 {
		t.Fatalf("exit %d, want 1", code)
	}
	if !strings.Contains(stderr, "corrupt") {
		t.Errorf("stderr does not report the corruption:\n%s", stderr)
	}
}

func TestRunCheckpointResumeAcrossInvocations(t *testing.T) {
	// Two full CLI invocations sharing a checkpoint produce identical
	// artifacts — the second resumes from (fully) saved state.
	path := filepath.Join(t.TempDir(), "mttdl.ckpt")
	code, first, stderr := execRun("-quick", "-requests", "300", "-trials", "50",
		"-run", "mttdl", "-checkpoint", path)
	if code != 0 {
		t.Fatalf("first run exit %d, stderr:\n%s", code, stderr)
	}
	code, second, stderr := execRun("-quick", "-requests", "300", "-trials", "50",
		"-run", "mttdl", "-checkpoint", path)
	if code != 0 {
		t.Fatalf("second run exit %d, stderr:\n%s", code, stderr)
	}
	if first != second {
		t.Error("resumed invocation output differs from the original")
	}
}
