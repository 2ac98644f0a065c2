package main

import (
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

func TestValidateFlags(t *testing.T) {
	if err := validateFlags(flagValues{}); err != nil {
		t.Fatalf("zero values rejected: %v", err)
	}
	good := flagValues{faultRate: 0.02, rebuild: 0.3, rebuildPolicy: "adaptive",
		mttfHours: 2000, trials: 500, failDev: 1, thinkMs: 5,
		sched: "SettleAware", memberSched: "Priority",
		timeout: time.Minute, checkpoint: filepath.Join(t.TempDir(), "state.ckpt")}
	if err := validateFlags(good); err != nil {
		t.Fatalf("valid values rejected: %v", err)
	}
	cases := []struct {
		name string
		mut  func(*flagValues)
		flag string
	}{
		{"negative fault rate", func(v *flagValues) { v.faultRate = -0.1 }, "-fault-rate"},
		{"fault rate one", func(v *flagValues) { v.faultRate = 1 }, "-fault-rate"},
		{"nan fault rate", func(v *flagValues) { v.faultRate = math.NaN() }, "-fault-rate"},
		{"negative rebuild", func(v *flagValues) { v.rebuild = -0.5 }, "-rebuild"},
		{"rebuild above one", func(v *flagValues) { v.rebuild = 1.5 }, "-rebuild"},
		{"unknown policy", func(v *flagValues) { v.rebuildPolicy = "turbo" }, "-rebuild-policy"},
		{"negative mttf", func(v *flagValues) { v.mttfHours = -1 }, "-mttf-hours"},
		{"nan mttf", func(v *flagValues) { v.mttfHours = math.NaN() }, "-mttf-hours"},
		{"inf mttf", func(v *flagValues) { v.mttfHours = math.Inf(1) }, "-mttf-hours"},
		{"negative trials", func(v *flagValues) { v.trials = -5 }, "-trials"},
		{"negative fail dev", func(v *flagValues) { v.failDev = -1 }, "-fail-dev"},
		{"negative think", func(v *flagValues) { v.thinkMs = -1 }, "-think-ms"},
		{"nan think", func(v *flagValues) { v.thinkMs = math.NaN() }, "-think-ms"},
		{"inf think", func(v *flagValues) { v.thinkMs = math.Inf(1) }, "-think-ms"},
		{"unknown sched", func(v *flagValues) { v.sched = "EDF" }, "-sched"},
		{"unknown member sched", func(v *flagValues) { v.memberSched = "EDF" }, "-member-sched"},
		{"negative timeout", func(v *flagValues) { v.timeout = -time.Second }, "-timeout"},
		{"checkpoint in missing directory",
			func(v *flagValues) { v.checkpoint = filepath.Join("/no-such-dir-memsbench", "a.ckpt") },
			"-checkpoint"},
		{"checkpoint is a directory", func(v *flagValues) { v.checkpoint = os.TempDir() }, "-checkpoint"},
	}
	for _, tc := range cases {
		v := good
		tc.mut(&v)
		err := validateFlags(v)
		if err == nil {
			t.Errorf("%s: accepted", tc.name)
			continue
		}
		if !strings.Contains(err.Error(), tc.flag) {
			t.Errorf("%s: error %q does not name %s", tc.name, err, tc.flag)
		}
		if strings.Contains(err.Error(), "\n") {
			t.Errorf("%s: error %q is not one line", tc.name, err)
		}
	}
}

func TestOpenTraceRejectsDirectory(t *testing.T) {
	// A directory path fails before any simulation, with one line.
	code, _, stderr := execRun("-quick", "-run", "phases", "-trace", t.TempDir())
	if code != 1 || !strings.Contains(stderr, "is a directory") || strings.Count(stderr, "\n") != 1 {
		t.Errorf("exit %d, stderr %q; want 1 and one is-a-directory line", code, stderr)
	}
}

func TestOpenTraceRejectsUnwritablePath(t *testing.T) {
	path := filepath.Join(t.TempDir(), "no", "such", "dir", "t.jsonl")
	code, _, stderr := execRun("-quick", "-run", "phases", "-trace", path)
	if code != 1 || !strings.Contains(stderr, "-trace") || strings.Count(stderr, "\n") != 1 {
		t.Errorf("exit %d, stderr %q; want 1 and one line naming -trace", code, stderr)
	}
}

func TestOpenTraceStreamsThenCommits(t *testing.T) {
	// The trace streams into a temporary file that replaces the -trace
	// path only when the batch is complete: a clean batch publishes it
	// and leaves no temporary file; a batch that loses a job publishes
	// nothing, even over an old trace.
	dir := t.TempDir()
	path := filepath.Join(dir, "t.jsonl")
	code, _, stderr := execRun("-quick", "-requests", "300", "-run", "phases", "-trace", path)
	if code != 0 {
		t.Fatalf("exit %d, stderr:\n%s", code, stderr)
	}
	first, err := os.ReadFile(path)
	if err != nil || !strings.HasPrefix(string(first), "{") {
		t.Fatalf("trace = %.40q, err = %v", first, err)
	}
	code, _, stderr = execRun("-quick", "-requests", "300", "-run", "phases", "-trace", path, "-timeout", "1ns")
	if code != 1 || !strings.Contains(stderr, "discarding incomplete lifecycle trace") {
		t.Errorf("failed batch: exit %d, stderr:\n%s", code, stderr)
	}
	if again, err := os.ReadFile(path); err != nil || string(again) != string(first) {
		t.Errorf("failed batch touched the published trace (err %v)", err)
	}
	if ents, _ := os.ReadDir(dir); len(ents) != 1 {
		t.Errorf("%d directory entries, want only the trace", len(ents))
	}
}
