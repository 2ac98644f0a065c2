package experiments

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"path/filepath"
	"testing"
	"time"

	"memsim/internal/fault"
	"memsim/internal/runner"
	"memsim/internal/sim"
)

// mttdlCSV renders the mttdl artifact for byte comparison.
func mttdlCSV(t *testing.T, p Params) string {
	t.Helper()
	var buf bytes.Buffer
	for _, tb := range run(t, "mttdl", p) {
		tb.CSV(&buf)
	}
	return buf.String()
}

// rewindCheckpoint rewrites every saved mttdl job state back to trial k,
// recomputing the partial sums trial by trial exactly as the experiment
// does — the state a run interrupted after k trials would have saved.
func rewindCheckpoint(t *testing.T, path string, p Params, k int) {
	t.Helper()
	ck, err := runner.OpenCheckpoint(path, "mttdl", p)
	if err != nil {
		t.Fatal(err)
	}
	mttfMs := float64(DefaultMTTFHours) * 3600 * 1000
	levels := []struct {
		name    string
		members int
	}{
		{"mirror", rebuildMirrorCfg().Members},
		{"parity", rebuildParityCfg().Members},
	}
	for _, lv := range levels {
		for _, dev := range []string{"MEMS", "Atlas 10K"} {
			label := fmt.Sprintf("mttdl %s %s", dev, lv.name)
			var st mttdlState
			if !ck.Load(label, &st) {
				t.Fatalf("checkpoint has no state for %q", label)
			}
			rewound := mttdlState{WindowS: st.WindowS}
			for i := 0; i < k; i++ {
				seed := runner.DeriveSeed(p.Seed, fmt.Sprintf("mttdl %s trial %d", lv.name, i))
				s := fault.NewLifetimeSampler(mttfMs, seed)
				ms, lost := fault.TimeToDataLoss(s, lv.members, st.WindowS*1000, mttdlMaxCycles)
				rewound.SumMs += ms
				if !lost {
					rewound.Censored++
				}
				rewound.Trial = i + 1
			}
			if err := ck.Save(label, rewound); err != nil {
				t.Fatal(err)
			}
		}
	}
}

func TestMTTDLCheckpointResumeByteIdentical(t *testing.T) {
	// The acceptance test for checkpoint/resume: an mttdl run
	// interrupted mid-chain and resumed must produce output
	// byte-identical to an uninterrupted run. The per-trial derived seed
	// sub-streams are what make this hold — trial i draws the same
	// lifetimes whether or not trials [0,i) ran in the same process.
	p := tiny()
	p.Requests = 600 // one failover run per (device, level) measures the window
	p.Warmup = 75
	p.Trials = 500

	baseline := mttdlCSV(t, p) // no checkpoint at all

	ckp := p
	ckp.Checkpoint = filepath.Join(t.TempDir(), "mttdl.ckpt")
	full := mttdlCSV(t, ckp)
	if full != baseline {
		t.Fatal("checkpointed run differs from uncheckpointed run")
	}

	// Rewind the checkpoint to trial 123 — the file an interrupted run
	// leaves behind — and resume.
	rewindCheckpoint(t, ckp.Checkpoint, ckp, 123)
	resumed := mttdlCSV(t, ckp)
	if resumed != baseline {
		t.Fatal("interrupted-then-resumed run is not byte-identical to the uninterrupted run")
	}
}

func TestMTTDLCheckpointRejectsChangedParams(t *testing.T) {
	p := tiny()
	p.Trials = 50
	p.Checkpoint = filepath.Join(t.TempDir(), "mttdl.ckpt")
	if _, _, err := RunEach(runner.Sequential(), []string{"mttdl"}, p); err != nil {
		t.Fatal(err)
	}
	q := p
	q.Seed = 999 // a different answer — resuming would be silently wrong
	outs, _, err := RunEach(runner.Sequential(), []string{"mttdl"}, q)
	if err != nil {
		t.Fatal(err)
	}
	if outs[0].Err == nil {
		t.Fatal("resume under changed parameters succeeded")
	}
	if !bytes.Contains([]byte(outs[0].Err.Error()), []byte("different parameters")) {
		t.Errorf("err = %v, want the parameter-binding refusal", outs[0].Err)
	}
}

func TestRunEachMixedOutcomes(t *testing.T) {
	// Under a 1 ns per-job deadline every simulating experiment is
	// cancelled, but table1 (pure closed-form arithmetic, no simulation
	// loop) still assembles: RunEach isolates failures per experiment
	// instead of failing the batch.
	ctx := &runner.Context{Workers: 2, Timeout: time.Nanosecond}
	outs, sum, err := RunEach(ctx, []string{"fig5", "table1"}, tiny())
	if err != nil {
		t.Fatal(err)
	}
	if outs[0].Err == nil {
		t.Error("fig5 survived a 1 ns deadline")
	} else if !errors.Is(outs[0].Err, context.DeadlineExceeded) {
		t.Errorf("fig5 err = %v, want DeadlineExceeded", outs[0].Err)
	}
	if outs[0].Tables != nil {
		t.Error("failed experiment assembled tables")
	}
	if outs[1].Err != nil {
		t.Errorf("table1 failed: %v", outs[1].Err)
	}
	if len(outs[1].Tables) == 0 {
		t.Error("table1 assembled no tables")
	}
	if sum.Cancelled == 0 {
		t.Error("summary counted no cancelled jobs")
	}
}

func TestRunEachBatchCancelled(t *testing.T) {
	// A pre-cancelled batch context fails every experiment with the
	// cancellation cause — the path a SIGINT before the pool starts
	// takes.
	cctx, cancel := context.WithCancel(context.Background())
	cancel()
	ctx := &runner.Context{Workers: 1, Sim: sim.Context{Ctx: cctx}}
	outs, _, err := RunEach(ctx, []string{"table1"}, tiny())
	if err != nil {
		t.Fatal(err)
	}
	if outs[0].Err == nil || !errors.Is(outs[0].Err, context.Canceled) {
		t.Errorf("err = %v, want Canceled", outs[0].Err)
	}
}
