package experiments

import (
	"bytes"
	"strings"
	"testing"

	"memsim/internal/runner"
	"memsim/internal/sim"
)

// renderAll renders every table of every result set as CSV — the bytes
// memsbench would write.
func renderAll(results [][]Table) []byte {
	var buf bytes.Buffer
	for _, ts := range results {
		for _, tb := range ts {
			tb.CSV(&buf)
		}
	}
	return buf.Bytes()
}

// batch runs ids as one RunEach batch on ctx and returns each
// experiment's tables in request order, failing the test on any error.
func batch(t *testing.T, ctx *runner.Context, ids []string, p Params) [][]Table {
	t.Helper()
	outs, _, err := RunEach(ctx, ids, p)
	if err != nil {
		t.Fatal(err)
	}
	res := make([][]Table, len(outs))
	for i, o := range outs {
		if o.Err != nil {
			t.Fatal(o.Err)
		}
		res[i] = o.Tables
	}
	return res
}

// TestParallelMatchesSequentialOutput is the job layer's core guarantee:
// for every artifact, an 8-worker run emits bytes identical to a
// 1-worker run. Any job that leaked state across siblings — a shared
// device, scheduler, rng or request slice — would show up here as a
// numeric diff.
func TestParallelMatchesSequentialOutput(t *testing.T) {
	if testing.Short() {
		t.Skip("full suite in -short mode")
	}
	// FaultRate > 0 widens the faultinject sweep, so the injection path —
	// injector rng, mid-run tip events, requeues — is under the same
	// byte-identity contract as everything else.
	p := Params{Requests: 800, Warmup: 80, ClosedRequests: 400, Trials: 80, Seed: 3, FaultRate: 0.02}
	ids := IDs()

	seq := batch(t, runner.Sequential(), ids, p)
	par := batch(t, &runner.Context{Workers: 8}, ids, p)

	for i, id := range ids {
		a, b := renderAll([][]Table{seq[i]}), renderAll([][]Table{par[i]})
		if !bytes.Equal(a, b) {
			t.Errorf("%s: parallel output diverged from sequential\n--- sequential ---\n%s--- parallel ---\n%s",
				id, a, b)
		}
	}
}

// TestRunManyBatchesInDeclarationOrder checks the multi-experiment path
// used by memsbench: one RunEach pool over all requested IDs, outcomes
// returned per ID in request order.
func TestRunManyBatchesInDeclarationOrder(t *testing.T) {
	p := Params{Requests: 400, Warmup: 40, ClosedRequests: 200, Trials: 60, Seed: 1}
	ids := []string{"table2", "table1", "seekprofile"}
	outs, sum, err := RunEach(&runner.Context{Workers: 4}, ids, p)
	if err != nil {
		t.Fatal(err)
	}
	if len(outs) != len(ids) {
		t.Fatalf("outcomes = %d, want %d", len(outs), len(ids))
	}
	if outs[0].Tables[0].ID != "table2" || outs[1].Tables[0].ID != "table1" {
		t.Errorf("outcomes not in request order: %s, %s", outs[0].Tables[0].ID, outs[1].Tables[0].ID)
	}
	if sum.Jobs != 3 {
		t.Errorf("summary jobs = %d, want 3 (one per single-job plan)", sum.Jobs)
	}
}

func TestRunManyUnknownID(t *testing.T) {
	_, _, err := RunEach(runner.Sequential(), []string{"fig99"}, tiny())
	if err == nil {
		t.Fatal("expected error for unknown experiment")
	}
}

// TestProbedOutputMatchesUnprobed extends the byte-identity contract to
// the lifecycle probe: attaching a trace probe through the runner context
// (as memsbench -trace does) must not change a single byte of the
// rendered artifacts, including on the fault-injection path.
func TestProbedOutputMatchesUnprobed(t *testing.T) {
	// rebuild and striping put the volume fork-join and multi-queue engine
	// regimes under the same probe-neutrality contract; FaultRate > 0 keeps
	// the rebuild runs' transient-injection path live under the probe.
	p := Params{Requests: 600, Warmup: 60, ClosedRequests: 300, Trials: 60, Seed: 5, FaultRate: 0.02}
	ids := []string{"fig6", "phases", "faultinject", "rebuild", "striping"}

	plain := batch(t, runner.Sequential(), ids, p)
	var trace bytes.Buffer
	jp := sim.NewJSONLProbe(&trace)
	probed := batch(t, &runner.Context{Workers: 1, Sim: sim.Context{Probe: jp}}, ids, p)
	if err := jp.Flush(); err != nil {
		t.Fatal(err)
	}
	if trace.Len() == 0 {
		t.Error("trace probe observed nothing")
	}
	for i, id := range ids {
		a, b := renderAll([][]Table{plain[i]}), renderAll([][]Table{probed[i]})
		if !bytes.Equal(a, b) {
			t.Errorf("%s: probed output diverged from unprobed\n--- plain ---\n%s--- probed ---\n%s", id, a, b)
		}
	}
}

func TestWithRequestsScalesAllRegimes(t *testing.T) {
	p := Default() // 20000/2000/10000/2000
	s := p.WithRequests(2000)
	want := Params{Requests: 2000, Warmup: 200, ClosedRequests: 1000, Trials: 200, Seed: p.Seed}
	if s != want {
		t.Errorf("WithRequests(2000) = %+v, want %+v", s, want)
	}
	// Scaling up works too.
	u := p.WithRequests(40000)
	if u.Warmup != 4000 || u.ClosedRequests != 20000 || u.Trials != 4000 {
		t.Errorf("WithRequests(40000) = %+v", u)
	}
	// Tiny overrides never zero out a regime.
	tinyP := p.WithRequests(3)
	if tinyP.Warmup < 1 || tinyP.ClosedRequests < 1 || tinyP.Trials < 1 {
		t.Errorf("WithRequests(3) zeroed a field: %+v", tinyP)
	}
	// Non-positive n is a no-op.
	if p.WithRequests(0) != p || p.WithRequests(-5) != p {
		t.Error("WithRequests with non-positive n should be a no-op")
	}
}

func TestFprintWideRows(t *testing.T) {
	tb := Table{ID: "wide", Title: "rows wider than the header", Columns: []string{"a"}}
	tb.AddRow("1", "extra-cell", "another")
	tb.AddRow("2", "x")
	var buf bytes.Buffer
	tb.Fprint(&buf)
	out := buf.String()
	if !bytes.Contains(buf.Bytes(), []byte("extra-cell  another")) {
		t.Errorf("wide row cells missing or misaligned:\n%s", out)
	}
}

// eventTally counts observed events per run label and kind; safe for
// single-worker batches only.
type eventTally map[string]map[sim.EventKind]int

func (t eventTally) Observe(ev sim.ProbeEvent) {
	if t[ev.Run] == nil {
		t[ev.Run] = map[sim.EventKind]int{}
	}
	t[ev.Run][ev.Kind]++
}

// TestCustomEngineBodiesAreTraced pins the batch probe's reach into the
// engine-driven job bodies: the multi-device, volume, power and
// closed-loop MEMS regimes emit lifecycle events under their own job
// labels, and observing them leaves every table byte-identical.
func TestCustomEngineBodiesAreTraced(t *testing.T) {
	p := Quick().WithRequests(300)
	for _, id := range []string{"rebuild", "striping", "schedcost", "power", "cache", "generations", "shuffle"} {
		t.Run(id, func(t *testing.T) {
			plain := run(t, id, p)
			pl, err := PlanFor(id, p)
			if err != nil {
				t.Fatal(err)
			}
			tally := eventTally{}
			if _, err := (&runner.Context{Workers: 1, Sim: sim.Context{Probe: tally}}).Run(pl.Jobs); err != nil {
				t.Fatal(err)
			}
			labels := map[string]bool{}
			for _, j := range pl.Jobs {
				labels[j.Label] = true
				if tally[j.Label][sim.EventComplete] == 0 {
					t.Errorf("job %q emitted no complete events", j.Label)
				}
			}
			for run := range tally {
				if !labels[run] {
					t.Errorf("event labelled %q, which is not a job of %s", run, id)
				}
			}
			if id == "rebuild" {
				for _, k := range []sim.EventKind{sim.EventDeviceFail, sim.EventRebuildStart} {
					n := 0
					for _, kinds := range tally {
						n += kinds[k]
					}
					if n == 0 {
						t.Errorf("rebuild emitted no %s events", k)
					}
				}
			}
			if a, b := renderAll([][]Table{plain}), renderAll([][]Table{pl.Assemble()}); !bytes.Equal(a, b) {
				t.Errorf("probed output diverged from unprobed\n--- plain ---\n%s--- probed ---\n%s", a, b)
			}
		})
	}
}

// TestEngineJobsReportSimTime pins the simulated time the runner reports
// for engine-driven job bodies, which time nothing themselves: every job
// of these artifacts reports a positive figure, and where a body makes
// one run (rebuild, schedcost) the figure is that run's own Elapsed.
func TestEngineJobsReportSimTime(t *testing.T) {
	p := Quick()
	for _, id := range []string{"cache", "generations", "shuffle", "striping", "power", "rebuild", "schedcost", "raid"} {
		t.Run(id, func(t *testing.T) {
			pl, err := PlanFor(id, p)
			if err != nil {
				t.Fatal(err)
			}
			simMs := map[string]float64{}
			ctx := &runner.Context{Workers: 2, Progress: func(ev runner.Event) { simMs[ev.Label] = ev.SimMs }}
			if _, err := ctx.Run(pl.Jobs); err != nil {
				t.Fatal(err)
			}
			for _, j := range pl.Jobs {
				if id == "raid" && !strings.Contains(j.Label, "member rebuild") {
					continue // raid's random-access rows still time the device by hand
				}
				got := simMs[j.Label]
				if got <= 0 {
					t.Errorf("job %q reported %g ms simulated", j.Label, got)
				}
				own := -1.0
				switch v := j.Value().(type) {
				case rebuildOutcome:
					own = v.simMs
				case schedCostOutcome:
					own = v.simMs
				}
				if (id == "rebuild" || id == "schedcost") && got != own {
					t.Errorf("job %q reported %g ms simulated, its run's Elapsed is %g", j.Label, got, own)
				}
			}
		})
	}
}
