package runner

import (
	"errors"
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"

	"memsim/internal/core"
	"memsim/internal/sched"
	"memsim/internal/sim"
	"memsim/internal/workload"
)

// tickDevice is a minimal deterministic device: every access costs svc ms.
type tickDevice struct{ svc float64 }

func (d *tickDevice) Name() string                                  { return "tick" }
func (d *tickDevice) Capacity() int64                               { return 1 << 20 }
func (d *tickDevice) SectorSize() int                               { return 512 }
func (d *tickDevice) Reset()                                        {}
func (d *tickDevice) Access(*core.Request, float64) float64         { return d.svc }
func (d *tickDevice) EstimateAccess(*core.Request, float64) float64 { return d.svc }

// openJob declares a job whose body runs n random requests through the
// open-arrival loop on a tickDevice under FCFS and returns the Result.
func openJob(label string, n int, seed int64, opts sim.Options) *Job {
	return &Job{
		Label: label,
		Seed:  seed,
		Body: func(j *Job) any {
			d := &tickDevice{svc: 1}
			src := workload.DefaultRandom(100, d.SectorSize(), d.Capacity(), n, j.Seed)
			return sim.Run(j.SimContext(), d, sched.NewFCFS(), src, opts)
		},
	}
}

// closedJob declares a job whose body serves n one-block reads back to
// back on a device costing svc ms each: its Result.Elapsed is n·svc.
func closedJob(label string, n int, svc float64) *Job {
	return &Job{Label: label, Body: func(j *Job) any { return closedRun(j, n, svc) }}
}

func closedRun(j *Job, n int, svc float64) sim.Result {
	reqs := make([]*core.Request, n)
	for i := range reqs {
		reqs[i] = &core.Request{Op: core.Read, LBN: int64(i), Blocks: 1}
	}
	return sim.RunClosed(j.SimContext(), &tickDevice{svc: svc}, workload.NewFromSlice(reqs), sim.Options{})
}

// result reads an engine job's Result.
func result(j *Job) sim.Result { return j.Value().(sim.Result) }

// TestDeclarativeJobRuns runs a job declared as one open-arrival engine
// run whose body returns the Result, the shape every experiment sweep
// uses.
func TestDeclarativeJobRuns(t *testing.T) {
	j := openJob("open", 50, 1, sim.Options{})
	sum, err := Sequential().Run([]*Job{j})
	if err != nil {
		t.Fatal(err)
	}
	if result(j).Requests != 50 {
		t.Errorf("requests = %d, want 50", result(j).Requests)
	}
	if el := result(j).Elapsed; el <= 0 || sum.Sim.Mean() != el {
		t.Errorf("sim time not recorded: run elapsed %g, summary %g", el, sum.Sim.Mean())
	}
	if sum.Jobs != 1 || sum.Wall.N() != 1 {
		t.Errorf("summary = %+v", sum)
	}
}

func TestClosedJobRuns(t *testing.T) {
	j := closedJob("closed", 10, 2)
	if _, err := Sequential().Run([]*Job{j}); err != nil {
		t.Fatal(err)
	}
	if got := result(j).Elapsed; got != 20 {
		t.Errorf("closed run elapsed = %g, want 20", got)
	}
}

func TestParallelMatchesSequentialResults(t *testing.T) {
	mk := func() []*Job {
		jobs := make([]*Job, 24)
		for i := range jobs {
			jobs[i] = openJob(fmt.Sprintf("job%d", i), 200, int64(i+1), sim.Options{})
		}
		return jobs
	}
	seqJobs, parJobs := mk(), mk()
	if _, err := Sequential().Run(seqJobs); err != nil {
		t.Fatal(err)
	}
	if _, err := (&Context{Workers: 8}).Run(parJobs); err != nil {
		t.Fatal(err)
	}
	for i := range seqJobs {
		a, b := result(seqJobs[i]), result(parJobs[i])
		if a.Response.Mean() != b.Response.Mean() || a.Elapsed != b.Elapsed {
			t.Errorf("job %d diverged: sequential %v vs parallel %v", i, a.String(), b.String())
		}
	}
}

func TestCustomJobValue(t *testing.T) {
	j := &Job{
		Label: "custom",
		Seed:  7,
		Body: func(j *Job) any {
			rng := rand.New(rand.NewSource(j.Seed))
			return rng.Int63()
		},
	}
	if _, err := (&Context{Workers: 4}).Run([]*Job{j}); err != nil {
		t.Fatal(err)
	}
	want := rand.New(rand.NewSource(7)).Int63()
	if j.Value().(int64) != want {
		t.Errorf("custom value = %d, want %d", j.Value(), want)
	}
}

func TestPanicBecomesErrorAndSiblingsStillRun(t *testing.T) {
	var ran atomic.Int32
	jobs := []*Job{
		{Label: "boom", Body: func(*Job) any { panic("kaput") }},
		{Label: "ok", Body: func(*Job) any { ran.Add(1); return "fine" }},
	}
	_, err := Sequential().Run(jobs)
	if err == nil || !strings.Contains(err.Error(), "boom") || !strings.Contains(err.Error(), "kaput") {
		t.Fatalf("err = %v, want panic converted to error naming the job", err)
	}
	if ran.Load() != 1 {
		t.Error("sibling job did not run after a failure")
	}
	if jobs[1].Value().(string) != "fine" {
		t.Error("sibling result lost")
	}
}

func TestMisdeclaredJobErrors(t *testing.T) {
	_, err := Sequential().Run([]*Job{{Label: "empty"}})
	if err == nil || err.Error() != `job "empty": no body` {
		t.Fatalf("err = %v, want a one-line no-body error", err)
	}
}

func TestReadBeforeRunPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic reading an unexecuted job")
		}
	}()
	(&Job{Label: "unread"}).Value()
}

func TestProgressEvents(t *testing.T) {
	const n = 9
	jobs := make([]*Job, n)
	for i := range jobs {
		jobs[i] = &Job{Label: fmt.Sprintf("j%d", i), Body: func(*Job) any { return nil }}
	}
	var events []Event
	ctx := &Context{Workers: 4, Progress: func(ev Event) { events = append(events, ev) }}
	if _, err := ctx.Run(jobs); err != nil {
		t.Fatal(err)
	}
	if len(events) != n {
		t.Fatalf("got %d events, want %d", len(events), n)
	}
	for i, ev := range events {
		if ev.Done != i+1 || ev.Total != n {
			t.Errorf("event %d = %d/%d, want %d/%d", i, ev.Done, ev.Total, i+1, n)
		}
	}
}

func TestErrorEventCarriesError(t *testing.T) {
	var got error
	ctx := &Context{Workers: 1, Progress: func(ev Event) {
		if ev.Err != nil {
			got = ev.Err
		}
	}}
	_, err := ctx.Run([]*Job{{Label: "bad", Body: func(*Job) any { panic(errors.New("x")) }}})
	if err == nil || got == nil {
		t.Errorf("error not surfaced: run err %v, event err %v", err, got)
	}
}

func TestEmptyBatch(t *testing.T) {
	sum, err := (&Context{}).Run(nil)
	if err != nil || sum.Jobs != 0 {
		t.Errorf("empty batch: sum=%+v err=%v", sum, err)
	}
}

func TestDeriveSeedStable(t *testing.T) {
	a := DeriveSeed(1, "fig6 SPTF rate=1500")
	b := DeriveSeed(1, "fig6 SPTF rate=1500")
	c := DeriveSeed(1, "fig6 SPTF rate=2000")
	if a != b {
		t.Error("DeriveSeed not stable")
	}
	if a == c {
		t.Error("DeriveSeed should separate distinct labels")
	}
}

// Exercise the worker pool under the race detector with real contention:
// many jobs, progress callback, shared meters.
func TestPoolUnderLoad(t *testing.T) {
	jobs := make([]*Job, 64)
	for i := range jobs {
		jobs[i] = openJob(fmt.Sprintf("load%d", i), 100, int64(i), sim.Options{})
	}
	var last int32
	ctx := &Context{Workers: 8, Progress: func(ev Event) { atomic.StoreInt32(&last, int32(ev.Done)) }}
	sum, err := ctx.Run(jobs)
	if err != nil {
		t.Fatal(err)
	}
	if sum.Jobs != 64 || sum.Wall.N() != 64 || atomic.LoadInt32(&last) != 64 {
		t.Errorf("summary %+v, last event %d", sum, last)
	}
}

// labelProbe records the run labels of observed completions; safe for
// single-worker use only.
type labelProbe struct{ labels []string }

func (p *labelProbe) Observe(ev sim.ProbeEvent) {
	if ev.Kind == sim.EventComplete {
		p.labels = append(p.labels, ev.Run)
	}
}

func TestContextProbeObservesJobs(t *testing.T) {
	// A batch probe hears every engine job's lifecycle, each event
	// stamped with the job's label, in declaration order under Workers: 1.
	lp := &labelProbe{}
	jobs := []*Job{openJob("alpha", 3, 1, sim.Options{}), openJob("beta", 2, 2, sim.Options{})}
	c := &Context{Workers: 1, Sim: sim.Context{Probe: lp}}
	if _, err := c.Run(jobs); err != nil {
		t.Fatal(err)
	}
	want := []string{"alpha", "alpha", "alpha", "beta", "beta"}
	if len(lp.labels) != len(want) {
		t.Fatalf("labels = %v, want %v", lp.labels, want)
	}
	for i := range want {
		if lp.labels[i] != want[i] {
			t.Fatalf("labels = %v, want %v", lp.labels, want)
		}
	}
}

func TestContextProbeComposesWithJobProbe(t *testing.T) {
	// A job that declares its own probe (the phases experiment's
	// collector) still feeds the shared context probe.
	pc := sim.NewPhaseCollector()
	j := openJob("both", 4, 3, sim.Options{Probe: pc})
	lp := &labelProbe{}
	c := &Context{Workers: 1, Sim: sim.Context{Probe: lp}}
	if _, err := c.Run([]*Job{j}); err != nil {
		t.Fatal(err)
	}
	if pc.Stats().Requests != 4 {
		t.Errorf("job's own collector saw %d requests, want 4", pc.Stats().Requests)
	}
	if len(lp.labels) != 4 || lp.labels[0] != "both" {
		t.Errorf("shared probe saw %v", lp.labels)
	}
	if result(j).Phases == nil {
		t.Error("Result.Phases lost in probe composition")
	}
}

func TestCustomJobsAreNotProbed(t *testing.T) {
	// The runner emits no events of its own: a body that drives
	// no engine run leaves the batch probe silent.
	lp := &labelProbe{}
	ran := false
	j := &Job{Label: "custom", Body: func(*Job) any { ran = true; return 7 }}
	c := &Context{Workers: 1, Sim: sim.Context{Probe: lp}}
	if _, err := c.Run([]*Job{j}); err != nil {
		t.Fatal(err)
	}
	if !ran || j.Value() != 7 {
		t.Fatalf("custom job did not run: %v", j.Value())
	}
	if len(lp.labels) != 0 {
		t.Errorf("custom job leaked %v to the context probe", lp.labels)
	}
}

func TestCustomEngineRunsAreProbed(t *testing.T) {
	// A body that drives the engine through SimContext feeds the
	// batch probe under its job label, after any probe it declared.
	lp := &labelProbe{}
	pc := sim.NewPhaseCollector()
	j := &Job{Label: "custom-run", Body: func(job *Job) any {
		d := &tickDevice{svc: 1}
		src := workload.DefaultRandom(100, d.SectorSize(), d.Capacity(), 3, 1)
		return sim.Run(job.SimContext(), d, sched.NewFCFS(), src, sim.Options{Probe: pc})
	}}
	if _, err := (&Context{Workers: 1, Sim: sim.Context{Probe: lp}}).Run([]*Job{j}); err != nil {
		t.Fatal(err)
	}
	want := []string{"custom-run", "custom-run", "custom-run"}
	if !reflect.DeepEqual(lp.labels, want) {
		t.Errorf("labels = %v, want %v", lp.labels, want)
	}
	if res := j.Value().(sim.Result); res.Phases != pc.Stats() || pc.Stats().Requests != 3 {
		t.Errorf("job's own collector lost: phases %p, requests %d", res.Phases, pc.Stats().Requests)
	}
}

func TestErrorsJoinInDeclarationOrder(t *testing.T) {
	jobs := []*Job{
		{Label: "first-bad", Body: func(*Job) any { panic("alpha") }},
		{Label: "fine", Body: func(*Job) any { return nil }},
		{Label: "second-bad", Body: func(*Job) any { panic("beta") }},
	}
	_, err := (&Context{Workers: 3}).Run(jobs)
	if err == nil {
		t.Fatal("expected joined error")
	}
	msg := err.Error()
	ai, bi := strings.Index(msg, "alpha"), strings.Index(msg, "beta")
	if ai < 0 || bi < 0 || ai > bi {
		t.Errorf("errors not joined in declaration order: %q", msg)
	}
	if jobs[0].Err() == nil || jobs[1].Err() != nil || jobs[2].Err() == nil {
		t.Errorf("per-job errors: %v / %v / %v", jobs[0].Err(), jobs[1].Err(), jobs[2].Err())
	}
}

func TestWriteArtifactAtomic(t *testing.T) {
	path := filepath.Join(t.TempDir(), "table.csv")
	if err := WriteArtifact(path, func(w io.Writer) error {
		_, err := io.WriteString(w, "a,b\n1,2\n")
		return err
	}); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(path)
	if err != nil || string(got) != "a,b\n1,2\n" {
		t.Fatalf("artifact content = %q, err = %v", got, err)
	}

	// A failing render must leave the previous version untouched and no
	// temporary files behind.
	renderErr := errors.New("simulated crash mid-render")
	err = WriteArtifact(path, func(w io.Writer) error {
		io.WriteString(w, "partial garbage")
		return renderErr
	})
	if !errors.Is(err, renderErr) {
		t.Fatalf("render error not propagated: %v", err)
	}
	got, err = os.ReadFile(path)
	if err != nil || string(got) != "a,b\n1,2\n" {
		t.Errorf("failed render clobbered the artifact: %q, err = %v", got, err)
	}
	ents, err := os.ReadDir(filepath.Dir(path))
	if err != nil {
		t.Fatal(err)
	}
	if len(ents) != 1 {
		for _, e := range ents {
			t.Logf("left behind: %s", e.Name())
		}
		t.Errorf("%d directory entries after failed render, want 1", len(ents))
	}

	// A fresh path with a failing render must not create the file at all.
	missing := filepath.Join(t.TempDir(), "never.csv")
	if err := WriteArtifact(missing, func(io.Writer) error { return renderErr }); err == nil {
		t.Fatal("expected error")
	}
	if _, err := os.Stat(missing); !os.IsNotExist(err) {
		t.Errorf("failed render created the artifact: %v", err)
	}

	// An unwritable directory errors instead of panicking.
	if err := WriteArtifact("/nonexistent-dir/x.csv", func(io.Writer) error { return nil }); err == nil {
		t.Error("expected error for unwritable directory")
	}
}

func TestWriteArtifactBadPathFailsBeforeRender(t *testing.T) {
	// A path that can never be published fails before render runs, so a
	// render that simulates wastes no work on it.
	dir := t.TempDir()
	rendered := false
	render := func(io.Writer) error { rendered = true; return nil }
	err := WriteArtifact(dir, render)
	if err == nil || !strings.Contains(err.Error(), "is a directory") {
		t.Errorf("directory path: %v, want an is-a-directory error", err)
	}
	if err := WriteArtifact(filepath.Join(dir, "missing", "x.jsonl"), render); err == nil {
		t.Error("missing parent directory accepted")
	}
	if rendered {
		t.Error("render ran for a path that cannot be published")
	}
	if ents, _ := os.ReadDir(dir); len(ents) != 0 {
		t.Errorf("%d entries left in the directory, want 0", len(ents))
	}
}
