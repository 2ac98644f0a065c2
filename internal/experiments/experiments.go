// Package experiments regenerates every table and figure in the paper's
// evaluation, one builder per artifact, plus the two quantified
// extensions (fault tolerance and power) described in DESIGN.md §2.
//
// Each experiment declares a Plan: a set of independent runner.Jobs (one
// per simulation run) and an Assemble step that reads the finished jobs
// in declaration order and renders Tables — named, captioned, printable
// grids whose rows/series correspond to what the paper reports. Because
// assembly order is fixed by the declaration, executing a plan's jobs on
// a parallel worker pool produces output byte-identical to a sequential
// run. Absolute numbers come from this repository's re-derived device
// models; EXPERIMENTS.md records the paper-vs-measured comparison.
package experiments

import (
	"errors"
	"fmt"
	"io"
	"sort"
	"strings"

	"memsim/internal/runner"
)

// Params sizes the simulations. Default is used by cmd/memsbench; Quick
// shrinks runs for tests and benchmarks.
type Params struct {
	// Requests per open-arrival simulation run.
	Requests int
	// Warmup completions excluded from statistics.
	Warmup int
	// ClosedRequests per closed-loop (service-time) run.
	ClosedRequests int
	// Trials for Monte-Carlo experiments.
	Trials int
	// Seed for all generators.
	Seed int64
	// FaultRate, when positive, is an extra per-attempt transient-error
	// probability added to the faultinject sweep (cmd/memsbench
	// -fault-rate). Zero leaves the standard sweep untouched.
	FaultRate float64
	// FaultSeed seeds the fault injectors' private random streams; zero
	// derives one from Seed, so injection stays deterministic either way.
	FaultSeed int64
	// FailDev selects which volume member slot the rebuild experiment
	// kills (cmd/memsbench -fail-dev); it is reduced modulo the member
	// count, so any non-negative value is safe.
	FailDev int
	// RebuildFrac, when positive, adds an extra rebuild-throttle fraction
	// to the rebuild experiment's sweep (cmd/memsbench -rebuild).
	RebuildFrac float64
	// RebuildPolicy selects the rebuild experiment's pacing policies
	// (cmd/memsbench -rebuild-policy): "" runs the fixed-throttle sweep
	// plus the adaptive row, "fixed" the sweep alone, "adaptive" only the
	// adaptive row.
	RebuildPolicy string
	// MTTFHours is the per-device exponential MTTF for the mttdl
	// experiment's lifetime draws (cmd/memsbench -mttf-hours); zero
	// selects the default (see xmttdl.go). The value is deliberately
	// compressed versus real hardware so trial lifetimes stay tractable;
	// MTTDL scales as MTTF², so ratios between device types are
	// unaffected.
	MTTFHours float64
	// Sched, when non-empty, appends one more scheduling policy to the
	// schedcost experiment's single-device comparison (cmd/memsbench
	// -sched); any name sched.New accepts is valid. Empty keeps the
	// standard SPTF-vs-SettleAware pair.
	Sched string
	// MemberSched names the scheduling policy for the rebuild
	// experiment's volume member queues (cmd/memsbench -member-sched);
	// empty keeps SPTF, the historical default.
	MemberSched string
	// ThinkMs, when positive, gives the closed-loop layout experiment's
	// terminals exponential think time with this mean in milliseconds
	// (cmd/memsbench -think-ms), turning the back-to-back §5.3 regime
	// into a multiprogrammed one. Zero (the default) keeps the paper's
	// back-to-back behavior.
	ThinkMs float64
	// Checkpoint, when non-empty, is the path of an atomic progress
	// checkpoint (cmd/memsbench -checkpoint) for resumable experiments —
	// today the Monte-Carlo mttdl trials. An interrupted run saves its
	// partial trial state there; rerunning with the same flags resumes
	// from it and, because trial randomness comes from per-trial seed
	// sub-streams, produces output byte-identical to an uninterrupted
	// run. The whole Params set is bound into the checkpoint, so
	// resuming under different flags is an error, not a wrong answer.
	Checkpoint string
}

// faultSeed resolves the injector base seed per the FaultSeed contract.
func (p Params) faultSeed() int64 {
	if p.FaultSeed != 0 {
		return p.FaultSeed
	}
	return runner.DeriveSeed(p.Seed, "faultinject")
}

// Default returns full-size parameters (minutes of CPU for the whole
// suite).
func Default() Params {
	return Params{Requests: 20000, Warmup: 2000, ClosedRequests: 10000, Trials: 2000, Seed: 1}
}

// Quick returns reduced parameters for tests and benchmarks (seconds).
func Quick() Params {
	return Params{Requests: 3000, Warmup: 300, ClosedRequests: 1500, Trials: 200, Seed: 1}
}

// WithRequests rescales the parameter set to n open-arrival requests per
// run, scaling Warmup, ClosedRequests and Trials by the same factor so
// every regime shrinks or grows consistently. Non-positive n (or a
// receiver with no Requests to scale from) returns p unchanged.
func (p Params) WithRequests(n int) Params {
	if n <= 0 || p.Requests <= 0 {
		return p
	}
	scale := float64(n) / float64(p.Requests)
	resize := func(v int) int {
		if v <= 0 {
			return v
		}
		s := int(float64(v)*scale + 0.5)
		if s < 1 {
			s = 1
		}
		return s
	}
	p.Warmup = resize(p.Warmup)
	p.ClosedRequests = resize(p.ClosedRequests)
	p.Trials = resize(p.Trials)
	p.Requests = n
	return p
}

// Table is one printable result grid.
type Table struct {
	// ID is the artifact identifier ("fig6a", "table2", ...).
	ID string
	// Title is the caption.
	Title string
	// Columns are the header cells.
	Columns []string
	// Rows are formatted value cells.
	Rows [][]string
}

// AddRow appends a formatted row.
func (t *Table) AddRow(cells ...string) { t.Rows = append(t.Rows, cells) }

// Fprint renders the table with aligned columns. Rows may carry more
// cells than the header; extra columns get their own widths.
func (t *Table) Fprint(w io.Writer) {
	fmt.Fprintf(w, "── %s: %s\n", t.ID, t.Title)
	widths := make([]int, len(t.Columns))
	for i, c := range t.Columns {
		widths[i] = len([]rune(c))
	}
	for _, row := range t.Rows {
		for i, c := range row {
			for len(widths) <= i {
				widths = append(widths, 0)
			}
			if len([]rune(c)) > widths[i] {
				widths[i] = len([]rune(c))
			}
		}
	}
	line := func(cells []string) {
		parts := make([]string, len(cells))
		for i, c := range cells {
			parts[i] = fmt.Sprintf("%-*s", widths[i], c)
		}
		fmt.Fprintln(w, "  "+strings.TrimRight(strings.Join(parts, "  "), " "))
	}
	line(t.Columns)
	for _, row := range t.Rows {
		line(row)
	}
	fmt.Fprintln(w)
}

// CSV renders the table as comma-separated values.
func (t *Table) CSV(w io.Writer) {
	esc := func(s string) string {
		if strings.ContainsAny(s, ",\"\n") {
			return `"` + strings.ReplaceAll(s, `"`, `""`) + `"`
		}
		return s
	}
	cells := make([]string, len(t.Columns))
	for i, c := range t.Columns {
		cells[i] = esc(c)
	}
	fmt.Fprintln(w, strings.Join(cells, ","))
	for _, row := range t.Rows {
		cells = cells[:0]
		for _, c := range row {
			cells = append(cells, esc(c))
		}
		fmt.Fprintln(w, strings.Join(cells, ","))
	}
}

// Plan is one experiment's declarative form: independent jobs plus the
// assembly step that renders their results. Assemble must only be called
// after every job has executed; it reads job slots in declaration order,
// which is what makes parallel execution reproduce sequential output.
type Plan struct {
	// Jobs are the experiment's isolated simulation runs.
	Jobs []*runner.Job
	// Assemble renders the finished jobs into tables.
	Assemble func() []Table
}

// Builder declares the plan for one experiment at the given sizes.
type Builder func(Params) *Plan

// registry maps experiment IDs to builders, populated by each artifact
// file's init.
var registry = map[string]Builder{}

func register(id string, b Builder) {
	if _, dup := registry[id]; dup {
		panic("experiments: duplicate registration of " + id)
	}
	registry[id] = b
}

// IDs returns the registered experiment identifiers in a stable order.
func IDs() []string {
	var ids []string
	for id := range registry {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	return ids
}

// PlanFor builds the declarative plan for one experiment without
// executing it, so callers can batch several experiments' jobs onto one
// pool.
func PlanFor(id string, p Params) (*Plan, error) {
	b, ok := registry[id]
	if !ok {
		return nil, fmt.Errorf("experiments: unknown experiment %q (have %s)",
			id, strings.Join(IDs(), ", "))
	}
	return b(p), nil
}

// Run executes one experiment sequentially: a one-ID RunEach, so an
// execution failure reads "experiments: <id>: ...".
func Run(id string, p Params) ([]Table, error) {
	outs, _, err := RunEach(runner.Sequential(), []string{id}, p)
	if err != nil {
		return nil, err
	}
	return outs[0].Tables, outs[0].Err
}

// Outcome is one experiment's result within a batch: its tables when
// every one of its jobs succeeded, or the error that prevented
// assembly. An interrupted batch yields a mix — experiments whose jobs
// all finished carry Tables and are safe to publish, the rest carry
// Err — which is what lets a cancelled CLI still flush the artifacts
// that completed.
type Outcome struct {
	// ID is the experiment identifier the outcome belongs to.
	ID string
	// Tables holds the assembled artifact when Err is nil.
	Tables []Table
	// Err joins the experiment's job failures (cancellation included)
	// in declaration order; the Tables must not be read when non-nil.
	Err error
}

// RunEach executes several experiments as one job batch — the pool sees
// every job at once, so wide and narrow experiments interleave instead
// of serializing per artifact — and reports per-experiment Outcomes in
// the requested order: each experiment assembles if and only if all of
// its own jobs succeeded. The error return covers batch construction only
// (an unknown ID); execution failures live in the Outcomes.
func RunEach(ctx *runner.Context, ids []string, p Params) ([]Outcome, runner.Summary, error) {
	plans := make([]*Plan, len(ids))
	var jobs []*runner.Job
	for i, id := range ids {
		pl, err := PlanFor(id, p)
		if err != nil {
			return nil, runner.Summary{}, err
		}
		plans[i] = pl
		jobs = append(jobs, pl.Jobs...)
	}
	sum, _ := ctx.Run(jobs) // failures re-attributed per experiment below
	outs := make([]Outcome, len(ids))
	for i, pl := range plans {
		outs[i] = Outcome{ID: ids[i]}
		var errs []error
		for _, j := range pl.Jobs {
			if err := j.Err(); err != nil {
				errs = append(errs, err)
			}
		}
		if err := errors.Join(errs...); err != nil {
			outs[i].Err = fmt.Errorf("experiments: %s: %w", ids[i], err)
			continue
		}
		outs[i].Tables = pl.Assemble()
	}
	return outs, sum, nil
}

// mergePlans concatenates several plans into one: jobs in order, tables
// in order.
func mergePlans(plans ...*Plan) *Plan {
	out := &Plan{}
	for _, pl := range plans {
		out.Jobs = append(out.Jobs, pl.Jobs...)
	}
	out.Assemble = func() []Table {
		var ts []Table
		for _, pl := range plans {
			ts = append(ts, pl.Assemble()...)
		}
		return ts
	}
	return out
}

// tablesJob wraps a monolithic table computation — measurement loops
// that share state across rows, or pure arithmetic — in a single-job
// plan.
func tablesJob(label string, seed int64, body func() []Table) *Plan {
	j := &runner.Job{Label: label, Seed: seed, Body: func(*runner.Job) any { return body() }}
	return &Plan{
		Jobs:     []*runner.Job{j},
		Assemble: func() []Table { return j.Value().([]Table) },
	}
}

// ms formats a millisecond value for table cells.
func ms(v float64) string { return fmt.Sprintf("%.3f", v) }

// f2 formats a dimensionless value.
func f2(v float64) string { return fmt.Sprintf("%.2f", v) }
