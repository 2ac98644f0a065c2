package experiments

import (
	"fmt"

	"memsim/internal/core"
	"memsim/internal/disk"
	"memsim/internal/mems"
	"memsim/internal/runner"
	"memsim/internal/sched"
	"memsim/internal/sim"
	"memsim/internal/workload"
)

// newMEMS builds the default (Table 1) MEMS device, optionally overriding
// the settling-constant count (Fig. 8 and the "no settle" variants use 0
// or 2).
func newMEMS(settleConstants float64) *mems.Device {
	cfg := mems.DefaultConfig()
	cfg.SettleConstants = settleConstants
	return mems.MustDevice(cfg)
}

// newDisk builds the Atlas-10K-style reference disk.
func newDisk() *disk.Device { return disk.MustDevice(disk.Atlas10K()) }

// memsFactory returns a factory for MEMS devices with the given settling
// constant, so each job body builds its own instance.
func memsFactory(settleConstants float64) func() core.Device {
	return func() core.Device { return newMEMS(settleConstants) }
}

// diskFactory builds a fresh reference disk, for plans that take a
// device factory.
func diskFactory() core.Device { return newDisk() }

// closedMean serves reqs back to back on d under the job's run policy
// and returns the mean service time in ms. Busy/Requests sums service
// times in issue order, exactly as a hand-written `sum += d.Access`
// loop does, so it is bit-identical to one; the Welford mean is not.
func closedMean(ctx *sim.Context, d core.Device, reqs []*core.Request) float64 {
	res := sim.RunClosed(ctx, d, workload.NewFromSlice(reqs), sim.Options{})
	return res.Busy / float64(res.Requests)
}

// newSched builds the named scheduler. The names come from sched.Names
// or a flag validated at parse time, so construction cannot fail.
func newSched(name string) core.Scheduler {
	s, err := sched.New(name)
	if err != nil {
		panic(err)
	}
	return s
}

// runJob declares a job whose body is one engine run under the job's
// run policy; result reads the sim.Result it returned.
func runJob(label string, seed int64, run func(*sim.Context) sim.Result) *runner.Job {
	return &runner.Job{Label: label, Seed: seed, Body: func(j *runner.Job) any { return run(j.SimContext()) }}
}

// result reads a finished runJob's Result.
func result(j *runner.Job) sim.Result { return j.Value().(sim.Result) }

// sweepPlan declares the random-workload scheduler sweep — one job per
// (rate, scheduler) cell — and assembles the two-panel mean-response /
// cv² tables of Figs. 5, 6 and 8.
func sweepPlan(idPrefix, device string, dev func() core.Device, rates []float64, p Params) *Plan {
	names := sched.Names()
	grid := make([][]*runner.Job, len(rates))
	var jobs []*runner.Job
	for ri, rate := range rates {
		grid[ri] = make([]*runner.Job, len(names))
		for si, name := range names {
			j := runJob(fmt.Sprintf("%s %s rate=%g", idPrefix, name, rate), p.Seed, func(ctx *sim.Context) sim.Result {
				d := dev()
				src := workload.DefaultRandom(rate, d.SectorSize(), d.Capacity(), p.Requests, p.Seed)
				return sim.Run(ctx, d, newSched(name), src, sim.Options{Warmup: p.Warmup})
			})
			grid[ri][si] = j
			jobs = append(jobs, j)
		}
	}
	return &Plan{
		Jobs: jobs,
		Assemble: func() []Table {
			resp := make([][]float64, len(rates))
			cv := make([][]float64, len(rates))
			for ri := range rates {
				resp[ri] = make([]float64, len(names))
				cv[ri] = make([]float64, len(names))
				for si := range names {
					res := result(grid[ri][si])
					resp[ri][si] = res.Response.Mean()
					cv[ri][si] = res.Response.SquaredCV()
				}
			}
			return sweepTables(idPrefix, device, rates, resp, cv)
		},
	}
}

// sweepTables renders a scheduler sweep into the paper's two-panel form.
func sweepTables(idPrefix, device string, rates []float64, resp, cv [][]float64) []Table {
	a := Table{
		ID:      idPrefix + "a",
		Title:   "average response time vs. arrival rate, " + device + " (ms)",
		Columns: append([]string{"rate(req/s)"}, sched.Names()...),
	}
	b := Table{
		ID:      idPrefix + "b",
		Title:   "squared coefficient of variation of response time, " + device,
		Columns: append([]string{"rate(req/s)"}, sched.Names()...),
	}
	for ri, rate := range rates {
		rowA := []string{f2(rate)}
		rowB := []string{f2(rate)}
		for si := range sched.Names() {
			rowA = append(rowA, ms(resp[ri][si]))
			rowB = append(rowB, f2(cv[ri][si]))
		}
		a.AddRow(rowA...)
		b.AddRow(rowB...)
	}
	return []Table{a, b}
}
