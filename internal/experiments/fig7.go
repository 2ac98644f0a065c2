package experiments

import (
	"fmt"

	"memsim/internal/runner"
	"memsim/internal/sched"
	"memsim/internal/sim"
	"memsim/internal/trace"
	"memsim/internal/workload"
)

func init() { register("fig7", fig7Plan) }

// fig7Plan reproduces Fig. 7: scheduler comparison on the MEMS device
// under the two realistic workloads, swept by the trace scale factor
// (traced interarrival times divided by the factor, §4.3 footnote 2). The
// traces are the synthetic Cello-like and TPC-C-like stand-ins documented
// in DESIGN.md §5.
func fig7Plan(p Params) *Plan {
	// Base rates: Cello ≈ 40 req/s, TPC-C ≈ 120 req/s; the MEMS device
	// saturates near 1300 random req/s, so the interesting scale regions
	// differ per trace.
	genCello := func(capacity int64, n int) *trace.Trace {
		return trace.GenerateCello(trace.DefaultCello(capacity, n))
	}
	genTPCC := func(capacity int64, n int) *trace.Trace {
		return trace.GenerateTPCC(trace.DefaultTPCC(capacity, n))
	}
	return mergePlans(
		traceSweepPlan("fig7a", "Cello trace", genCello, []float64{4, 8, 12, 16, 20, 24, 28}, p),
		traceSweepPlan("fig7b", "TPC-C trace", genTPCC, []float64{2, 4, 6, 8, 10, 12}, p),
	)
}

// traceSweepPlan declares the trace replay at each scale factor under
// every scheduler — one job per (scale, scheduler) cell. Trace generation
// is deterministic, so each job regenerates and scales its own copy
// rather than sharing request structs across concurrent runs.
func traceSweepPlan(id, title string, gen func(capacity int64, n int) *trace.Trace,
	scales []float64, p Params) *Plan {
	names := sched.Names()
	grid := make([][]*runner.Job, len(scales))
	var jobs []*runner.Job
	for xi, scale := range scales {
		grid[xi] = make([]*runner.Job, len(names))
		for si, name := range names {
			j := runJob(fmt.Sprintf("%s %s scale=%g", id, name, scale), p.Seed, func(ctx *sim.Context) sim.Result {
				d := newMEMS(1)
				src := workload.NewFromSlice(gen(d.Capacity(), p.Requests).Scale(scale).Requests())
				return sim.Run(ctx, d, newSched(name), src, sim.Options{Warmup: p.Warmup})
			})
			grid[xi][si] = j
			jobs = append(jobs, j)
		}
	}
	return &Plan{
		Jobs: jobs,
		Assemble: func() []Table {
			t := Table{
				ID:      id,
				Title:   "average response time vs. trace scale factor, " + title + " on MEMS (ms)",
				Columns: append([]string{"scale"}, names...),
			}
			cvt := Table{
				ID:      id + "-cv2",
				Title:   "squared coefficient of variation, " + title + " on MEMS",
				Columns: append([]string{"scale"}, names...),
			}
			for xi, scale := range scales {
				row := []string{f2(scale)}
				cvRow := []string{f2(scale)}
				for si := range names {
					res := result(grid[xi][si])
					row = append(row, ms(res.Response.Mean()))
					cvRow = append(cvRow, f2(res.Response.SquaredCV()))
				}
				t.AddRow(row...)
				cvt.AddRow(cvRow...)
			}
			return []Table{t, cvt}
		},
	}
}
