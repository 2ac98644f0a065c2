package experiments

import (
	"memsim/internal/core"
	"memsim/internal/runner"
	"memsim/internal/sched"
	"memsim/internal/sim"
	"memsim/internal/workload"
)

func init() { register("aging", agingPlan) }

// agingPlan declares the ablation suggested by our Fig. 6 reproduction
// (extension): pure SPTF's greediness makes its σ²/µ² explode near the
// saturation knee — plausibly the paper's unexplained "odd behavior of
// SPTF between 1500 and 2000 requests/sec". Aged SPTF discounts each
// request's positioning estimate by Weight · wait-time; a small weight
// restores bounded tails at modest mean-response cost.
func agingPlan(p Params) *Plan {
	mks := []func() core.Scheduler{
		func() core.Scheduler { return sched.NewSPTF() },
		func() core.Scheduler { return sched.NewASPTF(0.01) },
		func() core.Scheduler { return sched.NewASPTF(0.05) },
		func() core.Scheduler { return sched.NewASPTF(0.2) },
		func() core.Scheduler { return sched.NewSSTF() },
		func() core.Scheduler { return sched.NewCLOOK() },
	}
	names := make([]string, len(mks))
	jobs := make([]*runner.Job, len(mks))
	for i, mk := range mks {
		names[i] = mk().Name()
		jobs[i] = runJob("aging "+names[i], p.Seed, func(ctx *sim.Context) sim.Result {
			d := newMEMS(1)
			src := workload.DefaultRandom(1600, d.SectorSize(), d.Capacity(), p.Requests, p.Seed)
			return sim.Run(ctx, d, mk(), src, sim.Options{Warmup: p.Warmup})
		})
	}
	return &Plan{
		Jobs: jobs,
		Assemble: func() []Table {
			t := Table{
				ID:      "aging",
				Title:   "SPTF aging at the saturation knee (MEMS, random workload, 1600 req/s)",
				Columns: []string{"scheduler", "mean response(ms)", "cv²", "max response(ms)"},
			}
			for i, j := range jobs {
				res := result(j)
				t.AddRow(names[i], ms(res.Response.Mean()), f2(res.Response.SquaredCV()),
					ms(res.Response.Max()))
			}
			return []Table{t}
		},
	}
}
