package experiments

import (
	"fmt"

	"memsim/internal/runner"
	"memsim/internal/sched"
	"memsim/internal/sim"
	"memsim/internal/workload"
)

func init() { register("phases", phasesPlan) }

// phasesPlan reproduces the §4.1-style decomposition argument with the
// request-lifecycle probe: the per-phase service breakdown — seek,
// settle/rotate, turnaround, transfer, overhead — for the MEMS device
// and the Atlas 10K under all four schedulers, random workload, at a
// moderate load both devices sustain. It is the number behind the
// paper's claim that MEMS positioning is small and settle-dominated
// where disk positioning is large and rotation-dominated — which is why
// SPTF's advantage shrinks on MEMS (Fig. 6) and why organ-pipe layouts
// pay off (§5).
func phasesPlan(p Params) *Plan {
	// Rates sit near half of FCFS saturation for each device (mean
	// random 4 KB service ≈ 0.8 ms MEMS, ≈ 8.4 ms disk), so queues form
	// and the schedulers differentiate without starving FCFS.
	devices := []ratedDevice{
		{"MEMS", memsFactory(1), 1000},
		{"Atlas 10K", diskFactory, 60},
	}
	names := sched.Names()

	var jobs []*runner.Job
	for _, dv := range devices {
		for _, name := range names {
			jobs = append(jobs, runJob(fmt.Sprintf("phases %s %s rate=%g", dv.name, name, dv.rate), p.Seed, func(ctx *sim.Context) sim.Result {
				d := dv.mk()
				src := workload.DefaultRandom(dv.rate, d.SectorSize(), d.Capacity(), p.Requests, p.Seed)
				return sim.Run(ctx, d, newSched(name), src, sim.Options{Warmup: p.Warmup, Probe: sim.NewPhaseCollector()})
			}))
		}
	}

	return &Plan{
		Jobs: jobs,
		Assemble: func() []Table {
			a := Table{
				ID:    "phasesa",
				Title: "per-phase mean service time, random workload (ms)",
				Columns: []string{"device", "scheduler", "seek", "settle/rot", "turnarnd",
					"transfer", "overhead", "position", "service"},
			}
			b := Table{
				ID:    "phasesb",
				Title: "positioning and service tails, random workload (ms)",
				Columns: []string{"device", "scheduler", "pos p95", "pos p99",
					"svc p95", "svc p99", "pos share"},
			}
			i := 0
			for _, dv := range devices {
				for _, name := range names {
					ps := result(jobs[i]).Phases
					if ps == nil {
						panic(fmt.Sprintf("phases: job %q ran without phase stats", jobs[i].Label))
					}
					a.AddRow(dv.name, name,
						ms(ps.Seek.Mean()), ms(ps.Settle.Mean()), ms(ps.Turnaround.Mean()),
						ms(ps.Transfer.Mean()), ms(ps.Overhead.Mean()),
						ms(ps.Positioning.Mean()), ms(ps.Service.Mean()))
					share := 0.0
					if m := ps.Service.Mean(); m > 0 {
						share = ps.Positioning.Mean() / m
					}
					b.AddRow(dv.name, name,
						ms(ps.Positioning.P95()), ms(ps.Positioning.P99()),
						ms(ps.Service.P95()), ms(ps.Service.P99()), f2(share))
					i++
				}
			}
			return []Table{a, b}
		},
	}
}
