package experiments

import (
	"fmt"

	"memsim/internal/core"
	"memsim/internal/layout"
	"memsim/internal/runner"
	"memsim/internal/sim"
	"memsim/internal/workload"
)

func init() { register("fig11", fig11Plan) }

// organPipeSmallFrac sizes the organ-pipe small core. The §5.3 workload's
// small population is placed dead-center; 4% of capacity matches the
// columnar layout's center column so the X-locality comparison is fair.
const organPipeSmallFrac = 0.04

// fig11Plan reproduces Fig. 11: the bipartite workload (89% 4 KB, 11%
// 400 KB reads) under four layouts on the default MEMS device, the
// zero-settle MEMS device, and the Atlas 10K (simple vs. organ pipe).
// Expected shape (§5.3): all placement schemes beat simple by 13–20%;
// on MEMS-no-settle the subregioned layout — the only one that optimizes
// Y as well as X — wins by a further margin, showing that the optimal
// disk layout is not optimal for MEMS-based storage.
func fig11Plan(p Params) *Plan {
	// Placers are static LBN→position maps built against the shared
	// derived geometry; each one is captured by exactly one job, which
	// runs it against that job's own fresh device instance.
	type group struct {
		device  string
		dev     func() core.Device
		placers []layout.Placer
	}
	g1 := newMEMS(1).Geometry()
	g0 := newMEMS(0).Geometry()
	dd := newDisk()
	groups := []group{
		{"MEMS", memsFactory(1), []layout.Placer{
			layout.NewSimple(g1.TotalSectors),
			layout.NewOrganPipe(g1.TotalSectors, organPipeSmallFrac),
			layout.NewMEMSColumnar(g1, 25),
			layout.NewMEMSSubregioned(g1, 5),
		}},
		{"MEMS-nosettle", memsFactory(0), []layout.Placer{
			layout.NewSimple(g0.TotalSectors),
			layout.NewOrganPipe(g0.TotalSectors, organPipeSmallFrac),
			layout.NewMEMSColumnar(g0, 25),
			layout.NewMEMSSubregioned(g0, 5),
		}},
		{"Atlas10K", diskFactory, []layout.Placer{
			layout.NewSimple(dd.Capacity()),
			layout.NewOrganPipe(dd.Capacity(), organPipeSmallFrac),
		}},
	}

	jobsOf := make([][]*runner.Job, len(groups))
	var jobs []*runner.Job
	for gi, grp := range groups {
		jobsOf[gi] = make([]*runner.Job, len(grp.placers))
		for pi, pl := range grp.placers {
			j := runJob(fmt.Sprintf("fig11 %s %s", grp.device, pl.Name()), p.Seed, func(ctx *sim.Context) sim.Result {
				// The paper's 10 000 reads, or ClosedRequests when a
				// scaled-down run asks for fewer.
				cfg := workload.DefaultBipartite(p.Seed)
				if p.ClosedRequests > 0 {
					cfg.Count = min(cfg.Count, p.ClosedRequests)
				}
				src := workload.Source(workload.NewBipartite(cfg, pl))
				if p.ThinkMs > 0 {
					// Multiprogrammed closed loop: each terminal thinks
					// (exponential mean -think-ms) before its next
					// request. Off by default — the paper's regime is
					// strictly back-to-back.
					src = workload.ThinkTime(src, workload.ExpThink(p.ThinkMs),
						runner.DeriveSeed(p.Seed, "thinktime"))
				}
				return sim.RunClosed(ctx, grp.dev(), src, sim.Options{})
			})
			jobsOf[gi][pi] = j
			jobs = append(jobs, j)
		}
	}
	return &Plan{
		Jobs: jobs,
		Assemble: func() []Table {
			t := Table{
				ID:      "fig11",
				Title:   "average service time by layout scheme (ms); improvement vs. simple",
				Columns: []string{"device", "layout", "service(ms)", "vs. simple"},
			}
			for gi, grp := range groups {
				base := 0.0
				for pi, pl := range grp.placers {
					mean := result(jobsOf[gi][pi]).Service.Mean()
					if pi == 0 {
						base = mean
					}
					t.AddRow(grp.device, pl.Name(), ms(mean), fmt.Sprintf("%+.1f%%", (1-mean/base)*100))
				}
			}
			return []Table{t}
		},
	}
}
