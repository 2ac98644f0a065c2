package experiments

import (
	"fmt"

	"memsim/internal/core"
	"memsim/internal/runner"
	"memsim/internal/sim"
	"memsim/internal/stats"
	"memsim/internal/workload"
)

func init() { register("schedcost", schedCostPlan) }

// schedCostSchedulers is the single-device comparison set; a -sched
// override appends one more policy to the sweep.
func schedCostSchedulers(p Params) []string {
	names := []string{"SPTF", "SettleAware"}
	if p.Sched != "" {
		for _, n := range names {
			if n == p.Sched {
				return names
			}
		}
		names = append(names, p.Sched)
	}
	return names
}

// schedCostDevices pairs each device with an arrival rate in the
// contended region where queue order matters (utilization ≈ 0.8, cf.
// figs. 5/6).
func schedCostDevices() []ratedDevice {
	return []ratedDevice{
		{"MEMS", memsFactory(1), 1000},
		{"Atlas 10K", func() core.Device { return newDisk() }, 100},
	}
}

// schedCostOutcome is one single-device run's summary.
type schedCostOutcome struct {
	simMs          float64 // the run's Result.Elapsed
	mean, p95, p99 float64 // response time, ms
	settle         float64 // mean settle per request, ms
	service        float64 // mean device service per request, ms
}

// respProbe collects the measured response-time distribution, which
// Result.Response (a Welford accumulator) cannot report percentiles
// from.
type respProbe struct {
	d stats.Dist
}

func (r *respProbe) Observe(ev sim.ProbeEvent) {
	if ev.Kind == sim.EventComplete && ev.Measured {
		r.d.Add(ev.Req.ResponseTime())
	}
}

func (r *respProbe) ResetProbe() { r.d = stats.Dist{} }

func schedCostRun(ctx *sim.Context, dev ratedDevice, schedName string, p Params) schedCostOutcome {
	d := dev.mk()
	pc := sim.NewPhaseCollector()
	rp := &respProbe{}
	src := workload.DefaultRandom(dev.rate, d.SectorSize(), d.Capacity(), p.Requests, p.Seed)
	res := sim.Run(ctx, d, newSched(schedName), src,
		sim.Options{Warmup: p.Warmup, Probe: sim.MultiProbe{pc, rp}})
	return schedCostOutcome{
		simMs:   res.Elapsed,
		mean:    rp.d.Mean(),
		p95:     rp.d.P95(),
		p99:     rp.d.P99(),
		settle:  res.Phases.Settle.Mean(),
		service: res.Phases.Service.Mean(),
	}
}

// schedDegradedFracs are the rebuild-throttle operating points of the
// degraded-latency comparison.
var schedDegradedFracs = []float64{0.3, 1.0}

// schedDegradedScheds are the member-queue policies under comparison:
// the historical cost-only default versus the class-aware policy.
var schedDegradedScheds = []string{"SPTF", "Priority"}

// schedCostPlan (extension) exercises the cost-model scheduling framework
// along both of its axes. Part one compares plain SPTF against the
// settle-aware variant on each device type under the random workload:
// SettleAware discounts the settling floor every candidate must pay, so
// on the MEMS device (where settling dominates positioning, §4.1) it
// ranks candidates by the portion of service the scheduler can actually
// influence. Part two runs the rebuild regime with class-aware Priority
// member queues: degraded-mode reconstruction reads jump ahead of
// foreground and rebuild traffic, bounding the degraded-read tail that
// plain SPTF lets rebuild chunks inflate.
func schedCostPlan(p Params) *Plan {
	devices := schedCostDevices()
	names := schedCostSchedulers(p)

	grid := make([][]*runner.Job, len(devices))
	var jobs []*runner.Job
	for di, dev := range devices {
		grid[di] = make([]*runner.Job, len(names))
		for si, name := range names {
			j := &runner.Job{
				Label: fmt.Sprintf("schedcost %s %s", dev.name, name),
				Seed:  p.Seed,
			}
			j.Body = func(job *runner.Job) any {
				return schedCostRun(job.SimContext(), dev, name, p)
			}
			grid[di][si] = j
			jobs = append(jobs, j)
		}
	}

	degraded := make([][]*runner.Job, len(schedDegradedFracs))
	for fi, frac := range schedDegradedFracs {
		degraded[fi] = make([]*runner.Job, len(schedDegradedScheds))
		for si, name := range schedDegradedScheds {
			j := &runner.Job{
				Label: fmt.Sprintf("schedcost degraded %s f=%g", name, frac),
				Seed:  p.Seed,
			}
			j.Body = func(job *runner.Job) any {
				// Fault rate 0 keeps -fault-rate off these rows, so they
				// isolate the member-queue policy.
				return rebuildRun(job.SimContext(), rebuildParityCfg(), memsFactory(1), 1000, frac, false, name, 0, p)
			}
			degraded[fi][si] = j
			jobs = append(jobs, j)
		}
	}

	return &Plan{
		Jobs: jobs,
		Assemble: func() []Table {
			a := Table{
				ID:    "schedcost",
				Title: "cost-model scheduling: settle-aware SPTF vs. plain SPTF, random workload (util ≈ 0.8)",
				Columns: []string{"device", "scheduler", "mean(ms)", "p95(ms)", "p99(ms)",
					"settle(ms/req)", "service(ms/req)"},
			}
			for di, dev := range devices {
				for si, name := range names {
					o := grid[di][si].Value().(schedCostOutcome)
					a.AddRow(dev.name, name, ms(o.mean), ms(o.p95), ms(o.p99),
						ms(o.settle), ms(o.service))
				}
			}
			b := Table{
				ID:    "schedcost-degraded",
				Title: "degraded-read tail under rebuild, MEMS parity volume: class-aware Priority vs. SPTF member queues",
				Columns: []string{"throttle", "SPTF degr-p99(ms)", "Priority degr-p99(ms)",
					"SPTF fg-p95(ms)", "Priority fg-p95(ms)", "degr reads", "MTTR(s)"},
			}
			for fi, frac := range schedDegradedFracs {
				s := degraded[fi][0].Value().(rebuildOutcome)
				pr := degraded[fi][1].Value().(rebuildOutcome)
				b.AddRow(f2(frac), ms(s.degradedP99), ms(pr.degradedP99),
					ms(s.healthyP95), ms(pr.healthyP95),
					fmt.Sprintf("%d", s.degradedReads+pr.degradedReads), f2(pr.mttrS))
			}
			return []Table{a, b}
		},
	}
}
