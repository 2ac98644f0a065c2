package experiments

import (
	"fmt"

	"memsim/internal/core"
	"memsim/internal/mems"
	"memsim/internal/runner"
	"memsim/internal/sched"
	"memsim/internal/sim"
	"memsim/internal/workload"
)

func init() { register("striping", stripingPlan) }

// stripingPlan declares the striping study (extension): the paper's TPC-C
// testbed striped its database across two drives — the standard way to
// scale a volume's throughput. The event-driven multi-queue simulator
// drives the random workload over striped MEMS volumes of 1, 2 and 4
// sleds under SPTF; each member runs its own queue, so the volume's
// saturation rate scales with member count.
func stripingPlan(p Params) *Plan {
	rates := []float64{1000, 2000, 4000, 6000, 8000}
	counts := []int{1, 2, 4}
	grid := make([][]*runner.Job, len(rates))
	var jobs []*runner.Job
	for ri, rate := range rates {
		grid[ri] = make([]*runner.Job, len(counts))
		for ni, n := range counts {
			j := &runner.Job{
				Label: fmt.Sprintf("striping %d sleds rate=%g", n, rate),
				Seed:  p.Seed,
				Body: func(job *runner.Job) any {
					return stripedResponse(job, n, rate, p)
				},
			}
			grid[ri][ni] = j
			jobs = append(jobs, j)
		}
	}
	return &Plan{
		Jobs: jobs,
		Assemble: func() []Table {
			t := Table{
				ID:      "striping",
				Title:   "striped MEMS volume: mean response (ms) vs. arrival rate",
				Columns: []string{"rate(req/s)", "1 sled", "2 sleds", "4 sleds"},
			}
			c := Table{
				ID:      "striping-clamps",
				Title:   "requests clamped to a strip boundary by the stripe router, same runs",
				Columns: []string{"rate(req/s)", "1 sled", "2 sleds", "4 sleds"},
			}
			for ri, rate := range rates {
				row := []string{f2(rate)}
				crow := []string{f2(rate)}
				for ni := range counts {
					o := grid[ri][ni].Value().(stripedOutcome)
					if o.mean < 0 {
						row = append(row, "—")
					} else {
						row = append(row, ms(o.mean))
					}
					crow = append(crow, fmt.Sprintf("%d", o.clamped))
				}
				t.AddRow(row...)
				c.AddRow(crow...)
			}
			return []Table{t, c}
		},
	}
}

// stripedOutcome is one striping run's summary, returned by the job's
// body.
type stripedOutcome struct {
	mean    float64 // mean response (ms), or −1 when hopelessly saturated
	clamped int     // requests the stripe router clamped to a strip boundary
}

// stripedResponse simulates an n-sled volume at the given rate and
// returns the mean response time — or −1 when the configuration is
// hopelessly saturated (mean response above 1 s) — together with the
// router's clamp count.
func stripedResponse(job *runner.Job, n int, rate float64, p Params) stripedOutcome {
	devs := make([]core.Device, n)
	scheds := make([]core.Scheduler, n)
	for i := range devs {
		devs[i] = mems.MustDevice(mems.DefaultConfig())
		scheds[i] = sched.NewSPTF()
	}
	per := devs[0].Capacity()
	// Volume-level requests stay within one member strip: the stripe
	// unit is one cylinder, and the generator caps request size below it.
	unit := int64(2700)
	cfg := workload.RandomConfig{
		Rate:         rate,
		ReadFraction: 0.67,
		MeanBytes:    4096,
		MaxBytes:     64 * 1024,
		SectorSize:   devs[0].SectorSize(),
		Capacity:     per * int64(n),
		Count:        p.Requests,
		Seed:         p.Seed,
	}
	src := workload.NewRandom(cfg)
	res, err := sim.RunMulti(job.SimContext(), devs, scheds, sim.StripeRouter(unit, n), src,
		sim.Options{Warmup: p.Warmup})
	if err != nil {
		// Recovered by the runner into a per-job error.
		panic(err)
	}
	out := stripedOutcome{mean: res.Response.Mean(), clamped: res.ClampedRequests}
	if out.mean > 1000 {
		out.mean = -1
	}
	return out
}
