package experiments

import (
	"fmt"

	"memsim/internal/array"
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
// scale a volume's throughput. The random workload runs over striped MEMS
// volumes (array.VolStripe, sim.RunVolume) of 1, 2 and 4 sleds under
// SPTF; each member runs its own queue, so the volume's saturation rate
// scales with member count.
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
				Title:   "requests clamped to a strip boundary before striping, same runs",
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
	clamped int     // requests the source clamped to a strip boundary
}

// stripUnit is the striping study's strip: one MEMS cylinder.
const stripUnit = 2700

// stripClamp cuts each request that crosses a strip boundary at that
// boundary and counts the cuts, so every request lands on one member as
// one operation. The volume planner would instead split such a request
// fork-join; the study keeps the clamp so its published numbers stay
// put until it is re-pinned on the split.
type stripClamp struct {
	src     *workload.Random
	clamped int
}

// Recycle implements workload.Recycler, handing r back to the wrapped
// stream.
func (c *stripClamp) Recycle(r *core.Request) { c.src.Recycle(r) }

// Next implements workload.Source.
func (c *stripClamp) Next() *core.Request {
	r := c.src.Next()
	if r == nil {
		return nil
	}
	if off := r.LBN % stripUnit; off+int64(r.Blocks) > stripUnit {
		r.Blocks = int(stripUnit - off)
		c.clamped++
	}
	return r
}

// stripedResponse simulates an n-sled volume at the given rate and
// returns the mean response time — or −1 when the configuration is
// hopelessly saturated (mean response above 1 s) — together with the
// source's clamp count.
func stripedResponse(job *runner.Job, n int, rate float64, p Params) stripedOutcome {
	res, clamped := stripedRun(job.SimContext(), n, rate, p)
	out := stripedOutcome{mean: res.Response.Mean(), clamped: clamped}
	if out.mean > 1000 {
		out.mean = -1
	}
	return out
}

// stripedConfig is the random workload one striping cell draws over an
// n-member stripe of per sectors per member.
func stripedConfig(n int, rate float64, p Params, sectorSize int, per int64) workload.RandomConfig {
	return workload.RandomConfig{
		Rate:         rate,
		ReadFraction: 0.67,
		MeanBytes:    4096,
		MaxBytes:     64 * 1024,
		SectorSize:   sectorSize,
		Capacity:     per * int64(n),
		Count:        p.Requests,
		Seed:         p.Seed,
	}
}

// stripedRun drives one striping cell: the clamped random workload over
// an n-sled stripe volume with one SPTF queue per sled. It returns the
// run's Result and the number of requests the source clamped.
func stripedRun(ctx *sim.Context, n int, rate float64, p Params) (sim.Result, int) {
	devs := make([]core.Device, n)
	scheds := make([]core.Scheduler, n)
	for i := range devs {
		devs[i] = mems.MustDevice(mems.DefaultConfig())
		scheds[i] = sched.NewSPTF()
	}
	per := devs[0].Capacity()
	v, err := array.NewVolume(array.VolumeConfig{Level: array.VolStripe, Members: n,
		StripeUnit: stripUnit, PerMember: per})
	if err != nil {
		// Recovered by the runner into a per-job error.
		panic(err)
	}
	src := &stripClamp{src: workload.NewRandom(stripedConfig(n, rate, p, devs[0].SectorSize(), per))}
	res, err := sim.RunVolume(ctx, sim.VolumeSpec{Volume: v, Devices: devs, Scheds: scheds}, src,
		sim.Options{Warmup: p.Warmup})
	if err != nil {
		panic(err)
	}
	return res, src.clamped
}
