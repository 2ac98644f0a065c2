package experiments

import (
	"math/rand"

	"memsim/internal/core"
)

func init() { register("fig10", fig10Plan) }

// fig10Plan reproduces Fig. 10: service time of a 256 KB read as a
// function of the X (cylinder) distance between the sled's starting
// position and the request. Because transfer dominates, even a
// 1000-cylinder seek should add only ≈10–12% (§5.2).
//
// One rng spans every distance row, so the whole figure is a single job.
func fig10Plan(p Params) *Plan {
	return tablesJob("fig10", p.Seed, func() []Table {
		d := newMEMS(1)
		g := d.Geometry()
		blocks := 256 * 1024 / g.SectorSize
		rng := rand.New(rand.NewSource(p.Seed))
		trials := p.Trials / 4
		if trials < 50 {
			trials = 50
		}

		t := Table{
			ID:      "fig10",
			Title:   "256 KB read service time vs. X seek distance (ms)",
			Columns: []string{"distance(cyl)", "service(ms)", "vs. 0-distance"},
		}
		base := 0.0
		for _, dist := range []int{0, 100, 200, 400, 600, 800, 1000, 1400, 1800, 2200, 2499} {
			sum := 0.0
			for i := 0; i < trials; i++ {
				start := rng.Intn(g.Cylinders - dist)
				target := start + dist
				d.SetState(start, float64(rng.Intn(g.BitsY)), 0)
				lbn := g.LBN(target, 0, 0, 0)
				if lbn+int64(blocks) > g.TotalSectors {
					lbn = g.TotalSectors - int64(blocks)
				}
				sum += d.Access(&core.Request{Op: core.Read, LBN: lbn, Blocks: blocks}, 0)
			}
			mean := sum / float64(trials)
			if dist == 0 {
				base = mean
			}
			t.AddRow(f2(float64(dist)), ms(mean), f2(mean/base*100-100)+"%")
		}
		return []Table{t}
	})
}
