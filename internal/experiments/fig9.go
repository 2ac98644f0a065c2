package experiments

import (
	"fmt"
	"math/rand"

	"memsim/internal/core"
	"memsim/internal/mems"
	"memsim/internal/runner"
	"memsim/internal/sim"
	"memsim/internal/workload"
)

func init() { register("fig9", fig9Plan) }

// subregionRequests builds closed-loop 4 KB reads whose start and end lie
// inside subregion (xBand, yBand) of an n×n grid over the sled.
func subregionRequests(g *mems.Geometry, n, xBand, yBand, count int, seed int64) []*core.Request {
	rng := rand.New(rand.NewSource(seed))
	cLo, cHi := xBand*g.Cylinders/n, (xBand+1)*g.Cylinders/n
	rLo, rHi := yBand*g.RowsPerTrack/n, (yBand+1)*g.RowsPerTrack/n
	reqs := core.NewRequests(count)
	for _, r := range reqs {
		cyl := cLo + rng.Intn(cHi-cLo)
		track := rng.Intn(g.TracksPerCylinder)
		row := rLo + rng.Intn(rHi-rLo)
		r.Op, r.LBN = core.Read, g.LBN(cyl, track, row, 0)
		r.Blocks = 8 // 4 KB spans a single row pass
	}
	return reqs
}

// fig9Plan reproduces Fig. 9: the sled is divided into a 5×5 grid of
// subregions and the average 4 KB service time is measured for requests
// confined to each subregion — once with the default X settle time and
// once with zero settle (the two numbers per box in the paper's figure).
// The spring restoring forces make the outer subregions 10–20% slower
// than the center (§5.1).
func fig9Plan(p Params) *Plan {
	const n = 5
	settles := []float64{1, 0}
	// The geometry is pure derived data, shared read-only across jobs;
	// each job builds its own device and request slice.
	g := newMEMS(1).Geometry()

	grid := make([][][]*runner.Job, n) // [y][x][settle variant]
	var jobs []*runner.Job
	for y := 0; y < n; y++ {
		grid[y] = make([][]*runner.Job, n)
		for x := 0; x < n; x++ {
			grid[y][x] = make([]*runner.Job, len(settles))
			seed := p.Seed + int64(y*n+x)
			for vi, settle := range settles {
				j := runJob(fmt.Sprintf("fig9 x%d y%d settle=%g", x, y, settle), seed, func(ctx *sim.Context) sim.Result {
					src := workload.NewFromSlice(subregionRequests(g, n, x, y, p.ClosedRequests, seed))
					return sim.RunClosed(ctx, newMEMS(settle), src, sim.Options{})
				})
				grid[y][x][vi] = j
				jobs = append(jobs, j)
			}
		}
	}
	return &Plan{
		Jobs: jobs,
		Assemble: func() []Table {
			t := Table{
				ID:      "fig9",
				Title:   "average 4 KB service time per subregion, settle=1 / settle=0 (ms)",
				Columns: []string{"y-band \\ x-band", "x0 (edge)", "x1", "x2 (center)", "x3", "x4 (edge)"},
			}
			for y := 0; y < n; y++ {
				row := []string{fmt.Sprintf("y%d", y)}
				for x := 0; x < n; x++ {
					a := result(grid[y][x][0])
					b := result(grid[y][x][1])
					row = append(row, fmt.Sprintf("%.3f/%.3f", a.Service.Mean(), b.Service.Mean()))
				}
				t.AddRow(row...)
			}
			return []Table{t}
		},
	}
}
