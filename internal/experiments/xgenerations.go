package experiments

import (
	"fmt"
	"math/rand"

	"memsim/internal/core"
	"memsim/internal/mems"
	"memsim/internal/runner"
)

func init() { register("generations", generationsPlan) }

// generationsPlan declares a sensitivity study of the device model across
// successive MEMS generations (extension; the configurations are
// extrapolations documented in internal/mems/generations.go, not
// published parameter sets). It reports how density, per-tip rate and
// actuator improvements move the headline figures of merit.
func generationsPlan(p Params) *Plan {
	trials := p.Trials
	if trials > 2000 {
		trials = 2000
	}
	gens := []struct {
		name string
		cfg  mems.Config
	}{
		{"G1 (Table 1)", mems.ConfigGen1()},
		{"G2", mems.ConfigGen2()},
		{"G3", mems.ConfigGen3()},
	}
	jobs := make([]*runner.Job, len(gens))
	for i, gen := range gens {
		jobs[i] = &runner.Job{
			Label: "generations " + gen.name,
			Seed:  p.Seed,
			Body: func(job *runner.Job) any {
				d, err := mems.NewDevice(gen.cfg)
				if err != nil {
					panic(err) // generation configs are maintained with the model
				}
				g := d.Geometry()
				rng := rand.New(rand.NewSource(p.Seed))
				reqs := core.NewRequests(trials)
				for _, r := range reqs {
					r.Op, r.LBN, r.Blocks = core.Read, rng.Int63n(g.TotalSectors-8), 8
				}
				return []string{gen.name,
					fmt.Sprintf("%.2f", float64(g.CapacityBytes())/1e9),
					fmt.Sprintf("%.1f", g.StreamBandwidth()/1e6),
					ms(closedMean(job.SimContext(), d, reqs)),
					ms(d.SeekX(0, g.Cylinders-1))}
			},
		}
	}
	return &Plan{
		Jobs: jobs,
		Assemble: func() []Table {
			t := Table{
				ID:    "generations",
				Title: "device generations (G2/G3 are extrapolations; see generations.go)",
				Columns: []string{"generation", "capacity(GB)", "stream(MB/s)",
					"avg 4 KB access(ms)", "full-stroke seek(ms)"},
			}
			for _, j := range jobs {
				t.AddRow(j.Value().([]string)...)
			}
			return []Table{t}
		},
	}
}
