package experiments

import (
	"math/rand"

	"memsim/internal/cache"
	"memsim/internal/core"
	"memsim/internal/runner"
)

func init() { register("cache", cachePlan) }

// cachePlan quantifies §2.4.11 (extension; no paper figure): the
// on-device speed-matching buffer matters for sequential streams
// (read-ahead turns per-request positioning into streaming) and is
// nearly worthless for random traffic, whose reuse belongs in host
// memory. Sequential 64 KB scans and random 4 KB reads run with the
// buffer enabled and disabled.
func cachePlan(p Params) *Plan {
	n := p.ClosedRequests
	if n > 2000 {
		n = 2000
	}

	type variant struct {
		label  string
		blocks int
		seq    bool
		mode   string
	}
	var variants []variant
	for _, seq := range []bool{true, false} {
		label, blocks := "sequential 64 KB scan", 128
		if !seq {
			label, blocks = "random 4 KB reads", 8
		}
		for _, mode := range []string{"off", "fixed", "adaptive"} {
			variants = append(variants, variant{label, blocks, seq, mode})
		}
	}

	jobs := make([]*runner.Job, len(variants))
	for i, v := range variants {
		jobs[i] = &runner.Job{
			Label: "cache " + v.label + " " + v.mode,
			Seed:  p.Seed,
			Body: func(job *runner.Job) any {
				dev := newMEMS(1)
				var d core.Device = dev
				var c *cache.Cache
				if v.mode != "off" {
					cfg := cache.DefaultConfig()
					cfg.AdaptivePrefetch = v.mode == "adaptive"
					c = cache.New(dev, cfg)
					d = c
				}
				rng := rand.New(rand.NewSource(p.Seed))
				reqs := core.NewRequests(n)
				for i, r := range reqs {
					lbn := int64(i * v.blocks)
					if !v.seq {
						lbn = rng.Int63n(d.Capacity() - int64(v.blocks))
					}
					r.Op, r.LBN, r.Blocks = core.Read, lbn, v.blocks
				}
				mean := closedMean(job.SimContext(), d, reqs)
				bw := float64(v.blocks) * 512 / (mean / 1000) / 1e6
				hit := "—"
				if c != nil {
					hit = f2(c.HitRate())
				}
				return []string{v.label, v.mode, ms(mean), hit, f2(bw)}
			},
		}
	}
	return &Plan{
		Jobs: jobs,
		Assemble: func() []Table {
			t := Table{
				ID:      "cache",
				Title:   "speed-matching buffer (4 MB, track read-ahead) on the MEMS device",
				Columns: []string{"workload", "buffer", "mean service(ms)", "hit rate", "MB/s"},
			}
			for _, j := range jobs {
				t.AddRow(j.Value().([]string)...)
			}
			return []Table{t}
		},
	}
}
