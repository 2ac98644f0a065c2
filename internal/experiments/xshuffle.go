package experiments

import (
	"fmt"
	"math/rand"

	"memsim/internal/core"
	"memsim/internal/layout"
	"memsim/internal/runner"
	"memsim/internal/sim"
)

func init() { register("shuffle", shufflePlan) }

// adaptiveCell carries the adaptive layout's two cost components.
type adaptiveCell struct {
	svc, mig float64
}

// shufflePlan quantifies the organ-pipe maintenance cost that §5.3
// charges against it (extension): the layout "requires some state to be
// kept indicating each block's popularity" and "blocks must be
// periodically shuffled". The workload splits its traffic between two
// hot cylinder bands at arbitrary positions (plus background noise);
// centering both bands shortens the cross-hotspot seeks, but the
// shuffler must move whole cylinders of data to do it. The study reports
// the service-time benefit against the migration cost, charged at
// streaming bandwidth — and the drift rate at which bookkeeping erases
// the benefit, which is why the paper prefers the static bipartite
// layouts.
func shufflePlan(p Params) *Plan {
	n := p.ClosedRequests
	fracs := []int{1, 4, 16} // drift 1×, 4×, 16× per run
	staticJobs := make([]*runner.Job, len(fracs))
	adaptiveJobs := make([]*runner.Job, len(fracs))
	var jobs []*runner.Job
	for i, frac := range fracs {
		drift := n / frac
		staticJobs[i] = &runner.Job{
			Label: fmt.Sprintf("shuffle static drift=%d×", frac),
			Seed:  p.Seed,
			Body: func(job *runner.Job) any {
				return shuffleStatic(job.SimContext(), p, n, drift)
			},
		}
		adaptiveJobs[i] = &runner.Job{
			Label: fmt.Sprintf("shuffle adaptive drift=%d×", frac),
			Seed:  p.Seed,
			Body: func(job *runner.Job) any {
				return shuffleAdaptive(job.SimContext(), p, n, drift)
			},
		}
		jobs = append(jobs, staticJobs[i], adaptiveJobs[i])
	}
	return &Plan{
		Jobs: jobs,
		Assemble: func() []Table {
			t := Table{
				ID:    "shuffle",
				Title: "adaptive organ pipe under two drifting hotspots (8-sector requests)",
				Columns: []string{"hotspots move", "layout", "service(ms)",
					"migration(ms/req)", "effective(ms)"},
			}
			for i, frac := range fracs {
				label := fmt.Sprintf("%d×/run", frac)
				svc := staticJobs[i].Value().(float64)
				t.AddRow(label, "simple (static)", ms(svc), ms(0), ms(svc))
				a := adaptiveJobs[i].Value().(adaptiveCell)
				t.AddRow(label, "adaptive organ pipe", ms(a.svc), ms(a.mig), ms(a.svc+a.mig))
			}
			return []Table{t}
		},
	}
}

// shuffleWorkload drives 8-sector reads: 90% split between two hot
// cylinder-extents bands, 10% uniform. The band positions re-randomize
// every drift requests.
func shuffleWorkload(extents int64, extentBlocks int64, count, drift int, seed int64,
	next func(lbn int64)) {
	rng := rand.New(rand.NewSource(seed))
	const band = 8 // extents per hotspot
	pick := func() int64 { return rng.Int63n(extents - band) }
	hotA, hotB := pick(), pick()
	for i := 0; i < count; i++ {
		if drift > 0 && i > 0 && i%drift == 0 {
			hotA, hotB = pick(), pick()
		}
		var e int64
		switch r := rng.Float64(); {
		case r < 0.45:
			e = hotA + rng.Int63n(band)
		case r < 0.90:
			e = hotB + rng.Int63n(band)
		default:
			e = rng.Int63n(extents)
		}
		off := rng.Int63n(extentBlocks - 8)
		next(e*extentBlocks + off)
	}
}

// shuffleStatic measures the identity layout on the closed-loop engine.
func shuffleStatic(ctx *sim.Context, p Params, count, drift int) float64 {
	d := newMEMS(1)
	ext := int64(d.Geometry().SectorsPerCylinder)
	reqs, i := core.NewRequests(count), 0
	shuffleWorkload(d.Capacity()/ext, ext, count, drift, p.Seed, func(lbn int64) {
		r := reqs[i]
		r.Op, r.LBN, r.Blocks = core.Read, lbn, 8
		i++
	})
	return closedMean(ctx, d, reqs)
}

// shuffleAdaptive measures the adaptive organ pipe with incremental
// reshuffling (up to 4 extent swaps every 250 requests) on the
// closed-loop engine, charging migration at streaming bandwidth.
func shuffleAdaptive(ctx *sim.Context, p Params, count, drift int) adaptiveCell {
	d := newMEMS(1)
	g := d.Geometry()
	ext := int64(g.SectorsPerCylinder)
	aop, err := layout.NewAdaptiveOrganPipe(d.Capacity(), ext)
	if err != nil {
		panic(err) // capacity is cylinders × SectorsPerCylinder by construction
	}
	src := &reshuffleSource{aop: aop, perBlockMs: 2 * float64(g.SectorSize) / g.StreamBandwidth() * 1e3}
	shuffleWorkload(d.Capacity()/ext, ext, count, drift, p.Seed, func(lbn int64) {
		src.lbns = append(src.lbns, lbn)
	})
	res := sim.RunClosed(ctx, core.NewManagedDevice(d, aop), src, sim.Options{})
	return adaptiveCell{res.Busy / float64(res.Requests), src.mig / float64(res.Requests)}
}

// reshuffleSource feeds shuffleAdaptive's reads to the closed loop,
// recording each one's popularity. Every 250 requests it reshuffles and
// charges the migration as think time before the next read, and once
// more before it reports the end of a stream whose length is a multiple
// of 250.
type reshuffleSource struct {
	aop        *layout.AdaptiveOrganPipe
	lbns       []int64
	i          int
	perBlockMs float64
	think, mig float64
	slab       core.Slab
}

// Next implements workload.Source.
func (s *reshuffleSource) Next() *core.Request {
	s.think = 0
	if s.i > 0 && s.i%250 == 0 {
		s.think = float64(s.aop.ReshuffleN(4)) * s.perBlockMs
		s.mig += s.think
	}
	if s.i == len(s.lbns) {
		return nil
	}
	r := s.slab.New(len(s.lbns) - s.i)
	r.Op, r.LBN, r.Blocks = core.Read, s.lbns[s.i], 8
	s.i++
	s.aop.Record(r.LBN, 8)
	return r
}

// ThinkMs implements workload.Thinker: the migration charged ahead of
// the read Next just returned.
func (s *reshuffleSource) ThinkMs() float64 { return s.think }

// Recycle implements workload.Recycler.
func (s *reshuffleSource) Recycle(r *core.Request) { s.slab.Put(r) }
