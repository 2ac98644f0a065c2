package experiments

import (
	"fmt"
	"math/rand"
	"sort"

	"memsim/internal/core"
	"memsim/internal/fault"
	"memsim/internal/mems"
	"memsim/internal/runner"
	"memsim/internal/sim"
	"memsim/internal/workload"
)

func init() { register("faultinject", faultInjectPlan) }

// transientRates is the per-attempt positioning-error probability sweep
// for the in-simulation injection experiment (§6.1.3). Real devices sit
// near the low end; the tail stresses the retry/requeue envelope.
var transientRates = []float64{0.001, 0.01, 0.05, 0.15}

// tipFailureCounts sweeps scheduled whole-tip failures against the
// default redundancy configuration (130 spares): the first rows are
// fully absorbed by spares, the last overwhelms the pool and forces
// degraded-mode (ECC-reconstruction) service.
var tipFailureCounts = []int{8, 64, 256}

// faultInjectPlan runs the in-simulation fault-injection experiment: the
// transient-error-rate sweep comparing MEMS and disk recovery cost, and
// the MEMS tip-failure sweep showing spare consumption and degraded-mode
// reads evolving mid-run.
func faultInjectPlan(p Params) *Plan {
	rates := transientRates
	if p.FaultRate > 0 {
		rates = append(append([]float64(nil), rates...), p.FaultRate)
		sort.Float64s(rates)
	}
	base := p.faultSeed()

	// ── Transient-rate sweep: MEMS vs disk under SPTF ────────────────
	// The disk runs at a tenth of the MEMS arrival rate (it saturates
	// around 300 req/s; the MEMS device is comfortable at 1000).
	type cell struct {
		job *runner.Job
		inj *fault.Injector
	}
	newCell := func(label string, rate float64, dev func() core.Device,
		arrival float64, cfg fault.InjectorConfig) cell {
		cfg.TransientRate = rate
		cfg.Seed = runner.DeriveSeed(base, label)
		inj, err := fault.NewInjector(cfg)
		if err != nil {
			panic(err) // static configurations below are known-good
		}
		return cell{
			inj: inj,
			job: runJob(label, p.Seed, func(ctx *sim.Context) sim.Result {
				d := dev()
				src := workload.DefaultRandom(arrival, d.SectorSize(), d.Capacity(), p.Requests, p.Seed)
				return sim.Run(ctx, d, newSched("SPTF"), src, sim.Options{Warmup: p.Warmup, Injector: inj})
			}),
		}
	}

	memsCells := make([]cell, len(rates))
	diskCells := make([]cell, len(rates))
	var jobs []*runner.Job
	for i, rate := range rates {
		memsCells[i] = newCell(fmt.Sprintf("faultinject mems rate=%g", rate),
			rate, memsFactory(1), 1000, fault.DefaultInjectorConfig())
		diskCells[i] = newCell(fmt.Sprintf("faultinject disk rate=%g", rate),
			rate, diskFactory, 100, fault.DefaultInjectorConfig())
		jobs = append(jobs, memsCells[i].job, diskCells[i].job)
	}

	// ── Tip-failure sweep: MEMS degraded-mode service ────────────────
	// Failures are scheduled uniformly over the first half of the
	// expected run (≈1 ms per request at 1000 req/s), striking uniformly
	// random tips — spares included, exercising the in-use-spare cascade.
	arrCfg := fault.DefaultConfig()
	geo := mems.MustDevice(mems.DefaultConfig()).Geometry()
	failCells := make([]cell, len(tipFailureCounts))
	for i, k := range tipFailureCounts {
		label := fmt.Sprintf("faultinject mems tipfail k=%d", k)
		rng := rand.New(rand.NewSource(runner.DeriveSeed(base, label)))
		events := make([]fault.TipEvent, k)
		span := float64(p.Requests) / 2
		for e := range events {
			events[e] = fault.TipEvent{
				AtMs: span * float64(e) / float64(k),
				Tip:  rng.Intn(arrCfg.Tips),
			}
		}
		cfg := fault.DefaultInjectorConfig()
		cfg.Array = &arrCfg
		cfg.Events = events
		cfg.SectorTips = geo.TipsForSector
		failCells[i] = newCell(label, 0, memsFactory(1), 1000, cfg)
		jobs = append(jobs, failCells[i].job)
	}

	return &Plan{
		Jobs: jobs,
		Assemble: func() []Table {
			a := Table{
				ID:    "faultinject-a",
				Title: "transient seek errors: response and recovery cost, MEMS (1000 req/s) vs disk (100 req/s), SPTF",
				Columns: []string{"error rate",
					"MEMS resp (ms)", "MEMS retries", "MEMS failed", "MEMS ms/error",
					"disk resp (ms)", "disk retries", "disk failed", "disk ms/error"},
			}
			perError := func(r sim.Result) string {
				if r.Retries == 0 {
					return "-"
				}
				return ms(r.RecoveryMs / float64(r.Retries))
			}
			for i, rate := range rates {
				mr := result(memsCells[i].job)
				dr := result(diskCells[i].job)
				a.AddRow(fmt.Sprintf("%g", rate),
					ms(mr.Response.Mean()), fmt.Sprintf("%d", mr.Retries),
					fmt.Sprintf("%d", mr.FailedRequests), perError(mr),
					ms(dr.Response.Mean()), fmt.Sprintf("%d", dr.Retries),
					fmt.Sprintf("%d", dr.FailedRequests), perError(dr))
			}

			b := Table{
				ID:    "faultinject-b",
				Title: fmt.Sprintf("scheduled tip failures mid-run, MEMS (%d spares, %d ECC tips per stripe): spares absorb until the pool drains, then reads degrade", arrCfg.SpareTips, arrCfg.ECCTips),
				Columns: []string{"tip failures", "spares used", "degraded stripes",
					"degraded reads", "ECC recovery (ms)", "data loss"},
			}
			for i, k := range tipFailureCounts {
				res := result(failCells[i].job)
				arr := failCells[i].inj.Array()
				b.AddRow(fmt.Sprintf("%d", k),
					fmt.Sprintf("%d", arrCfg.SpareTips-arr.SparesLeft()),
					fmt.Sprintf("%d", arr.DegradedStripes()),
					fmt.Sprintf("%d", res.DegradedReads),
					ms(res.RecoveryMs),
					fmt.Sprintf("%v", arr.DataLoss()))
			}
			return []Table{a, b}
		},
	}
}
