package experiments

import (
	"fmt"
	"math/rand"

	"memsim/internal/core"
	"memsim/internal/fault"
	"memsim/internal/mems"
	"memsim/internal/runner"
)

func init() { register("fault", faultPlan) }

// faultConfigs are the redundancy configurations compared throughout the
// fault experiment, from disk-like (any head failure is fatal) to heavily
// redundant.
var faultConfigs = []struct {
	name string
	cfg  fault.Config
}{
	{"disk-like (no ECC, no spares)", fault.Config{Tips: 6400, DataTips: 64, ECCTips: 0, SpareTips: 0}},
	{"stripe+1 ECC tip", fault.Config{Tips: 6400, DataTips: 64, ECCTips: 1, SpareTips: 30}},
	{"stripe+2 ECC tips", fault.Config{Tips: 6400, DataTips: 64, ECCTips: 2, SpareTips: 130}},
	{"stripe+2 ECC, 394 spares", fault.Config{Tips: 6400, DataTips: 64, ECCTips: 2, SpareTips: 394}},
}

// faultPlan quantifies §6.1 (an extension: the paper argues this
// qualitatively, without a figure). Three tables:
//
//  1. Data-loss probability vs. number of failed tips, for a disk-like
//     configuration (no redundancy — the first head failure is fatal)
//     through increasingly redundant MEMS configurations (striping + ECC
//     tips + spare-tip remapping).
//  2. The capacity cost of each configuration (the §6.1.1 capacity ↔
//     fault-tolerance tradeoff).
//  3. Spare-tip remap timing neutrality: because a remapped sector lives
//     at the *same tip sector* on a spare tip, only the active-tip set
//     changes — sled motion, and therefore service time, is identical.
func faultPlan(p Params) *Plan {
	// The Monte-Carlo loss table threads one rng through every cell, so
	// it is a single job; remap neutrality is an independent measurement.
	lossJob := &runner.Job{
		Label: "fault loss Monte Carlo",
		Seed:  p.Seed,
		Body:  func(*runner.Job) any { return lossTable(p) },
	}
	remapJob := &runner.Job{
		Label: "fault remap neutrality",
		Seed:  p.Seed,
		Body:  func(*runner.Job) any { return remapNeutrality() },
	}
	return &Plan{
		Jobs: []*runner.Job{lossJob, remapJob},
		Assemble: func() []Table {
			return []Table{
				lossJob.Value().(Table),
				capacityTable(),
				remapJob.Value().(Table),
				seekErrorTable(),
			}
		},
	}
}

// lossTable runs the Monte-Carlo data-loss estimate for every
// (failure count, configuration) cell, sharing one rng across the grid.
func lossTable(p Params) Table {
	failures := []int{1, 5, 20, 50, 100, 200, 400, 800}
	loss := Table{
		ID:      "fault-loss",
		Title:   "P(data loss) vs. uniformly-random failed tips (Monte Carlo)",
		Columns: []string{"failed tips"},
	}
	for _, c := range faultConfigs {
		loss.Columns = append(loss.Columns, c.name)
	}
	rng := rand.New(rand.NewSource(p.Seed))
	for _, k := range failures {
		row := []string{fmt.Sprintf("%d", k)}
		for _, c := range faultConfigs {
			pr, err := fault.LossProbability(c.cfg, k, p.Trials, rng)
			if err != nil {
				panic(err) // configurations above are known-good
			}
			row = append(row, fmt.Sprintf("%.3f", pr))
		}
		loss.AddRow(row...)
	}
	return loss
}

// capacityTable is pure arithmetic over the configurations.
func capacityTable() Table {
	cap := Table{
		ID:      "fault-capacity",
		Title:   "capacity cost of redundancy (fraction of tips not storing data)",
		Columns: []string{"configuration", "ECC overhead", "spare overhead", "total"},
	}
	for _, c := range faultConfigs {
		ecc := float64(c.cfg.ECCTips) / float64(c.cfg.StripeWidth())
		usable := float64(c.cfg.Tips-c.cfg.SpareTips) / float64(c.cfg.Tips)
		spare := 1 - usable
		cap.AddRow(c.name,
			fmt.Sprintf("%.1f%%", ecc*100),
			fmt.Sprintf("%.1f%%", spare*100),
			fmt.Sprintf("%.1f%%", (1-usable*(1-ecc))*100))
	}
	return cap
}

// seekErrorTable is pure arithmetic over the §6.1.3 penalty formulas.
func seekErrorTable() Table {
	pen := Table{
		ID:      "fault-seekerr",
		Title:   "seek-error penalties (§6.1.3, ms)",
		Columns: []string{"device", "expected", "worst case"},
	}
	// The arguments below are in range by construction, so an error here
	// is a bug in this table, not a user mistake.
	must := func(v float64, err error) float64 {
		if err != nil {
			panic(err)
		}
		return v
	}
	pen.AddRow("Atlas 10K (re-seek + rotation)",
		ms(must(fault.DiskSeekErrorPenalty(1.5, 5.985, 0.5))),
		ms(must(fault.DiskSeekErrorPenalty(2.0, 5.985, 0.999))))
	pen.AddRow("MEMS (turnarounds + short seek)",
		ms(must(fault.MEMSSeekErrorPenalty(0.07, 0.2, 1))),
		ms(must(fault.MEMSSeekErrorPenalty(0.28, 0.45, 2))))
	return pen
}

// remapNeutrality measures service times for the same sled coordinates on
// every track of a cylinder: tracks differ only in which tips are active,
// exactly like a spare-tip remap, so the times must be identical.
func remapNeutrality() Table {
	d := mems.MustDevice(mems.DefaultConfig())
	g := d.Geometry()
	t := Table{
		ID:      "fault-remap",
		Title:   "spare-tip remap timing neutrality: same sled position, different tip set",
		Columns: []string{"track (tip group)", "4 KB service from reset (ms)"},
	}
	for track := 0; track < g.TracksPerCylinder; track++ {
		d.Reset()
		lbn := g.LBN(g.Cylinders/4, track, 5, 0)
		svc := d.Access(&core.Request{Op: core.Read, LBN: lbn, Blocks: 8}, 0)
		t.AddRow(fmt.Sprintf("%d", track), ms(svc))
	}
	return t
}
