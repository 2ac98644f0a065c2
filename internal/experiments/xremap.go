package experiments

import (
	"fmt"
	"math/rand"

	"memsim/internal/core"
	"memsim/internal/fault"
	"memsim/internal/runner"
)

func init() { register("remap", remapPlan) }

// remapPlan quantifies §6.1.1's placement claim (extension): remapping
// a defective MEMS sector to the *same tip sector on a spare tip*
// preserves sequential access timing exactly, whereas disk-style
// slipping to spare locations breaks physical sequentiality and taxes
// every scan that crosses a remapped sector. A sequential scan runs over
// a region with a growing fraction of defective sectors under both
// policies on both devices.
func remapPlan(p Params) *Plan {
	const blocks = 512 // 256 KB pieces
	scanLen := int64(p.ClosedRequests) * blocks
	rates := []float64{0, 0.001, 0.01, 0.05}

	// Columns per rate row: disk slip-remap, MEMS slip-remap, MEMS
	// spare-tip remap. The spare-tip column relocates nothing the sled
	// can see — the spare activates at the same ⟨x, y⟩ — so its timing
	// is the defect-free scan by construction (verified by fault-remap in
	// the fault experiment); it is measured at rate 0 for every row.
	type column struct {
		name string
		scan func(rate float64) float64
	}
	cols := []column{
		{"disk-slip", func(rate float64) float64 {
			return scanWithSlips(newDisk(), scanLen, blocks, rate, p.Seed)
		}},
		{"mems-slip", func(rate float64) float64 {
			return scanWithSlips(newMEMS(1), scanLen, blocks, rate, p.Seed)
		}},
		{"mems-spare", func(float64) float64 {
			return scanWithSlips(newMEMS(1), scanLen, blocks, 0, p.Seed)
		}},
	}

	grid := make([][]*runner.Job, len(rates))
	var jobs []*runner.Job
	for ri, rate := range rates {
		grid[ri] = make([]*runner.Job, len(cols))
		for ci, col := range cols {
			j := &runner.Job{
				Label: fmt.Sprintf("remap %s rate=%g", col.name, rate),
				Seed:  p.Seed,
				Body: func(*runner.Job) any {
					return col.scan(rate)
				},
			}
			grid[ri][ci] = j
			jobs = append(jobs, j)
		}
	}
	return &Plan{
		Jobs: jobs,
		Assemble: func() []Table {
			t := Table{
				ID:    "remap",
				Title: "sequential 256 KB scan slowdown vs. defective-sector fraction",
				Columns: []string{"defect rate", "Atlas slip-remap", "MEMS slip-remap",
					"MEMS spare-tip remap"},
			}
			for ri, rate := range rates {
				row := []string{fmt.Sprintf("%.1f%%", rate*100)}
				for ci := range cols {
					row = append(row, ms(grid[ri][ci].Value().(float64)))
				}
				t.AddRow(row...)
			}
			return []Table{t}
		},
	}
}

// scanWithSlips sequentially reads [0, scanLen) in blocks-sized pieces
// after rate×scanLen defect draws, each slipping a sector of the scan to
// a spare at the far end of the device, and returns the mean piece
// service time. The draws are with replacement and a sector drawn twice
// keeps its last spare, so slightly fewer sectors than rate×scanLen are
// slipped: at 5%, about 2.4% of the draws hit an already-slipped one.
func scanWithSlips(dev core.Device, scanLen int64, blocks int, rate float64, seed int64) float64 {
	sr := fault.NewSlipRemap(dev)
	rng := rand.New(rand.NewSource(seed))
	if rate > 0 {
		defects := int64(rate * float64(scanLen))
		spareBase := dev.Capacity() - defects - 1
		for i := int64(0); i < defects; i++ {
			sr.Remap(rng.Int63n(scanLen), spareBase+i)
		}
	}
	now, sum := 0.0, 0.0
	pieces := 0
	for lbn := int64(0); lbn+int64(blocks) <= scanLen; lbn += int64(blocks) {
		svc := sr.Access(&core.Request{Op: core.Read, LBN: lbn, Blocks: blocks}, now)
		now += svc
		sum += svc
		pieces++
	}
	return sum / float64(pieces)
}
