package experiments

import (
	"fmt"
	"math/rand"

	"memsim/internal/array"
	"memsim/internal/core"
	"memsim/internal/disk"
	"memsim/internal/mems"
	"memsim/internal/runner"
	"memsim/internal/sim"
	"memsim/internal/workload"
)

func init() { register("raid", raidPlan) }

// raidPlan quantifies the §6.2 claim at array level (extension; no paper
// figure): MEMS-based storage's near-zero read-modify-write
// repositioning "obviates the need for the many optimizations" built to
// hide RAID-5's small-write penalty on disks. Four-member rotated-parity
// volumes of each device type service 4 KB writes, healthy and degraded
// reads, and a full member rebuild scan.
func raidPlan(p Params) *Plan {
	trials := p.Trials / 4
	if trials < 50 {
		trials = 50
	}
	random := func(op core.Op, failed int) func(*runner.Job, []core.Device) any {
		return func(_ *runner.Job, devs []core.Device) any {
			return raidRandom(raidVolume(devs, failed), devs, op, trials, rand.New(rand.NewSource(p.Seed)))
		}
	}

	// One job per (metric, device) measurement — every job builds its own
	// members and volume, so all eight run independently.
	type metric struct {
		name    string
		measure func(j *runner.Job, devs []core.Device) any
	}
	metrics := []metric{
		{"4 KB RAID-5 write (read-modify-write)", random(core.Write, -1)},
		{"4 KB read, healthy", random(core.Read, -1)},
		{"4 KB read, degraded (reconstruct)", random(core.Read, 0)},
		{"member rebuild (full scan)", func(j *runner.Job, devs []core.Device) any {
			return raidRebuildScan(j.SimContext(), raidVolume(devs, 1), devs) / 1000 // seconds
		}},
	}
	devices := []struct {
		name string
		mk   func() core.Device
	}{
		{"MEMS", func() core.Device { return mems.MustDevice(mems.DefaultConfig()) }},
		{"disk", func() core.Device { return disk.MustDevice(disk.Atlas10K()) }},
	}

	grid := make([][]*runner.Job, len(metrics))
	var jobs []*runner.Job
	for mi, m := range metrics {
		grid[mi] = make([]*runner.Job, len(devices))
		for di, dev := range devices {
			j := &runner.Job{
				Label: fmt.Sprintf("raid %s %s", dev.name, m.name),
				Seed:  p.Seed,
				Body: func(j *runner.Job) any {
					devs := make([]core.Device, 4)
					for i := range devs {
						devs[i] = dev.mk()
					}
					return m.measure(j, devs)
				},
			}
			grid[mi][di] = j
			jobs = append(jobs, j)
		}
	}
	return &Plan{
		Jobs: jobs,
		Assemble: func() []Table {
			t := Table{
				ID:      "raid",
				Title:   "4-member RAID-5: small-write and degraded-mode costs",
				Columns: []string{"metric", "MEMS array", "Atlas 10K array", "disk/MEMS"},
			}
			for mi, m := range metrics {
				mv := grid[mi][0].Value().(float64)
				dv := grid[mi][1].Value().(float64)
				if m.name == "member rebuild (full scan)" {
					t.AddRow(m.name, fmt.Sprintf("%.1f s", mv), fmt.Sprintf("%.1f s", dv),
						f2(dv/mv)+"×")
				} else {
					t.AddRow(m.name, ms(mv), ms(dv), f2(dv/mv)+"×")
				}
			}
			return []Table{t}
		},
	}
}

// raidVolume builds the rotated-parity volume over devs with an
// 8-sector (4 KB) stripe unit, each member's capacity rounded down to a
// whole stripe unit, and member slot failed failed (none when negative).
func raidVolume(devs []core.Device, failed int) *array.Volume {
	v, err := array.NewVolume(array.VolumeConfig{
		Level:      array.VolParity,
		Members:    len(devs),
		StripeUnit: 8,
		PerMember:  devs[0].Capacity() / 8 * 8,
	})
	if err == nil && failed >= 0 {
		err = v.Fail(failed)
	}
	if err != nil {
		panic(err) // construction parameters are fixed above
	}
	return v
}

// raidRandom returns the mean time of trials back-to-back 4 KB requests
// at stripe-aligned random LBNs.
func raidRandom(v *array.Volume, devs []core.Device, op core.Op, trials int, rng *rand.Rand) float64 {
	now, sum := 0.0, 0.0
	var pl array.Plan
	for i := 0; i < trials; i++ {
		lbn := raidDraw(rng, devs[0].Capacity(), v.Capacity())
		// ok is always true here: one failed member loses no data.
		if op == core.Write {
			v.PlanWriteInto(&pl, lbn, 8)
		} else {
			v.PlanReadInto(&pl, lbn, 8)
		}
		svc := raidTime(v, devs, pl, now)
		sum += svc
		now += svc
	}
	return sum / float64(trials)
}

// raidDraw draws a stripe-aligned 4 KB LBN from the range three whole
// members would span, redrawing any request that would run past the
// volume's capacity (the stripe-unit rounding trims each member's tail).
func raidDraw(rng *rand.Rand, memberCap, capacity int64) int64 {
	for {
		if lbn := rng.Int63n(3*memberCap-8) / 8 * 8; lbn+8 <= capacity {
			return lbn
		}
	}
}

// raidTime services one volume request on idle members starting at now:
// every operation of a phase issues at the phase start, and the next
// phase begins when the slowest finishes. It returns the elapsed time.
func raidTime(v *array.Volume, devs []core.Device, pl array.Plan, now float64) float64 {
	t := now
	for _, phase := range pl.Phases {
		slowest := 0.0
		for _, op := range phase {
			r := core.Request{Op: op.Op, LBN: op.LBN, Blocks: op.Blocks}
			if svc := devs[v.DeviceOf(op.Slot)].Access(&r, t); svc > slowest {
				slowest = svc
			}
		}
		t += slowest
	}
	return t - now
}

// raidRebuildScan returns the time to rebuild the failed member: every
// survivor is read in full, back to back in sim.DefaultRebuildChunk
// reads, while the spare is written, so the slowest survivor's scan
// bounds it.
func raidRebuildScan(ctx *sim.Context, v *array.Volume, devs []core.Device) float64 {
	per := v.Config().PerMember
	worst := 0.0
	for s := 0; s < v.Config().Members; s++ {
		if s == v.Failed() {
			continue
		}
		scan := core.NewRequests(int((per + sim.DefaultRebuildChunk - 1) / sim.DefaultRebuildChunk))
		for i, r := range scan {
			lbn := int64(i) * sim.DefaultRebuildChunk
			r.Op, r.LBN, r.Blocks = core.Read, lbn, int(min(sim.DefaultRebuildChunk, per-lbn))
		}
		if res := sim.RunClosed(ctx, devs[v.DeviceOf(s)], workload.NewFromSlice(scan), sim.Options{}); res.Elapsed > worst {
			worst = res.Elapsed
		}
	}
	return worst
}
