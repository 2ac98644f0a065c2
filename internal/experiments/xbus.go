package experiments

import (
	"fmt"

	"memsim/internal/bus"
	"memsim/internal/core"
	"memsim/internal/mems"
	"memsim/internal/runner"
)

func init() { register("bus", busPlan) }

// busCell is one shelf size's measurement (raw and bus-shared aggregate
// bandwidth in MB/s, plus bus utilization).
type busCell struct {
	raw, shared, util float64
}

// busPlan quantifies the interconnect consequence of §2.4.11
// (extension): a MEMS-based storage device streams at 79.6 MB/s — near
// half of an entire Ultra160 SCSI bus — so packaging several sleds in a
// disk form factor (§2.1) makes the *bus*, not the media, the sequential
// bottleneck after two devices. Aggregate streaming bandwidth is
// measured for shelves of 1–8 sleds, with and without a shared bus.
func busPlan(p Params) *Plan {
	rounds := p.ClosedRequests / 40
	if rounds < 10 {
		rounds = 10
	}
	counts := []int{1, 2, 4, 8}
	jobs := make([]*runner.Job, len(counts))
	for i, n := range counts {
		jobs[i] = &runner.Job{
			Label: fmt.Sprintf("bus %d sleds", n),
			Seed:  p.Seed,
			Body: func(*runner.Job) any {
				rawBytes, rawElapsed := streamRun(n, rounds, nil)
				b := bus.New(bus.Ultra160())
				shBytes, shElapsed := streamRun(n, rounds, b)
				return busCell{
					raw:    rawBytes / (rawElapsed / 1000) / 1e6,
					shared: shBytes / (shElapsed / 1000) / 1e6,
					util:   b.BusyMs() / shElapsed,
				}
			},
		}
	}
	return &Plan{
		Jobs: jobs,
		Assemble: func() []Table {
			t := Table{
				ID:    "bus",
				Title: "aggregate streaming bandwidth, N sleds (256 KB reads, MB/s)",
				Columns: []string{"sleds", "no bus (media only)", "shared Ultra160 bus",
					"bus utilization"},
			}
			for i, n := range counts {
				c := jobs[i].Value().(busCell)
				t.AddRow(fmt.Sprintf("%d", n), f2(c.raw), f2(c.shared),
					fmt.Sprintf("%.0f%%", c.util*100))
			}
			return []Table{t}
		},
	}
}

func streamRun(n, rounds int, b *bus.Bus) (bytes, elapsed float64) {
	devs := make([]core.Device, n)
	for i := range devs {
		var d core.Device = mems.MustDevice(mems.DefaultConfig())
		if b != nil {
			d = b.Attach(d)
		}
		devs[i] = d
	}
	const blocks = 512 // 256 KB
	done := make([]float64, n)
	for round := 0; round < rounds; round++ {
		for i, d := range devs {
			lbn := int64(round * blocks)
			svc := d.Access(&core.Request{Op: core.Read, LBN: lbn, Blocks: blocks}, done[i])
			done[i] += svc
			bytes += blocks * 512
		}
	}
	for _, d := range done {
		if d > elapsed {
			elapsed = d
		}
	}
	return bytes, elapsed
}
