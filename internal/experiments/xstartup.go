package experiments

import (
	"fmt"
	"math/rand"

	"memsim/internal/core"
	"memsim/internal/power"
	"memsim/internal/runner"
)

func init() { register("startup", startupPlan) }

// startupPlan quantifies §6.3 (extension): MEMS-based storage initializes
// in ≈0.5 ms with no inrush surge, so a shelf of devices can start
// concurrently; disks take seconds to spin up and are serialized to avoid
// power spikes. The second table measures the synchronous-write penalty
// the same section discusses: file systems and databases that must write
// metadata synchronously pay the device's small-write latency on the
// critical path.
func startupPlan(p Params) *Plan {
	trials := p.Trials
	if trials > 1000 {
		trials = 1000
	}
	mkDevs := []func() core.Device{memsFactory(1), diskFactory}
	syncJobs := make([]*runner.Job, len(mkDevs))
	for i, mk := range mkDevs {
		syncJobs[i] = &runner.Job{
			Label: fmt.Sprintf("startup sync device %d", i),
			Seed:  p.Seed,
			Body: func(*runner.Job) any {
				dev := mk()
				rng := rand.New(rand.NewSource(p.Seed))
				now, sum, max := 0.0, 0.0, 0.0
				for i := 0; i < trials; i++ {
					lbn := rng.Int63n(dev.Capacity() - 2)
					svc := dev.Access(&core.Request{Op: core.Write, LBN: lbn, Blocks: 2}, now)
					now += svc
					sum += svc
					if svc > max {
						max = svc
					}
				}
				return []string{dev.Name(), ms(sum / float64(trials)), ms(max)}
			},
		}
	}
	return &Plan{
		Jobs: syncJobs,
		Assemble: func() []Table {
			// The shelf table is pure arithmetic over the power models.
			t := Table{
				ID:      "startup",
				Title:   "time until a shelf of devices is ready (ms)",
				Columns: []string{"devices", "MEMS (concurrent)", "mobile disk (serialized)", "server disk (serialized)"},
			}
			memsR := power.MEMSModel().RestartMs
			mobR := power.MobileDiskModel().RestartMs
			srvR := power.ServerDiskModel().RestartMs
			for _, n := range []int{1, 4, 16} {
				// No surge → all MEMS devices start together; spike
				// avoidance → disks spin up one at a time (§6.3).
				t.AddRow(fmt.Sprintf("%d", n),
					ms(memsR),
					ms(float64(n)*mobR),
					ms(float64(n)*srvR))
			}

			s := Table{
				ID:      "startup-sync",
				Title:   "synchronous small-write latency (1 KB metadata updates, ms)",
				Columns: []string{"device", "mean", "max"},
			}
			for _, j := range syncJobs {
				s.AddRow(j.Value().([]string)...)
			}
			return []Table{t, s}
		},
	}
}
