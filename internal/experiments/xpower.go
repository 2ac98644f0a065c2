package experiments

import (
	"fmt"
	"math"

	"memsim/internal/core"
	"memsim/internal/power"
	"memsim/internal/runner"
	"memsim/internal/sched"
	"memsim/internal/sim"
	"memsim/internal/trace"
	"memsim/internal/workload"
)

func init() { register("power", powerPlan) }

// powerPlan quantifies §7 (an extension: the paper argues it without a
// figure). A bursty Cello-like workload runs over power-managed devices:
//
//   - the MEMS device with the paper's single idle mode entered the
//     moment the queue drains (restart 0.5 ms — imperceptible), and with
//     power management disabled, for reference;
//   - a mobile-class disk under idle-timeout spin-down policies (the
//     paper's "constant trade-off between reducing power and increasing
//     access time"), whose multi-second spin-up makes aggressive
//     timeouts expensive in response time;
//   - a server-class disk (25 s spin-up, §6.3) for which standby is
//     effectively unusable.
func powerPlan(p Params) *Plan {
	type variant struct {
		device  string
		model   power.Model
		policy  power.Policy
		polName string
	}
	inf := math.Inf(1)
	variants := []variant{
		{"MEMS", power.MEMSModel(), power.Immediate(), "immediate idle"},
		{"MEMS", power.MEMSModel(), power.AlwaysOn(), "always on"},
		{"mobile disk", power.MobileDiskModel(), power.Immediate(), "immediate spin-down"},
		{"mobile disk", power.MobileDiskModel(), power.Policy{TimeoutMs: 1000}, "1 s timeout"},
		{"mobile disk", power.MobileDiskModel(), power.Policy{TimeoutMs: 10000}, "10 s timeout"},
		{"mobile disk", power.MobileDiskModel(), power.Policy{TimeoutMs: inf}, "always on"},
		{"server disk", power.ServerDiskModel(), power.Policy{TimeoutMs: 10000}, "10 s timeout"},
		{"server disk", power.ServerDiskModel(), power.Policy{TimeoutMs: inf}, "always on"},
	}

	jobs := make([]*runner.Job, len(variants))
	for i, v := range variants {
		jobs[i] = &runner.Job{
			Label: fmt.Sprintf("power %s %s", v.device, v.polName),
			Seed:  p.Seed,
			Body: func(job *runner.Job) any {
				var inner core.Device
				if v.device == "MEMS" {
					inner = newMEMS(1)
				} else {
					inner = newDisk()
				}
				tr := trace.GenerateCello(trace.DefaultCello(inner.Capacity(), p.Requests))
				m := power.NewManaged(inner, v.model, v.policy)
				res := sim.Run(job.SimContext(), m, sched.NewFCFS(), workload.NewFromSlice(tr.Requests()),
					sim.Options{})
				m.FinishAt(res.Elapsed)
				rep := m.Report()
				return []string{v.device, v.polName,
					fmt.Sprintf("%.1f", rep.TotalJ()),
					fmt.Sprintf("%.3f", rep.MeanPowerW()),
					fmt.Sprintf("%d", rep.Restarts),
					ms(rep.MeanPenaltyMs()),
					ms(res.Response.Mean())}
			},
		}
	}
	return &Plan{
		Jobs: jobs,
		Assemble: func() []Table {
			t := Table{
				ID:    "power",
				Title: "energy and latency under idle-timeout policies (Cello-like workload)",
				Columns: []string{"device", "policy", "energy(J)", "mean power(W)",
					"restarts", "mean penalty(ms)", "mean response(ms)"},
			}
			for _, j := range jobs {
				t.AddRow(j.Value().([]string)...)
			}
			return []Table{t, compressionTable()}
		},
	}
}

// compressionTable evaluates §7's closing proposal: with power a linear
// function of bits accessed, the device's embedded logic could compress
// data to reduce active-tip energy — worthwhile whenever the
// computational cost per bit is below the media's per-bit energy times
// (1 − 1/ratio).
func compressionTable() Table {
	g := newMEMS(1).Geometry()
	perBit := power.PerBitEnergy(power.MEMSModel(), g.StreamBandwidth()*8)
	t := Table{
		ID:      "power-compress",
		Title:   fmt.Sprintf("on-device compression tradeoff (media energy %.2g nJ/bit)", perBit*1e9),
		Columns: []string{"compression ratio", "cpu cost (nJ/bit)", "effective (nJ/bit)", "worthwhile"},
	}
	for _, c := range []struct{ ratio, cpu float64 }{
		{1.5, 0.1e-9}, {2, 0.1e-9}, {4, 0.1e-9},
		{2, 0.5e-9}, {2, 2e-9},
	} {
		eff, ok := power.CompressionTradeoff(perBit, c.ratio, c.cpu)
		t.AddRow(f2(c.ratio), fmt.Sprintf("%.2g", c.cpu*1e9),
			fmt.Sprintf("%.2g", eff*1e9), fmt.Sprintf("%v", ok))
	}
	return t
}
