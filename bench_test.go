// bench_test.go holds one testing.B benchmark per paper artifact (every
// table and figure in the evaluation, DESIGN.md §2) plus micro-benchmarks
// of the performance-critical model paths. The artifact benchmarks run
// the experiment harness at Quick parameters; `cmd/memsbench` regenerates
// the full-size numbers.
package memsim

import (
	"fmt"
	"testing"

	"memsim/internal/core"
	"memsim/internal/experiments"
)

// benchArtifact runs one registered experiment per iteration.
func benchArtifact(b *testing.B, id string) {
	b.Helper()
	p := experiments.Quick()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tables, err := experiments.Run(id, p)
		if err != nil {
			b.Fatal(err)
		}
		if len(tables) == 0 {
			b.Fatalf("experiment %s produced no tables", id)
		}
	}
}

// BenchmarkTable1DeviceModel regenerates Table 1 (device parameters and
// derived geometry).
func BenchmarkTable1DeviceModel(b *testing.B) { benchArtifact(b, "table1") }

// BenchmarkFig5DiskScheduling regenerates Fig. 5 (scheduler comparison on
// the Atlas 10K, random workload).
func BenchmarkFig5DiskScheduling(b *testing.B) { benchArtifact(b, "fig5") }

// BenchmarkFig6MEMSScheduling regenerates Fig. 6 (scheduler comparison on
// the MEMS device, random workload).
func BenchmarkFig6MEMSScheduling(b *testing.B) { benchArtifact(b, "fig6") }

// BenchmarkFig7TraceScheduling regenerates Fig. 7 (Cello and TPC-C traces
// on the MEMS device vs. scale factor).
func BenchmarkFig7TraceScheduling(b *testing.B) { benchArtifact(b, "fig7") }

// BenchmarkFig8SettlingTime regenerates Fig. 8 (settling-time
// sensitivity: 0 and 2 time constants).
func BenchmarkFig8SettlingTime(b *testing.B) { benchArtifact(b, "fig8") }

// BenchmarkFig9Subregions regenerates Fig. 9 (5×5 subregion service-time
// map, with and without settle).
func BenchmarkFig9Subregions(b *testing.B) { benchArtifact(b, "fig9") }

// BenchmarkFig10LargeTransfers regenerates Fig. 10 (256 KB service time
// vs. X seek distance).
func BenchmarkFig10LargeTransfers(b *testing.B) { benchArtifact(b, "fig10") }

// BenchmarkFig11Layouts regenerates Fig. 11 (layout schemes on MEMS,
// MEMS-no-settle, and the disk).
func BenchmarkFig11Layouts(b *testing.B) { benchArtifact(b, "fig11") }

// BenchmarkTable2ReadModifyWrite regenerates Table 2 (read-modify-write
// decomposition, disk vs. MEMS).
func BenchmarkTable2ReadModifyWrite(b *testing.B) { benchArtifact(b, "table2") }

// BenchmarkFaultTolerance regenerates the §6.1 fault-tolerance extension
// (data-loss probability, capacity tradeoff, remap neutrality).
func BenchmarkFaultTolerance(b *testing.B) { benchArtifact(b, "fault") }

// BenchmarkPowerManagement regenerates the §7 power extension
// (idle-policy energy/latency comparison).
func BenchmarkPowerManagement(b *testing.B) { benchArtifact(b, "power") }

// ─── Micro-benchmarks of the model fast paths ───────────────────────────

// BenchmarkMEMSAccessRandom4K measures a single random 4 KB access on the
// MEMS device model (seek solve + transfer accounting).
func BenchmarkMEMSAccessRandom4K(b *testing.B) {
	d, err := NewMEMSDevice(DefaultMEMSConfig())
	if err != nil {
		b.Fatal(err)
	}
	src := NewRandomWorkload(1000, d.SectorSize(), d.Capacity(), 4096, 7)
	var reqs []*Request
	for r := src.Next(); r != nil; r = src.Next() {
		reqs = append(reqs, r)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d.Access(reqs[i%len(reqs)], 0)
	}
}

// BenchmarkDiskAccessRandom4K measures a single random 4 KB access on the
// disk model (seek curve + rotational position).
func BenchmarkDiskAccessRandom4K(b *testing.B) {
	d, err := NewDiskDevice(Atlas10KConfig())
	if err != nil {
		b.Fatal(err)
	}
	src := NewRandomWorkload(100, d.SectorSize(), d.Capacity(), 4096, 7)
	var reqs []*Request
	for r := src.Next(); r != nil; r = src.Next() {
		reqs = append(reqs, r)
	}
	now := 0.0
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		now += d.Access(reqs[i%len(reqs)], now)
	}
}

// BenchmarkSPTFDispatchQueue64 measures one SPTF scheduling decision over
// a 64-deep queue on the MEMS device — the cost that makes LBN-based
// approximations attractive (§4.4's "without the overhead of calculating
// the exact positioning times").
func BenchmarkSPTFDispatchQueue64(b *testing.B) {
	d, err := NewMEMSDevice(DefaultMEMSConfig())
	if err != nil {
		b.Fatal(err)
	}
	s, err := NewScheduler("SPTF")
	if err != nil {
		b.Fatal(err)
	}
	src := NewRandomWorkload(1000, d.SectorSize(), d.Capacity(), 65536, 9)
	var reqs []*Request
	for r := src.Next(); r != nil; r = src.Next() {
		reqs = append(reqs, r)
	}
	i := 0
	refill := func() {
		for s.Len() < 64 {
			reqs[i%len(reqs)].Arrival = 0
			s.Add(reqs[i%len(reqs)])
			i++
		}
	}
	refill()
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		r := s.Next(d, 0)
		d.Access(r, 0)
		b.StopTimer()
		refill()
		b.StartTimer()
	}
}

// estimateCounter counts the full estimates a scheduler asks for and
// the bounds it evaluates (LowerBound and Floor calls). Embedding the
// MEMS device keeps every optional interface it implements, the lower
// bound that lets SPTF skip estimates included.
type estimateCounter struct {
	*MEMSDevice
	estimates, bounds int
}

func (c *estimateCounter) LowerBound(k *core.BoundKey, now float64) float64 {
	c.bounds++
	return c.MEMSDevice.LowerBound(k, now)
}

func (c *estimateCounter) Floor(cyl int32, now float64) float64 {
	c.bounds++
	return c.MEMSDevice.Floor(cyl, now)
}

func (c *estimateCounter) EstimateAccess(r *Request, now float64) float64 {
	c.estimates++
	return c.MEMSDevice.EstimateAccess(r, now)
}

func (c *estimateCounter) EstimateBreakdown(r *Request, now float64) Breakdown {
	c.estimates++
	return c.MEMSDevice.EstimateBreakdown(r, now)
}

// schedNextLoop is BenchmarkSchedNext's workload: uniform random
// requests (seed 9) on the MEMS device, the named scheduler's queue
// refilled to depth after every dispatch, and the pick serviced. Under
// a benchmark the timer covers only the dispatches. It returns the full
// estimates the dispatches asked for and the bounds they evaluated.
func schedNextLoop(tb testing.TB, name string, depth, dispatches int) (estimates, bounds int) {
	d, err := NewMEMSDevice(DefaultMEMSConfig())
	if err != nil {
		tb.Fatal(err)
	}
	c := &estimateCounter{MEMSDevice: d}
	src := NewRandomWorkload(1000, d.SectorSize(), d.Capacity(), 65536, 9)
	var reqs []*Request
	for r := src.Next(); r != nil; r = src.Next() {
		reqs = append(reqs, r)
	}
	s, err := NewScheduler(name)
	if err != nil {
		tb.Fatal(err)
	}
	i := 0
	refill := func() {
		for s.Len() < depth {
			reqs[i%len(reqs)].Arrival = 0
			s.Add(reqs[i%len(reqs)])
			i++
		}
	}
	refill()
	b, timed := tb.(*testing.B)
	if timed {
		b.ResetTimer()
	}
	for n := 0; n < dispatches; n++ {
		c.Access(s.Next(c, 0), 0)
		if timed {
			b.StopTimer()
		}
		refill()
		if timed {
			b.StartTimer()
		}
	}
	return c.estimates, c.bounds
}

// BenchmarkSchedNext measures one scheduling decision at queue depths
// 8, 64, 512 and 4096 for every algorithm, on the MEMS device. The
// spread between FCFS (O(1), no estimates) and the cost-model
// schedulers (device estimates per dispatch) is the price of
// position-aware scheduling; comparing SPTF against SettleAware/Priority
// isolates the cost-model indirection's overhead. estimates/op is the
// full estimates each dispatch asked for: a depth-long scan for
// SettleAware, a handful for the bound-pruned SPTF and Priority.
// bounds/op is the bounds it evaluated: one per request for Priority
// and for SPTF below its walk depth, far fewer for SPTF's walk.
func BenchmarkSchedNext(b *testing.B) {
	for _, name := range AllSchedulerNames() {
		for _, depth := range []int{8, 64, 512, 4096} {
			b.Run(fmt.Sprintf("%s/depth=%d", name, depth), func(b *testing.B) {
				est, bounds := schedNextLoop(b, name, depth, b.N)
				b.ReportMetric(float64(est)/float64(b.N), "estimates/op")
				b.ReportMetric(float64(bounds)/float64(b.N), "bounds/op")
			})
		}
	}
}

// TestSPTFPrunesEstimates fails when the bound pruning of SPTF or
// Priority regresses, on counts that do not depend on the machine:
// over BenchmarkSchedNext's workload the mean full estimates per
// dispatch must stay at most 5 at depths 64 and 512, where pricing
// every candidate would take 64 and 512; and SPTF's walk must evaluate
// at most a tenth of the queue's bounds per dispatch at depths 512 and
// 4096, so it cannot fall back to bounding every request unnoticed.
func TestSPTFPrunesEstimates(t *testing.T) {
	const dispatches = 500
	for _, name := range []string{"SPTF", "Priority"} {
		for _, depth := range []int{64, 512} {
			est, _ := schedNextLoop(t, name, depth, dispatches)
			if mean := float64(est) / dispatches; mean > 5 {
				t.Errorf("%s depth %d: %.2f full estimates per dispatch, want ≤ 5", name, depth, mean)
			} else {
				t.Logf("%s depth %d: %.2f full estimates per dispatch", name, depth, mean)
			}
		}
	}
	for _, depth := range []int{512, 4096} {
		_, bounds := schedNextLoop(t, "SPTF", depth, dispatches)
		if mean := float64(bounds) / dispatches; mean > float64(depth)/10 {
			t.Errorf("SPTF depth %d: %.1f bounds per dispatch, want ≤ %d", depth, mean, depth/10)
		} else {
			t.Logf("SPTF depth %d: %.1f bounds per dispatch", depth, mean)
		}
	}
}

// BenchmarkSimulationThroughput measures end-to-end simulated requests
// per wall-second for the full queueing loop (MEMS + SPTF).
func BenchmarkSimulationThroughput(b *testing.B) {
	d, err := NewMEMSDevice(DefaultMEMSConfig())
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		s, _ := NewScheduler("SPTF")
		src := NewRandomWorkload(1000, d.SectorSize(), d.Capacity(), 2000, int64(n))
		res := Simulate(d, s, src, SimOptions{})
		if res.Requests != 2000 {
			b.Fatalf("completed %d", res.Requests)
		}
	}
}

// ─── Extension artifact benchmarks ──────────────────────────────────────

// BenchmarkRAIDSmallWrites regenerates the §6.2 array-level extension
// (RAID-5 small writes, degraded mode, rebuild).
func BenchmarkRAIDSmallWrites(b *testing.B) { benchArtifact(b, "raid") }

// BenchmarkCacheStudy regenerates the §2.4.11 speed-matching-buffer
// extension.
func BenchmarkCacheStudy(b *testing.B) { benchArtifact(b, "cache") }

// BenchmarkAgingAblation regenerates the SPTF-aging ablation.
func BenchmarkAgingAblation(b *testing.B) { benchArtifact(b, "aging") }

// BenchmarkRemapStudy regenerates the §6.1.1 slip-vs-spare-tip remap
// extension.
func BenchmarkRemapStudy(b *testing.B) { benchArtifact(b, "remap") }

// BenchmarkGenerations regenerates the device-generation sensitivity
// study.
func BenchmarkGenerations(b *testing.B) { benchArtifact(b, "generations") }

// BenchmarkStartup regenerates the §6.3 startup/synchronous-write
// extension.
func BenchmarkStartup(b *testing.B) { benchArtifact(b, "startup") }

// BenchmarkShuffleStudy regenerates the §5.3 organ-pipe maintenance-cost
// extension.
func BenchmarkShuffleStudy(b *testing.B) { benchArtifact(b, "shuffle") }

// BenchmarkBusStudy regenerates the shared-interconnect extension.
func BenchmarkBusStudy(b *testing.B) { benchArtifact(b, "bus") }

// BenchmarkStripingStudy regenerates the multi-device volume extension.
func BenchmarkStripingStudy(b *testing.B) { benchArtifact(b, "striping") }

// BenchmarkSeekProfile regenerates the seek-curve tables.
func BenchmarkSeekProfile(b *testing.B) { benchArtifact(b, "seekprofile") }
