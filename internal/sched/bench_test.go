package sched

import (
	"fmt"
	"testing"

	"memsim/internal/core"
	"memsim/internal/mems"
	"memsim/internal/workload"
)

// BenchmarkSPTFScan times one SPTF dispatch with the queue walked
// outward from the sled (scan=walk) and bounded request by request
// (scan=linear), across queue depths, on BenchmarkSchedNext's workload
// in the root package: the paper's random requests (seed 9) on the MEMS
// device, the queue refilled to depth after every dispatch, the pick
// serviced. The walk's index upkeep — one removal and one insertion per
// dispatch — is inside the timed region. walkDepth is the least depth
// at which the walk wins.
func BenchmarkSPTFScan(b *testing.B) {
	d := &countingDevice{Device: mems.MustDevice(mems.DefaultConfig())}
	src := workload.DefaultRandom(1000, d.SectorSize(), d.Capacity(), 65536, 9)
	var reqs []*core.Request
	for r := src.Next(); r != nil; r = src.Next() {
		reqs = append(reqs, r)
	}
	for _, scan := range []string{"linear", "walk"} {
		for _, depth := range []int{8, 16, 32, 64, 128, 192, 256, 384, 512, 4096} {
			b.Run(fmt.Sprintf("scan=%s/depth=%d", scan, depth), func(b *testing.B) {
				d.Reset()
				d.estimates, d.bounds = 0, 0
				s := NewSPTF()
				if s.walkAt = 0; scan == "walk" {
					s.walkAt = 2
				}
				i := 0
				refill := func() {
					for s.Len() < depth {
						s.Add(reqs[i%len(reqs)])
						i++
					}
				}
				refill()
				b.ResetTimer()
				for n := 0; n < b.N; n++ {
					d.Access(s.Next(d, 0), 0)
					refill()
				}
				b.ReportMetric(float64(d.estimates)/float64(b.N), "estimates/op")
				b.ReportMetric(float64(d.bounds)/float64(b.N), "bounds/op")
			})
		}
	}
}
