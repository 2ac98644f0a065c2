package fault_test

import (
	"fmt"
	"math/rand"
	"testing"

	"memsim/internal/core"
	"memsim/internal/fault"
	"memsim/internal/mems"
)

// benchSink keeps the benchmarks' results live.
var benchSink float64

// BenchmarkSlipRemapScan times the remap artifact's slip-remap scan at
// Quick() size: a MEMS G1 device behind a SlipRemap table holding
// rate×scanLen defects drawn with replacement, then a sequential read of
// the scan in 256 KB pieces. One op is one table build plus one scan.
func BenchmarkSlipRemapScan(b *testing.B) {
	const (
		blocks  = 512        // 256 KB pieces
		scanLen = 1500 * 512 // Quick().ClosedRequests pieces
		seed    = int64(1)   // Quick().Seed
	)
	dev := mems.MustDevice(mems.DefaultConfig())
	for _, rate := range []float64{0, 0.01, 0.05} {
		b.Run(fmt.Sprintf("rate=%g", rate), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				dev.Reset()
				sr := fault.NewSlipRemap(dev)
				rng := rand.New(rand.NewSource(seed))
				defects := int64(rate * scanLen)
				spareBase := dev.Capacity() - defects - 1
				for d := int64(0); d < defects; d++ {
					sr.Remap(rng.Int63n(scanLen), spareBase+d)
				}
				now := 0.0
				for lbn := int64(0); lbn+blocks <= scanLen; lbn += blocks {
					now += sr.Access(&core.Request{Op: core.Read, LBN: lbn, Blocks: blocks}, now)
				}
				benchSink = now
			}
		})
	}
}

// BenchmarkLossProbability times the fault artifact's Monte-Carlo cell:
// 50 uniformly-random tip failures on the default configuration, 200
// trials per op.
func BenchmarkLossProbability(b *testing.B) {
	cfg := fault.DefaultConfig()
	rng := rand.New(rand.NewSource(1))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p, err := fault.LossProbability(cfg, 50, 200, rng)
		if err != nil {
			b.Fatal(err)
		}
		benchSink = p
	}
}
