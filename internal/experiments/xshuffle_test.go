package experiments

import (
	"testing"

	"memsim/internal/core"
	"memsim/internal/layout"
)

// TestShuffleAdaptiveMatchesTimedLoop pins shuffleAdaptive's engine run
// to a hand-timed reference loop, bit for bit: service time summed per
// read, a reshuffle after every 250th read charged before the next one,
// and the reshuffle after the last read counted too when the stream
// length is a multiple of 250.
func TestShuffleAdaptiveMatchesTimedLoop(t *testing.T) {
	p := Quick()
	for _, tc := range []struct{ count, drift int }{{1000, 250}, {1100, 1100}} {
		d := newMEMS(1)
		g := d.Geometry()
		ext := int64(g.SectorsPerCylinder)
		aop, err := layout.NewAdaptiveOrganPipe(d.Capacity(), ext)
		if err != nil {
			t.Fatal(err)
		}
		md := core.NewManagedDevice(d, aop)
		perBlockMs := 2 * float64(g.SectorSize) / g.StreamBandwidth() * 1e3
		sum, mig, now, n := 0.0, 0.0, 0.0, 0
		shuffleWorkload(d.Capacity()/ext, ext, tc.count, tc.drift, p.Seed, func(lbn int64) {
			aop.Record(lbn, 8)
			svc := md.Access(&core.Request{Op: core.Read, LBN: lbn, Blocks: 8}, now)
			now += svc
			sum += svc
			if n++; n%250 == 0 {
				cost := float64(aop.ReshuffleN(4)) * perBlockMs
				mig += cost
				now += cost
			}
		})
		want := adaptiveCell{sum / float64(n), mig / float64(n)}
		if got := shuffleAdaptive(nil, p, tc.count, tc.drift); got != want {
			t.Errorf("count=%d: engine run %+v, timed loop %+v", tc.count, got, want)
		}
	}
}
