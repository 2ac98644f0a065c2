package experiments

import (
	"testing"

	"memsim/internal/mems"
	"memsim/internal/sim"
	"memsim/internal/workload"
)

// completeCounter counts every EventComplete, warmup included.
type completeCounter struct{ n int }

func (c *completeCounter) Observe(ev sim.ProbeEvent) {
	if ev.Kind == sim.EventComplete {
		c.n++
	}
}

// TestStripingClampKeepsRequestsInOneStrip: on a quick striping cell the
// clamped source never hands the stripe volume a strip-crossing
// request, so every volume request is exactly one member op and the
// members' op counts sum to the completions, warmup included. The clamp
// count must also equal an independent count of the strip-crossing
// requests in the raw generator's stream.
func TestStripingClampKeepsRequestsInOneStrip(t *testing.T) {
	p := Quick()
	const n, rate = 2, 2000.0
	cc := &completeCounter{}
	res, clamped := stripedRun(&sim.Context{Probe: cc}, n, rate, p)
	if cc.n != p.Requests {
		t.Fatalf("completions = %d, want %d", cc.n, p.Requests)
	}
	ops := 0
	for _, m := range res.Members {
		ops += m.Requests
	}
	if ops != cc.n {
		t.Errorf("member ops = %d, completions = %d: some request was split across strips", ops, cc.n)
	}

	d := mems.MustDevice(mems.DefaultConfig())
	raw := workload.NewRandom(stripedConfig(n, rate, p, d.SectorSize(), d.Capacity()))
	crossing := 0
	for r := raw.Next(); r != nil; r = raw.Next() {
		if r.LBN/stripUnit != (r.LBN+int64(r.Blocks)-1)/stripUnit {
			crossing++
		}
	}
	if crossing == 0 {
		t.Fatal("the raw stream crosses no strip; the clamp is not exercised")
	}
	if clamped != crossing {
		t.Errorf("clamped %d requests, the raw stream has %d strip-crossing ones", clamped, crossing)
	}
}
