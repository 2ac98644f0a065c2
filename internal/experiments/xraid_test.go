package experiments

import (
	"bytes"
	"math/rand"
	"strings"
	"testing"

	"memsim/internal/core"
	"memsim/internal/disk"
	"memsim/internal/runner"
	"memsim/internal/sim"
)

// constDev serves every access in a fixed time per direction and logs
// each access with its issue time.
type constDev struct {
	capacity        int64
	readMs, writeMs float64
	log             []constAccess
}

type constAccess struct {
	req core.Request
	at  float64
}

func (d *constDev) Name() string    { return "const" }
func (d *constDev) Capacity() int64 { return d.capacity }
func (d *constDev) SectorSize() int { return 512 }
func (d *constDev) Reset()          {}
func (d *constDev) Access(r *core.Request, now float64) float64 {
	d.log = append(d.log, constAccess{req: *r, at: now})
	return d.EstimateAccess(r, now)
}
func (d *constDev) EstimateAccess(r *core.Request, _ float64) float64 {
	if r.Op == core.Write {
		return d.writeMs
	}
	return d.readMs
}

// constDevs builds four constant-time members of the given capacity.
func constDevs(capacity int64) ([]core.Device, []*constDev) {
	devs := make([]core.Device, 4)
	raw := make([]*constDev, 4)
	for i := range devs {
		raw[i] = &constDev{capacity: capacity, readMs: 1.5, writeMs: 2}
		devs[i] = raw[i]
	}
	return devs, raw
}

func TestRAID5SmallWriteIsTwoPhases(t *testing.T) {
	devs, raw := constDevs(1 << 20)
	v := raidVolume(devs, -1)
	pl, _ := v.PlanWrite(0, 8)
	// Read old data and parity in parallel (1.5 ms), then write both in
	// parallel (2 ms), starting at t=10.
	if got := raidTime(v, devs, pl, 10); got != 3.5 {
		t.Errorf("small write = %g ms, want 3.5 (one read phase + one write phase)", got)
	}
	involved := 0
	for i, d := range raw {
		switch len(d.log) {
		case 0:
		case 2:
			involved++
			rd, wr := d.log[0], d.log[1]
			if rd.req.Op != core.Read || rd.at != 10 || wr.req.Op != core.Write || wr.at != 11.5 {
				t.Errorf("member %d saw %+v, want a read at 10 then a write at 11.5", i, d.log)
			}
		default:
			t.Errorf("member %d saw %d accesses, want 0 or 2", i, len(d.log))
		}
	}
	if involved != 2 {
		t.Errorf("%d members involved, want 2 (data and parity)", involved)
	}
}

func TestRAID5DegradedReadReconstructs(t *testing.T) {
	devs, raw := constDevs(1 << 20)
	healthy, _ := raidVolume(devs, -1).PlanRead(0, 8)
	dead := healthy.Phases[0][0].Slot
	v := raidVolume(devs, dead)
	pl, _ := v.PlanRead(0, 8)
	if got := raidTime(v, devs, pl, 0); got != 1.5 {
		t.Errorf("degraded read = %g ms, want 1.5 (parallel peer reads)", got)
	}
	for i, d := range raw {
		want := 1
		if i == dead {
			want = 0
		}
		if len(d.log) != want {
			t.Errorf("member %d saw %d reads, want %d", i, len(d.log), want)
		}
	}
}

func TestRAIDRebuildScanSumsChunks(t *testing.T) {
	// 8200 sectors scan as 2700+2700+2700+100: four 1.5 ms reads.
	devs, raw := constDevs(3*sim.DefaultRebuildChunk + 100)
	if got := raidRebuildScan(nil, raidVolume(devs, 1), devs); got != 6 {
		t.Errorf("rebuild scan = %g ms, want 6 (4 chunks × 1.5 ms)", got)
	}
	for i, d := range raw {
		if i == 1 {
			if len(d.log) != 0 {
				t.Errorf("failed member scanned %d chunks", len(d.log))
			}
			continue
		}
		next := int64(0)
		for _, a := range d.log {
			if a.req.Op != core.Read || a.req.LBN != next || a.at != 1.5*float64(next/sim.DefaultRebuildChunk) {
				t.Fatalf("member %d chunk %+v out of sequence", i, a)
			}
			next += int64(a.req.Blocks)
		}
		if next != 3*sim.DefaultRebuildChunk+100 {
			t.Errorf("member %d scanned %d sectors, want %d", i, next, 3*sim.DefaultRebuildChunk+100)
		}
	}
}

// scriptedSource replays fixed Int63 values.
type scriptedSource []int64

func (s *scriptedSource) Int63() int64 {
	v := (*s)[0]
	*s = (*s)[1:]
	return v
}
func (s *scriptedSource) Seed(int64) {}

func TestRAIDDrawRedrawsTail(t *testing.T) {
	// Atlas 10K members hold 16 962 852 sectors, 4 mod 8: the volume
	// trims each member to 16 962 848, so the largest draw, 50 888 544,
	// addresses past the volume's end.
	devs := make([]core.Device, 4)
	for i := range devs {
		devs[i] = disk.MustDevice(disk.Atlas10K())
	}
	memberCap := devs[0].Capacity()
	top := 3*memberCap - 9 // the largest value Int63n(3*memberCap-8) returns
	if memberCap != 16962852 || top/8*8 != 50888544 {
		t.Fatalf("member capacity %d, largest draw %d", memberCap, top/8*8)
	}
	v := raidVolume(devs, -1)
	func() {
		defer func() {
			if recover() == nil {
				t.Error("the volume planned a write past its capacity")
			}
		}()
		v.PlanWrite(top/8*8, 8)
	}()
	// The draw rejects the tail and takes the next value instead, for
	// reads and writes alike.
	if got := raidDraw(rand.New(&scriptedSource{top, 16}), memberCap, v.Capacity()); got != 16 {
		t.Errorf("draw after the tail = %d, want 16", got)
	}
	for _, op := range []core.Op{core.Read, core.Write} {
		if mean := raidRandom(v, devs, op, 1, rand.New(&scriptedSource{top, 16})); mean <= 0 {
			t.Errorf("%v at the redrawn LBN took %g ms", op, mean)
		}
	}
}

// raidQuickCSV is the raid table at Quick() size, pinned byte for byte
// (bench/expected pins the same rows).
const raidQuickCSV = `metric,MEMS array,Atlas 10K array,disk/MEMS
4 KB RAID-5 write (read-modify-write),1.041,15.709,15.09×
"4 KB read, healthy",0.749,8.647,11.54×
"4 KB read, degraded (reconstruct)",0.761,8.886,11.68×
member rebuild (full scan),44.4 s,476.4 s,10.72×
`

func TestRAIDTableUnchanged(t *testing.T) {
	var b bytes.Buffer
	run(t, "raid", Quick())[0].CSV(&b)
	if b.String() != raidQuickCSV {
		t.Errorf("raid table drifted:\n%s\nwant:\n%s", b.String(), raidQuickCSV)
	}
}

func TestRAIDRebuildIsTracedAndChecked(t *testing.T) {
	// The rebuild scans run on the engine: under a batch probe and
	// -check they emit events labelled with their job, and the table is
	// unchanged. The request rows time plans directly and emit nothing.
	pl, err := PlanFor("raid", Quick())
	if err != nil {
		t.Fatal(err)
	}
	tally := eventTally{}
	if _, err := (&runner.Context{Workers: 1, Sim: sim.Context{Probe: tally, Check: true}}).Run(pl.Jobs); err != nil {
		t.Fatal(err)
	}
	for _, j := range pl.Jobs {
		got := tally[j.Label][sim.EventComplete]
		if strings.Contains(j.Label, "rebuild") != (got > 0) {
			t.Errorf("job %q emitted %d complete events", j.Label, got)
		}
	}
	var b bytes.Buffer
	pl.Assemble()[0].CSV(&b)
	if b.String() != raidQuickCSV {
		t.Errorf("checked, probed table diverged:\n%s\nwant:\n%s", b.String(), raidQuickCSV)
	}
}
