package sched

import (
	"encoding/binary"
	"hash/fnv"
	"math/rand"
	"testing"
	"testing/quick"

	"memsim/internal/core"
	"memsim/internal/disk"
	"memsim/internal/mems"
)

func req(lbn int64) *core.Request {
	return &core.Request{Op: core.Read, LBN: lbn, Blocks: 8}
}

func TestNewByName(t *testing.T) {
	for _, name := range AllNames() {
		s, err := New(name)
		if err != nil {
			t.Fatalf("New(%q): %v", name, err)
		}
		if s.Name() != name {
			t.Errorf("New(%q).Name() = %q", name, s.Name())
		}
	}
	// Aliases.
	if s, err := New("SSTF"); err != nil || s.Name() != "SSTF_LBN" {
		t.Errorf("alias SSTF failed: %v", err)
	}
	if s, err := New("CLOOK"); err != nil || s.Name() != "C-LOOK" {
		t.Errorf("alias CLOOK failed: %v", err)
	}
	if _, err := New("ELEVATOR-9000"); err == nil {
		t.Error("expected error for unknown scheduler")
	}
}

func TestFCFSOrder(t *testing.T) {
	s := NewFCFS()
	for _, lbn := range []int64{5, 1, 9, 3} {
		s.Add(req(lbn))
	}
	var got []int64
	for s.Len() > 0 {
		got = append(got, s.Next(nil, 0).LBN)
	}
	want := []int64{5, 1, 9, 3}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("FCFS order = %v, want %v", got, want)
		}
	}
}

func TestFCFSRequeueGoesToFront(t *testing.T) {
	// A request retried after a failed service visit keeps its place at
	// the head of the arrival order (core.Requeuer).
	s := NewFCFS()
	for _, lbn := range []int64{5, 1, 9} {
		s.Add(req(lbn))
	}
	first := s.Next(nil, 0)
	s.Requeue(first)
	var got []int64
	for s.Len() > 0 {
		got = append(got, s.Next(nil, 0).LBN)
	}
	want := []int64{5, 1, 9}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("post-requeue order = %v, want %v", got, want)
		}
	}
	// The interface assertion the simulator relies on.
	var _ core.Requeuer = s
}

func TestFCFSEmpty(t *testing.T) {
	for _, s := range []core.Scheduler{NewFCFS(), NewSSTF(), NewCLOOK(), NewSPTF(), NewSettleAware(), NewPriority()} {
		if r := s.Next(nil, 0); r != nil {
			t.Errorf("%s: Next on empty queue = %v, want nil", s.Name(), r)
		}
		if s.Len() != 0 {
			t.Errorf("%s: Len on empty = %d", s.Name(), s.Len())
		}
	}
}

func TestSSTFPicksNearest(t *testing.T) {
	s := NewSSTF()
	// After dispatching LBN 100 (8 blocks), position is 108.
	s.Add(req(100))
	s.Next(nil, 0)
	s.Add(req(500))
	s.Add(req(120)) // distance 12 from 108
	s.Add(req(90))  // distance 18
	if r := s.Next(nil, 0); r.LBN != 120 {
		t.Errorf("SSTF picked %d, want 120", r.LBN)
	}
	// Now at 128: distance to 90 is 38, to 500 is 372.
	if r := s.Next(nil, 0); r.LBN != 90 {
		t.Errorf("SSTF picked %d, want 90", r.LBN)
	}
}

func TestCLOOKAscendingWithWrap(t *testing.T) {
	s := NewCLOOK()
	s.Add(req(50))
	s.Next(nil, 0) // position now 58
	for _, lbn := range []int64{10, 70, 60, 90, 20} {
		s.Add(req(lbn))
	}
	var got []int64
	for s.Len() > 0 {
		got = append(got, s.Next(nil, 0).LBN)
	}
	// Ascending from 58 (60, 70, 90), then wrap to the lowest (10, 20).
	want := []int64{60, 70, 90, 10, 20}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("C-LOOK order = %v, want %v", got, want)
		}
	}
}

func TestCLOOKNeverReversesWithinSweep(t *testing.T) {
	// Property: within one pass (until a wrap), dispatched LBNs ascend.
	f := func(raw []uint32) bool {
		s := NewCLOOK()
		for _, v := range raw {
			s.Add(req(int64(v % 100000)))
		}
		prev := int64(-1)
		wraps := 0
		for s.Len() > 0 {
			r := s.Next(nil, 0)
			if r.LBN < prev {
				wraps++
			}
			prev = r.LBN
		}
		return wraps <= 1 // at most one wrap when all requests are queued upfront
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestSPTFPicksMinimumPositioningTime(t *testing.T) {
	d := mems.MustDevice(mems.DefaultConfig())
	g := d.Geometry()
	s := NewSPTF()
	near := g.LBN(g.Cylinders/2, 0, 0, 0)
	far := g.LBN(0, 0, 0, 0)
	s.Add(req(far))
	s.Add(req(near))
	if r := s.Next(d, 0); r.LBN != near {
		t.Errorf("SPTF picked LBN %d, want the near one %d", r.LBN, near)
	}
}

func TestSPTFUsesRotationOnDisk(t *testing.T) {
	// On a disk, SPTF should prefer a rotationally closer sector over a
	// same-cylinder sector that just passed under the head.
	d := disk.MustDevice(disk.Atlas10K())
	d.Reset()
	// Request A: sector 0 of the head's current track. Request B: a bit
	// further around the platter on the same track. At a time when A
	// just passed, B wins despite identical seek distance (zero).
	c, h := d.State()
	_ = h
	var lbnTrackStart int64
	// Find the LBN at (c, 0, 0) by scanning: LBNs are sequential, so use
	// Locate to invert approximately.
	lo, hi := int64(0), d.Capacity()-1
	for lo < hi {
		mid := (lo + hi) / 2
		mc, _, _ := d.Locate(mid)
		if mc < c {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	lbnTrackStart = lo
	a := req(lbnTrackStart)      // sector 0
	b := req(lbnTrackStart + 40) // sector 40, later in rotation
	s := NewSPTF()
	s.Add(a)
	s.Add(b)
	// Choose a time at which sector 10 is under the head: sector 0 just
	// passed; sector 40 is closer going forward.
	ta := d.EstimateAccess(a, 0)
	tb := d.EstimateAccess(b, 0)
	pick := s.Next(d, 0)
	want := a
	if tb < ta {
		want = b
	}
	if pick != want {
		t.Errorf("SPTF picked %d, want %d (est a=%g b=%g)", pick.LBN, want.LBN, ta, tb)
	}
}

func TestAllSchedulersConserveRequests(t *testing.T) {
	// Property: every added request comes back exactly once.
	d := mems.MustDevice(mems.DefaultConfig())
	mk := []func() core.Scheduler{
		func() core.Scheduler { return NewFCFS() },
		func() core.Scheduler { return NewSSTF() },
		func() core.Scheduler { return NewCLOOK() },
		func() core.Scheduler { return NewSPTF() },
		func() core.Scheduler { return NewSettleAware() },
		func() core.Scheduler { return NewPriority() },
		func() core.Scheduler { return NewASPTF(0.01) },
	}
	rng := rand.New(rand.NewSource(2))
	for _, make := range mk {
		s := make()
		seen := map[*core.Request]bool{}
		var added []*core.Request
		for i := 0; i < 500; i++ {
			r := req(rng.Int63n(d.Capacity() - 8))
			added = append(added, r)
			s.Add(r)
			// Interleave dispatches with arrivals.
			if rng.Intn(3) == 0 && s.Len() > 0 {
				got := s.Next(d, 0)
				if seen[got] {
					t.Fatalf("%s returned a request twice", s.Name())
				}
				seen[got] = true
			}
		}
		for s.Len() > 0 {
			got := s.Next(d, 0)
			if seen[got] {
				t.Fatalf("%s returned a request twice", s.Name())
			}
			seen[got] = true
		}
		if len(seen) != len(added) {
			t.Fatalf("%s lost requests: %d of %d", s.Name(), len(seen), len(added))
		}
		if r := s.Next(d, 0); r != nil {
			t.Fatalf("%s produced a request from an empty queue", s.Name())
		}
	}
}

func TestReset(t *testing.T) {
	for _, s := range []core.Scheduler{NewFCFS(), NewSSTF(), NewCLOOK(), NewSPTF(), NewSettleAware(), NewPriority()} {
		s.Add(req(1))
		s.Add(req(2))
		s.Reset()
		if s.Len() != 0 {
			t.Errorf("%s: Len after Reset = %d", s.Name(), s.Len())
		}
		if r := s.Next(nil, 0); r != nil {
			t.Errorf("%s: Next after Reset = %v", s.Name(), r)
		}
	}
}

func TestDrainReturnsDispatchOrder(t *testing.T) {
	// Drain must expose the order the scheduler would actually service,
	// not hide it behind an LBN sort (that is DrainSorted's job).
	s := NewFCFS()
	for _, lbn := range []int64{9, 1, 5} {
		s.Add(req(lbn))
	}
	out := Drain(s, nil, 0)
	if len(out) != 3 || out[0].LBN != 9 || out[1].LBN != 1 || out[2].LBN != 5 {
		t.Errorf("Drain = %v, want FCFS dispatch order 9,1,5", lbns(out))
	}
}

func TestDrainSorted(t *testing.T) {
	s := NewFCFS()
	for _, lbn := range []int64{9, 1, 5} {
		s.Add(req(lbn))
	}
	out := DrainSorted(s, nil, 0)
	if len(out) != 3 || out[0].LBN != 1 || out[1].LBN != 5 || out[2].LBN != 9 {
		t.Errorf("DrainSorted = %v", lbns(out))
	}
}

func lbns(rs []*core.Request) []int64 {
	out := make([]int64, len(rs))
	for i, r := range rs {
		out[i] = r.LBN
	}
	return out
}

func TestSSTFReducesSeekVsFCFS(t *testing.T) {
	// Sanity: over a batch of queued random requests on the MEMS device,
	// greedy SSTF_LBN must yield lower total service time than FCFS.
	rng := rand.New(rand.NewSource(3))
	var lbns []int64
	d := mems.MustDevice(mems.DefaultConfig())
	for i := 0; i < 200; i++ {
		lbns = append(lbns, rng.Int63n(d.Capacity()-8))
	}
	run := func(s core.Scheduler) float64 {
		d.Reset()
		for _, lbn := range lbns {
			s.Add(req(lbn))
		}
		total := 0.0
		for s.Len() > 0 {
			r := s.Next(d, total)
			total += d.Access(r, total)
		}
		return total
	}
	fcfs := run(NewFCFS())
	sstf := run(NewSSTF())
	sptf := run(NewSPTF())
	if sstf >= fcfs {
		t.Errorf("SSTF total %g should beat FCFS %g", sstf, fcfs)
	}
	if sptf >= fcfs {
		t.Errorf("SPTF total %g should beat FCFS %g", sptf, fcfs)
	}
}

// TestDispatchOrderPinned pins every policy's dispatch order on the
// MEMS G1 device: a seeded interleaving of Add and Next, with Access
// advancing the clock, mixed request classes, arrivals older than
// DefaultPromoteMs (Priority's promotion) and a mid-run Reset followed
// by refills (the head-position reset of SSTF_LBN and C-LOOK). The
// constants are FNV-1a hashes of the dispatched LBN sequences; any
// change to a policy's choices, its tie-breaks or its scan order moves
// them.
func TestDispatchOrderPinned(t *testing.T) {
	want := map[string]uint64{
		"FCFS":        0x4b244e29c5b72877,
		"SSTF_LBN":    0xd50344844f752e8d,
		"C-LOOK":      0x83bd66ca6995da02,
		"SPTF":        0x2893628710acdc8b,
		"SettleAware": 0x11f17e59cc914ada,
		"Priority":    0x315ebba72f08c364,
	}
	classes := []core.Class{core.ClassForeground, core.ClassDegradedRead, core.ClassRebuild}
	for _, name := range []string{"FCFS", "SSTF_LBN", "C-LOOK", "SPTF", "SettleAware", "Priority"} {
		s, err := New(name)
		if err != nil {
			t.Fatal(err)
		}
		d := mems.MustDevice(mems.DefaultConfig())
		rng := rand.New(rand.NewSource(17))
		h := fnv.New64a()
		var buf [8]byte
		now, n := 0.0, 0
		dispatch := func() {
			r := s.Next(d, now)
			now += d.Access(r, now)
			binary.LittleEndian.PutUint64(buf[:], uint64(r.LBN))
			h.Write(buf[:])
			n++
		}
		for step := 0; step < 3000; step++ {
			if step == 1500 {
				s.Reset()
			}
			if s.Len() == 0 || rng.Intn(100) < 52 {
				s.Add(&core.Request{
					Arrival: now - 2*DefaultPromoteMs*rng.Float64(),
					Op:      core.Read,
					LBN:     rng.Int63n(d.Capacity() - 64),
					Blocks:  1 + rng.Intn(64),
					Class:   classes[rng.Intn(len(classes))],
				})
				continue
			}
			dispatch()
		}
		for s.Len() > 0 {
			dispatch()
		}
		if got := h.Sum64(); got != want[name] {
			t.Errorf("%s: %d dispatches hash to %#x, want %#x", name, n, got, want[name])
		}
	}
}
