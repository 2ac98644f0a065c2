package core

import (
	"runtime"
	"strings"
	"testing"
	"unsafe"
)

func TestOpString(t *testing.T) {
	if Read.String() != "read" || Write.String() != "write" {
		t.Error("Op strings wrong")
	}
	if !strings.HasPrefix(Op(9).String(), "Op(") {
		t.Error("unknown Op should format numerically")
	}
}

func TestRequestSize(t *testing.T) {
	// Every simulated request is one Request, so its size is the
	// simulator's allocation per request: 80 B on a 64-bit platform,
	// one of the allocator's size classes. Degraded, Failed and Ref live
	// in the padding after Class and must not grow it.
	if unsafe.Sizeof(uintptr(0)) != 8 {
		t.Skip("sizes are pinned for 64-bit platforms")
	}
	if got := unsafe.Sizeof(Request{}); got != 80 {
		t.Errorf("unsafe.Sizeof(Request{}) = %d, want 80", got)
	}
}

func TestSlabIsWholePages(t *testing.T) {
	// A full slab is one large allocation, which the allocator rounds up
	// to whole 8 KiB pages: SlabLen requests must fill them exactly, or
	// the rounding costs every slab the bytes the size class did.
	if unsafe.Sizeof(uintptr(0)) != 8 {
		t.Skip("sizes are pinned for 64-bit platforms")
	}
	const page = 8192
	if bytes := SlabLen * unsafe.Sizeof(Request{}); bytes%page != 0 {
		t.Errorf("a slab of %d requests is %d B, %d B past a whole number of pages", SlabLen, bytes, bytes%page)
	}
}

func TestNewRequestsSlabs(t *testing.T) {
	// NewRequests carves its requests from one slab per SlabLen: a
	// slab's requests sit next to each other in memory, and the list
	// costs one allocation per slab besides its pointer slice.
	size := unsafe.Sizeof(Request{})
	runtime.GC() // start the mark workers outside the counted runs
	for _, n := range []int{1, SlabLen - 1, SlabLen, SlabLen + 1, 3*SlabLen + 5} {
		reqs := NewRequests(n)
		if len(reqs) != n {
			t.Fatalf("n=%d: %d requests", n, len(reqs))
		}
		for i, r := range reqs {
			if *r != (Request{}) {
				t.Fatalf("n=%d: request %d not zeroed", n, i)
			}
			if i%SlabLen != 0 && uintptr(unsafe.Pointer(r)) != uintptr(unsafe.Pointer(reqs[i-1]))+size {
				t.Fatalf("n=%d: request %d does not follow request %d in its slab", n, i, i-1)
			}
		}
		allocs := testing.AllocsPerRun(5, func() { NewRequests(n) })
		if want := 1 + (n+SlabLen-1)/SlabLen; allocs != float64(want) {
			t.Errorf("n=%d: %g allocations, want %d", n, allocs, want)
		}
	}
}

func TestSlabPutReuses(t *testing.T) {
	// New hands back the request put back last, zeroed, before it
	// carves anything; Put keeps up to slabPut requests, and neither
	// allocates once the first slab is carved.
	var s Slab
	reqs := make([]*Request, slabPut+1)
	for i := range reqs {
		reqs[i] = s.New(len(reqs) - i)
		reqs[i].LBN, reqs[i].Failed, reqs[i].Retries = int64(i), true, 1
	}
	for _, r := range reqs {
		s.Put(r)
	}
	// The last request did not fit the list: the first New after the
	// puts returns the last one kept, and the list ends with the first.
	for i := slabPut - 1; i >= 0; i-- {
		r := s.New(1)
		if r != reqs[i] {
			t.Fatalf("New returned %p, want put-back request %d (%p)", r, i, reqs[i])
		}
		if *r != (Request{}) {
			t.Fatalf("reused request %d not zeroed: %+v", i, *r)
		}
	}
	if r := s.New(1); r == reqs[slabPut] || r == reqs[0] {
		t.Error("New reused a request past the list's capacity or twice")
	}
	r := s.New(1)
	if n := testing.AllocsPerRun(100, func() { s.Put(r); r = s.New(1) }); n != 0 {
		t.Errorf("Put and New of a put-back request: %g allocations, want 0", n)
	}
}

func TestRequestTimes(t *testing.T) {
	r := &Request{Arrival: 10, Start: 15, Finish: 18}
	if r.ResponseTime() != 8 {
		t.Errorf("response = %g", r.ResponseTime())
	}
	if r.ServiceTime() != 3 {
		t.Errorf("service = %g", r.ServiceTime())
	}
	r.Blocks = 4
	if r.Bytes(512) != 2048 {
		t.Errorf("bytes = %d", r.Bytes(512))
	}
}

func TestIdentityLayout(t *testing.T) {
	var l IdentityLayout
	if l.Name() != "simple" {
		t.Errorf("name = %q", l.Name())
	}
	for _, lbn := range []int64{0, 1, 1 << 40} {
		if l.Map(lbn) != lbn {
			t.Errorf("Map(%d) = %d", lbn, l.Map(lbn))
		}
	}
}

// echoDevice records the LBN it was asked to access.
type echoDevice struct {
	lastLBN int64
}

func (d *echoDevice) Name() string    { return "echo" }
func (d *echoDevice) Capacity() int64 { return 1000 }
func (d *echoDevice) SectorSize() int { return 512 }
func (d *echoDevice) Reset()          {}
func (d *echoDevice) Access(r *Request, _ float64) float64 {
	d.lastLBN = r.LBN
	return 1
}
func (d *echoDevice) EstimateAccess(r *Request, _ float64) float64 { return 2 }

// shiftLayout remaps LBNs by a constant offset (contiguity-preserving).
type shiftLayout struct{ by int64 }

func (s shiftLayout) Name() string        { return "shift" }
func (s shiftLayout) Map(lbn int64) int64 { return lbn + s.by }

// scrambleLayout breaks extents on purpose.
type scrambleLayout struct{}

func (scrambleLayout) Name() string        { return "scramble" }
func (scrambleLayout) Map(lbn int64) int64 { return lbn * 7 % 1000 }

func TestManagedDeviceRemaps(t *testing.T) {
	d := &echoDevice{}
	m := NewManagedDevice(d, shiftLayout{by: 100})
	req := &Request{LBN: 5, Blocks: 4}
	if svc := m.Access(req, 0); svc != 1 {
		t.Errorf("service = %g", svc)
	}
	if d.lastLBN != 105 {
		t.Errorf("device saw LBN %d, want 105", d.lastLBN)
	}
	// The caller's request is untouched.
	if req.LBN != 5 {
		t.Errorf("caller request mutated: %d", req.LBN)
	}
	if m.EstimateAccess(req, 0) != 2 {
		t.Error("estimate not forwarded")
	}
	if m.Name() != "echo/shift" {
		t.Errorf("name = %q", m.Name())
	}
	if m.Capacity() != 1000 || m.SectorSize() != 512 {
		t.Error("pass-through accessors wrong")
	}
}

func TestManagedDeviceNilLayoutIsIdentity(t *testing.T) {
	d := &echoDevice{}
	m := NewManagedDevice(d, nil)
	m.Access(&Request{LBN: 7, Blocks: 1}, 0)
	if d.lastLBN != 7 {
		t.Errorf("device saw %d, want 7", d.lastLBN)
	}
	if m.Name() != "echo/simple" {
		t.Errorf("name = %q", m.Name())
	}
}

func TestManagedDevicePanicsOnSplitExtent(t *testing.T) {
	m := NewManagedDevice(&echoDevice{}, scrambleLayout{})
	defer func() {
		if recover() == nil {
			t.Error("expected panic for extent-splitting layout")
		}
	}()
	m.Access(&Request{LBN: 10, Blocks: 8}, 0)
}
