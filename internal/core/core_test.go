package core

import (
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
	// simulator's allocation per request: 168 B on a 64-bit platform,
	// which the allocator rounds to its 176 B class. Ref lives in the
	// padding after Class and must not grow it.
	if unsafe.Sizeof(uintptr(0)) != 8 {
		t.Skip("sizes are pinned for 64-bit platforms")
	}
	if got := unsafe.Sizeof(Request{}); got != 168 {
		t.Errorf("unsafe.Sizeof(Request{}) = %d, want 168", got)
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
