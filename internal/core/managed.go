package core

import "fmt"

// ManagedDevice composes a device with an OS-level block layout: requests
// are remapped through the layout before reaching the device, which is
// how the data-placement schemes of §5 interpose on a file system's block
// address stream.
//
// The layout must preserve the contiguity of any extent actually
// requested (all shipped layouts remap extents, not individual blocks);
// ManagedDevice verifies this per request and panics on violations, which
// indicate a broken layout rather than a runtime condition.
type ManagedDevice struct {
	inner  Device
	layout Layout
	// remapped is the request remap hands to the inner device, reused so
	// remapping does not allocate. Devices are single-threaded, and no
	// device keeps a request pointer past the call it was passed to.
	remapped Request
}

var (
	_ Device        = (*ManagedDevice)(nil)
	_ RecoveryModel = (*ManagedDevice)(nil)
	_ LowerBounder  = (*ManagedDevice)(nil)
)

// NewManagedDevice wraps inner with the given layout; a nil layout means
// identity.
func NewManagedDevice(inner Device, l Layout) *ManagedDevice {
	if l == nil {
		l = IdentityLayout{}
	}
	return &ManagedDevice{inner: inner, layout: l}
}

// Name implements Device.
func (m *ManagedDevice) Name() string {
	return fmt.Sprintf("%s/%s", m.inner.Name(), m.layout.Name())
}

// Capacity implements Device.
func (m *ManagedDevice) Capacity() int64 { return m.inner.Capacity() }

// SectorSize implements Device.
func (m *ManagedDevice) SectorSize() int { return m.inner.SectorSize() }

// Reset implements Device.
func (m *ManagedDevice) Reset() { m.inner.Reset() }

// remap translates req through the layout, checking extent contiguity.
// The result is valid until the next remap.
func (m *ManagedDevice) remap(req *Request) *Request {
	start := m.layout.Map(req.LBN)
	if req.Blocks > 1 {
		end := m.layout.Map(req.LBN + int64(req.Blocks) - 1)
		if end != start+int64(req.Blocks)-1 {
			panic(fmt.Sprintf("core: layout %s split extent [%d,%d): maps to %d..%d",
				m.layout.Name(), req.LBN, req.LBN+int64(req.Blocks), start, end))
		}
	}
	m.remapped = *req
	m.remapped.LBN = start
	return &m.remapped
}

// Access implements Device.
func (m *ManagedDevice) Access(req *Request, now float64) float64 {
	return m.inner.Access(m.remap(req), now)
}

// EstimateAccess implements Device.
func (m *ManagedDevice) EstimateAccess(req *Request, now float64) float64 {
	return m.inner.EstimateAccess(m.remap(req), now)
}

// EstimateBreakdown implements BreakdownEstimator by remapping the
// request and delegating, mirroring EstimateAccess. When the inner
// device cannot decompose, the scalar-fallback convention of the
// package-level EstimateBreakdown applies.
func (m *ManagedDevice) EstimateBreakdown(req *Request, now float64) Breakdown {
	return EstimateBreakdown(m.inner, m.remap(req), now)
}

// BoundKey implements LowerBounder by remapping the request and
// delegating, mirroring EstimateAccess: the key describes where the
// request lands, which is why the layout must not change while the
// request waits. Over an inner device with no bound it returns the zero
// key.
func (m *ManagedDevice) BoundKey(req *Request) BoundKey {
	if lb, ok := m.inner.(LowerBounder); ok {
		return lb.BoundKey(m.remap(req))
	}
	return BoundKey{}
}

// LowerBounds implements LowerBounder by delegation; the keys already
// hold the remapped positions. Over an inner device with no bound every
// bound is 0, which bounds every estimate: service times are never
// negative.
func (m *ManagedDevice) LowerBounds(keys []BoundKey, now float64, out []float64) {
	if lb, ok := m.inner.(LowerBounder); ok {
		lb.LowerBounds(keys, now, out)
		return
	}
	clear(out[:len(keys)])
}

// KeyCyl implements LowerBounder by delegation; over an inner device
// with no bound every key is the zero key, at cylinder 0.
func (m *ManagedDevice) KeyCyl() int32 {
	if lb, ok := m.inner.(LowerBounder); ok {
		return lb.KeyCyl()
	}
	return 0
}

// Floor implements LowerBounder by delegation, or 0 like LowerBounds.
func (m *ManagedDevice) Floor(c int32, now float64) float64 {
	if lb, ok := m.inner.(LowerBounder); ok {
		return lb.Floor(c, now)
	}
	return 0
}

// ErrorPenalty implements RecoveryModel by remapping the request and
// delegating, mirroring EstimateAccess.
func (m *ManagedDevice) ErrorPenalty(req *Request, now, u float64) (float64, bool) {
	if rm, ok := m.inner.(RecoveryModel); ok {
		return rm.ErrorPenalty(m.remap(req), now, u)
	}
	return 0, false
}

// LastBreakdown implements BreakdownReporter by delegation: remapping
// changes where a request lands, not how its service decomposes.
func (m *ManagedDevice) LastBreakdown() (Breakdown, bool) {
	if br, ok := m.inner.(BreakdownReporter); ok {
		return br.LastBreakdown()
	}
	return Breakdown{}, false
}
