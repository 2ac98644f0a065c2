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
}

var (
	_ Device        = (*ManagedDevice)(nil)
	_ RecoveryModel = (*ManagedDevice)(nil)
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
func (m *ManagedDevice) remap(req *Request) *Request {
	start := m.layout.Map(req.LBN)
	if req.Blocks > 1 {
		end := m.layout.Map(req.LBN + int64(req.Blocks) - 1)
		if end != start+int64(req.Blocks)-1 {
			panic(fmt.Sprintf("core: layout %s split extent [%d,%d): maps to %d..%d",
				m.layout.Name(), req.LBN, req.LBN+int64(req.Blocks), start, end))
		}
	}
	r := *req
	r.LBN = start
	return &r
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
