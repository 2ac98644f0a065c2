package fault

import (
	"fmt"
	"sort"

	"memsim/internal/core"
)

// SlipRemap wraps a device with a disk-style defective-sector remap
// table: each remapped sector is served from a spare location elsewhere
// on the device, breaking the physical sequentiality of logically
// sequential access — the penalty §6.1.1 says MEMS-based storage avoids
// by remapping to the same tip sector on a spare tip.
//
// A request whose extent crosses remapped sectors is split: the
// contiguous healthy runs and each remapped sector are serviced as
// separate sequential accesses, exactly as a disk's firmware must.
type SlipRemap struct {
	inner core.Device
	table map[int64]int64
}

var _ core.Device = (*SlipRemap)(nil)

// NewSlipRemap wraps inner with an empty remap table.
func NewSlipRemap(inner core.Device) *SlipRemap {
	return &SlipRemap{inner: inner, table: make(map[int64]int64)}
}

// Remap redirects logical sector from to physical sector to. Both must
// be on the device; remapping a sector twice overwrites the entry.
func (s *SlipRemap) Remap(from, to int64) {
	if from < 0 || from >= s.inner.Capacity() || to < 0 || to >= s.inner.Capacity() {
		panic(fmt.Sprintf("fault: remap %d→%d outside device capacity %d", from, to, s.inner.Capacity()))
	}
	s.table[from] = to
}

// Remapped reports the number of remapped sectors.
func (s *SlipRemap) Remapped() int { return len(s.table) }

// Name implements core.Device.
func (s *SlipRemap) Name() string { return s.inner.Name() + "+slip" }

// Capacity implements core.Device.
func (s *SlipRemap) Capacity() int64 { return s.inner.Capacity() }

// SectorSize implements core.Device.
func (s *SlipRemap) SectorSize() int { return s.inner.SectorSize() }

// Reset implements core.Device; the remap table persists (defects do not
// heal on reset).
func (s *SlipRemap) Reset() { s.inner.Reset() }

// pieces splits [lbn, lbn+blocks) at remapped sectors. Each piece is a
// physically contiguous access.
func (s *SlipRemap) pieces(lbn int64, blocks int) []core.Request {
	// Collect remapped sectors inside the extent.
	var hit []int64
	for from := range s.table {
		if from >= lbn && from < lbn+int64(blocks) {
			hit = append(hit, from)
		}
	}
	if len(hit) == 0 {
		return []core.Request{{LBN: lbn, Blocks: blocks}}
	}
	sort.Slice(hit, func(i, j int) bool { return hit[i] < hit[j] })
	var out []core.Request
	cur := lbn
	for _, h := range hit {
		if h > cur {
			out = append(out, core.Request{LBN: cur, Blocks: int(h - cur)})
		}
		out = append(out, core.Request{LBN: s.table[h], Blocks: 1})
		cur = h + 1
	}
	if end := lbn + int64(blocks); cur < end {
		out = append(out, core.Request{LBN: cur, Blocks: int(end - cur)})
	}
	return out
}

// Access implements core.Device: split pieces are serviced sequentially,
// each paying its own positioning.
func (s *SlipRemap) Access(req *core.Request, now float64) float64 {
	cur := now
	for _, p := range s.pieces(req.LBN, req.Blocks) {
		p.Op = req.Op
		cur += s.inner.Access(&p, cur)
	}
	return cur - now
}

// EstimateAccess implements core.Device by estimating the request's
// first piece only. That is exact for a request the remap table leaves
// whole, but a request split around a slipped or remapped sector is
// underestimated: the later pieces, with their own positioning, are not
// priced. Pricing them would mean advancing device state piece by piece.
func (s *SlipRemap) EstimateAccess(req *core.Request, now float64) float64 {
	p := s.pieces(req.LBN, req.Blocks)[0]
	p.Op = req.Op
	return s.inner.EstimateAccess(&p, now)
}
