package fault

import (
	"cmp"
	"fmt"
	"slices"
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
// The table is a slice sorted by sector, so an access costs
// O(log n + pieces) for n remapped sectors.
type SlipRemap struct {
	inner core.Device
	// table holds the remap entries, sorted by from with one entry per
	// sector unless dirty: Remap appends, and tidy restores the order.
	table []remapEntry
	dirty bool
	// buf is pieces' reused result.
	buf []core.Request
}

// remapEntry redirects logical sector from to physical sector to.
type remapEntry struct{ from, to int64 }

var _ core.Device = (*SlipRemap)(nil)

// NewSlipRemap wraps inner with an empty remap table.
func NewSlipRemap(inner core.Device) *SlipRemap {
	return &SlipRemap{inner: inner}
}

// Remap redirects logical sector from to physical sector to. Both must
// be on the device; remapping a sector twice overwrites the entry.
func (s *SlipRemap) Remap(from, to int64) {
	if from < 0 || from >= s.inner.Capacity() || to < 0 || to >= s.inner.Capacity() {
		panic(fmt.Sprintf("fault: remap %d→%d outside device capacity %d", from, to, s.inner.Capacity()))
	}
	s.table = append(s.table, remapEntry{from, to})
	s.dirty = true
}

// tidy sorts the table by sector and keeps the last Remap of each one.
func (s *SlipRemap) tidy() {
	if !s.dirty {
		return
	}
	slices.SortStableFunc(s.table, func(a, b remapEntry) int { return cmp.Compare(a.from, b.from) })
	out := s.table[:0]
	for i, e := range s.table {
		if i+1 < len(s.table) && s.table[i+1].from == e.from {
			continue // a later Remap of the same sector wins
		}
		out = append(out, e)
	}
	s.table, s.dirty = out, false
}

// Remapped reports the number of remapped sectors.
func (s *SlipRemap) Remapped() int {
	s.tidy()
	return len(s.table)
}

// Name implements core.Device.
func (s *SlipRemap) Name() string { return s.inner.Name() + "+slip" }

// Capacity implements core.Device.
func (s *SlipRemap) Capacity() int64 { return s.inner.Capacity() }

// SectorSize implements core.Device.
func (s *SlipRemap) SectorSize() int { return s.inner.SectorSize() }

// Reset implements core.Device; the remap table persists (defects do not
// heal on reset).
func (s *SlipRemap) Reset() { s.inner.Reset() }

// pieces splits req's extent [LBN, LBN+Blocks) at remapped sectors. Each
// piece is a physically contiguous access with req's Op. The result is
// valid until the next call.
func (s *SlipRemap) pieces(req *core.Request) []core.Request {
	s.tidy()
	lbn, end := req.LBN, req.LBN+int64(req.Blocks)
	out := s.buf[:0]
	cur := lbn
	i := sort.Search(len(s.table), func(i int) bool { return s.table[i].from >= lbn })
	for ; i < len(s.table) && s.table[i].from < end; i++ {
		e := s.table[i]
		if e.from > cur {
			out = append(out, core.Request{Op: req.Op, LBN: cur, Blocks: int(e.from - cur)})
		}
		out = append(out, core.Request{Op: req.Op, LBN: e.to, Blocks: 1})
		cur = e.from + 1
	}
	if cur < end || len(out) == 0 {
		out = append(out, core.Request{Op: req.Op, LBN: cur, Blocks: int(end - cur)})
	}
	s.buf = out
	return out
}

// Access implements core.Device: split pieces are serviced sequentially,
// each paying its own positioning.
func (s *SlipRemap) Access(req *core.Request, now float64) float64 {
	cur := now
	ps := s.pieces(req)
	for i := range ps {
		cur += s.inner.Access(&ps[i], cur)
	}
	return cur - now
}

// EstimateAccess implements core.Device by estimating the request's
// first piece only. That is exact for a request the remap table leaves
// whole, but a request split around a slipped or remapped sector is
// underestimated: the later pieces, with their own positioning, are not
// priced. Pricing them would mean advancing device state piece by piece.
func (s *SlipRemap) EstimateAccess(req *core.Request, now float64) float64 {
	return s.inner.EstimateAccess(&s.pieces(req)[0], now)
}
