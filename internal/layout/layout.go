// Package layout implements the on-device data-placement schemes of §5 of
// the paper: the simple (linear) layout, the organ-pipe layout that is
// optimal for disks (Vongsathorn & Carson; Ruemmler & Wilkes), and the two
// MEMS-specific bipartite layouts — subregioned (a five-by-five grid of
// sled subregions) and columnar (25 columns of contiguous cylinders).
//
// Two abstractions are provided:
//
//   - Placer: a placement policy for the bipartite small/large workload of
//     §5.3 — it decides where requests of each class land on the device.
//   - CenterOut: the organ-pipe building block that assigns
//     popularity-ranked items to positions spreading outward from the
//     center of an extent.
package layout

import (
	"fmt"
	"math/rand"

	"memsim/internal/mems"
)

// Class distinguishes the two request populations of the §5.3 experiment.
type Class int

const (
	// Small requests are the 4 KB, 89%-of-requests population.
	Small Class = iota
	// Large requests are the 400 KB streaming population.
	Large
)

// String implements fmt.Stringer.
func (c Class) String() string {
	if c == Small {
		return "small"
	}
	return "large"
}

// Placer decides the starting LBN for a request of a given class. Place
// must return an LBN such that [lbn, lbn+blocks) is within the device.
type Placer interface {
	// Name identifies the scheme ("simple", "organ-pipe", "subregioned",
	// "columnar").
	Name() string
	// Place draws a starting LBN for a request of class c spanning
	// blocks sectors, using rng for any randomness.
	Place(rng *rand.Rand, c Class, blocks int) int64
}

// CenterOut assigns items, listed in decreasing popularity rank with the
// given sizes (in blocks), to starting offsets that spread outward from
// the center of an extent of the given capacity: rank 0 at the center,
// rank 1 just above, rank 2 just below, and so on — the organ-pipe
// arrangement. It returns one start offset per item and errors if the
// items exceed the capacity.
func CenterOut(sizes []int64, capacity int64) ([]int64, error) {
	var total int64
	for i, s := range sizes {
		if s <= 0 {
			return nil, fmt.Errorf("layout: item %d has non-positive size %d", i, s)
		}
		total += s
	}
	if total > capacity {
		return nil, fmt.Errorf("layout: items (%d blocks) exceed capacity (%d)", total, capacity)
	}
	// First lay the items out relative to an abstract center: even ranks
	// extend upward from it, odd ranks downward. Then shift the whole
	// block so it fits in [0, capacity); the shift is zero when the two
	// sides are balanced and minimal otherwise.
	rel := make([]int64, len(sizes))
	var above, below int64
	for i, s := range sizes {
		if i%2 == 0 {
			rel[i] = above
			above += s
		} else {
			below += s
			rel[i] = -below
		}
	}
	base := capacity / 2
	if base+above > capacity {
		base = capacity - above
	}
	if base-below < 0 {
		base = below
	}
	starts := make([]int64, len(sizes))
	for i := range sizes {
		starts[i] = base + rel[i]
	}
	return starts, nil
}

// ─── Linear-LBN placers (any device) ────────────────────────────────────

// simple places both classes uniformly over the whole LBN space: the
// "simple" linear layout baseline of Fig. 11.
type simple struct{ capacity int64 }

// NewSimple returns the simple layout baseline for a device of the given
// capacity in sectors.
func NewSimple(capacity int64) Placer { return &simple{capacity} }

func (p *simple) Name() string { return "simple" }

func (p *simple) Place(rng *rand.Rand, _ Class, blocks int) int64 {
	return rng.Int63n(p.capacity - int64(blocks) + 1)
}

// organPipe packs the popular small population into the center of the
// LBN space with the large population to either side — the layout that
// is optimal for disks. On MEMS it uses only the X dimension (the
// centermost cylinders) and knows nothing about the sled's Y dimension,
// which is exactly the deficiency §5.3 identifies.
type organPipe struct {
	capacity int64
	// smallLo/smallHi bound the small population's LBN extent (centered);
	// large occupies the remainder on both sides.
	smallLo, smallHi int64
}

// NewOrganPipe builds an organ-pipe placement for a device of the given
// capacity in sectors, in which the small population occupies smallFrac
// of the capacity at the center.
func NewOrganPipe(capacity int64, smallFrac float64) Placer {
	smallBlocks := int64(smallFrac * float64(capacity))
	mid := capacity / 2
	return &organPipe{capacity: capacity, smallLo: mid - smallBlocks/2, smallHi: mid + smallBlocks/2}
}

func (p *organPipe) Name() string { return "organ-pipe" }

func (p *organPipe) Place(rng *rand.Rand, c Class, blocks int) int64 {
	if c == Small {
		return p.smallLo + rng.Int63n(p.smallHi-p.smallLo-int64(blocks)+1)
	}
	// Large items live on either side of the small core.
	if rng.Intn(2) == 0 && p.smallLo > int64(blocks) {
		return rng.Int63n(p.smallLo - int64(blocks) + 1)
	}
	return p.smallHi + rng.Int63n(p.capacity-p.smallHi-int64(blocks)+1)
}

// ─── MEMS placers ───────────────────────────────────────────────────────

// memsColumnar divides the LBN space into n columns of contiguous
// cylinders; small data lives in the center column, large data in the
// leftmost and rightmost (n−1)/2·... columns (§5.3's "simple columnar
// division of the LBN space into 25 columns").
type memsColumnar struct {
	g       *mems.Geometry
	columns int
}

// NewMEMSColumnar builds the columnar layout with the given column count
// (25 in the paper).
func NewMEMSColumnar(g *mems.Geometry, columns int) Placer {
	if columns < 3 || columns > g.Cylinders {
		panic(fmt.Sprintf("layout: column count %d out of range", columns))
	}
	return &memsColumnar{g: g, columns: columns}
}

func (p *memsColumnar) Name() string { return "columnar" }

// columnCyls returns the cylinder range [lo, hi) of column i.
func (p *memsColumnar) columnCyls(i int) (int, int) {
	per := p.g.Cylinders / p.columns
	lo := i * per
	hi := lo + per
	if i == p.columns-1 {
		hi = p.g.Cylinders
	}
	return lo, hi
}

func (p *memsColumnar) Place(rng *rand.Rand, c Class, blocks int) int64 {
	if c == Small {
		lo, hi := p.columnCyls(p.columns / 2)
		return p.placeInCylinders(rng, lo, hi, blocks)
	}
	// Ten leftmost and ten rightmost columns (for 25 columns); in general
	// the outer 40% on each side.
	outer := p.columns * 2 / 5
	col := rng.Intn(2 * outer)
	if col >= outer {
		col = p.columns - 1 - (col - outer)
	}
	lo, hi := p.columnCyls(col)
	return p.placeInCylinders(rng, lo, hi, blocks)
}

func (p *memsColumnar) placeInCylinders(rng *rand.Rand, loCyl, hiCyl, blocks int) int64 {
	g := p.g
	lo := int64(loCyl) * int64(g.SectorsPerCylinder)
	hi := int64(hiCyl) * int64(g.SectorsPerCylinder)
	if hi > g.TotalSectors {
		hi = g.TotalSectors
	}
	span := hi - lo - int64(blocks) + 1
	if span <= 0 {
		// The request is larger than the band: start at the band and let
		// it flow into subsequent cylinders.
		if lo+int64(blocks) > g.TotalSectors {
			lo = g.TotalSectors - int64(blocks)
		}
		return lo
	}
	return lo + rng.Int63n(span)
}

// memsSubregioned is the five-by-five grid of Fig. 9 used as a layout:
// small data is confined to the centermost subregion — restricting both
// the cylinders (X) *and* the rows within each track (Y) — while large
// data goes to the ten leftmost and ten rightmost subregions (the outer
// two column bands, any row).
type memsSubregioned struct {
	g *mems.Geometry
	n int // grid edge (5)
}

// NewMEMSSubregioned builds the n×n subregioned layout (n = 5 in §5.3).
func NewMEMSSubregioned(g *mems.Geometry, n int) Placer {
	if n < 3 || n > g.RowsPerTrack || n > g.Cylinders {
		panic(fmt.Sprintf("layout: subregion grid %d out of range", n))
	}
	return &memsSubregioned{g: g, n: n}
}

func (p *memsSubregioned) Name() string { return "subregioned" }

// bandRows returns the row range [lo, hi) of Y band j.
func (p *memsSubregioned) bandRows(j int) (int, int) {
	r := p.g.RowsPerTrack
	return j * r / p.n, (j + 1) * r / p.n
}

// bandCyls returns the cylinder range [lo, hi) of X band i.
func (p *memsSubregioned) bandCyls(i int) (int, int) {
	c := p.g.Cylinders
	return i * c / p.n, (i + 1) * c / p.n
}

func (p *memsSubregioned) Place(rng *rand.Rand, c Class, blocks int) int64 {
	g := p.g
	if c == Small {
		// Centermost subregion: center X band, center Y band.
		cLo, cHi := p.bandCyls(p.n / 2)
		rLo, rHi := p.bandRows(p.n / 2)
		// Keep the whole request inside the Y band.
		rowsNeeded := (blocks + g.SectorsPerRow - 1) / g.SectorsPerRow
		maxRow := rHi - rowsNeeded
		if maxRow < rLo {
			maxRow = rLo
		}
		cyl := cLo + rng.Intn(cHi-cLo)
		track := rng.Intn(g.TracksPerCylinder)
		row := rLo + rng.Intn(maxRow-rLo+1)
		return g.LBN(cyl, track, row, 0)
	}
	// Large: outer two X bands on each side, any row; start at a row
	// boundary and flow sequentially.
	band := rng.Intn(4)
	switch band {
	case 2:
		band = p.n - 2
	case 3:
		band = p.n - 1
	}
	cLo, cHi := p.bandCyls(band)
	cyl := cLo + rng.Intn(cHi-cLo)
	track := rng.Intn(g.TracksPerCylinder)
	row := rng.Intn(g.RowsPerTrack)
	lbn := g.LBN(cyl, track, row, 0)
	if lbn+int64(blocks) > g.TotalSectors {
		lbn = g.TotalSectors - int64(blocks)
	}
	return lbn
}
