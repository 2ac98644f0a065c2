package mems

import (
	"fmt"
	"math"
	"sync"

	"memsim/internal/core"
	"memsim/internal/fault"
	"memsim/internal/physics"
)

// state is the sled's mechanical state between requests.
type state struct {
	cyl  int     // cylinder currently under the tips
	yB   float64 // Y bit-boundary coordinate in [0, BitsY]
	vdir int     // Y velocity direction: −1, 0, +1 (times AccessSpeed)
	// yRow is the row boundary yB sits on after a segment ended there at
	// ±AccessSpeed, so the next Y seeks come from the device's
	// ySeekTable; −1 (park, SetState) means solve them.
	yRow int
}

// Device is the MEMS-based storage device model. It implements
// core.Device. Access and EstimateAccess are deterministic functions of
// the device's mechanical state and the request, per the model of §2–§3.
type Device struct {
	geo  *Geometry
	sled *physics.Sled
	ytab *ySeekTable
	st   state

	last    core.Breakdown
	hasLast bool

	// memo holds the full estimates made from st since it last changed,
	// in a ring: memo[i%memoSize] for i < memoN. A scheduler prices the
	// request it dispatches just before Access services it, so Access
	// looks here before it solves.
	memo  [memoSize]memoEntry
	memoN int
}

// memoSize is how many estimates the memo keeps. SPTF prices about two
// or three candidates in full per dispatch, the winner among them.
const memoSize = 4

// memoEntry is one full estimate: access's result for the request
// (lbn, blocks) from the device's current state. It holds values only,
// never the request, whose owner may reuse it.
type memoEntry struct {
	lbn    int64
	blocks int
	bd     core.Breakdown
	next   state
}

var (
	_ core.Device            = (*Device)(nil)
	_ core.BreakdownReporter = (*Device)(nil)
	_ core.LowerBounder      = (*Device)(nil)
)

// NewDevice builds a device from cfg, validating the geometry.
func NewDevice(cfg Config) (*Device, error) {
	g, err := NewGeometry(cfg)
	if err != nil {
		return nil, err
	}
	sled := g.Sled()
	d := &Device{geo: g, sled: sled, ytab: sharedYSeekTable(g, sled)}
	d.Reset()
	return d, nil
}

// MustDevice is NewDevice for known-good configurations; it panics on
// error and exists for tests and examples.
func MustDevice(cfg Config) *Device {
	d, err := NewDevice(cfg)
	if err != nil {
		panic(err)
	}
	return d
}

// Geometry exposes the derived geometry (shared with layouts and
// experiments).
func (d *Device) Geometry() *Geometry { return d.geo }

// Name implements core.Device.
func (d *Device) Name() string { return "MEMS" }

// Capacity implements core.Device.
func (d *Device) Capacity() int64 { return d.geo.TotalSectors }

// SectorSize implements core.Device.
func (d *Device) SectorSize() int { return d.geo.SectorSize }

// Reset implements core.Device: the sled parks at the center, at rest.
func (d *Device) Reset() {
	d.st = state{cyl: d.geo.Cylinders / 2, yB: float64(d.geo.BitsY) / 2, vdir: 0, yRow: -1}
	d.last, d.hasLast = core.Breakdown{}, false
	d.memoN = 0
}

// Access implements core.Device. The now parameter is unused: unlike a
// disk, the device has no free-running rotation, so service time does not
// depend on absolute time (§2.4.8).
func (d *Device) Access(req *core.Request, _ float64) float64 {
	if e := d.memoized(req); e != nil {
		d.last, d.st = e.bd, e.next
	} else {
		d.st = d.access(d.st, req, &d.last)
	}
	d.memoN, d.hasLast = 0, true
	return d.last.ServiceMs
}

// EstimateAccess implements core.Device.
func (d *Device) EstimateAccess(req *core.Request, _ float64) float64 {
	return d.estimate(req).bd.ServiceMs
}

// LastBreakdown implements core.BreakdownReporter: the phase
// decomposition of the most recent Access.
func (d *Device) LastBreakdown() (core.Breakdown, bool) { return d.last, d.hasLast }

// EstimateBreakdown implements core.BreakdownEstimator. Like Access, it
// ignores absolute time: the sled has no free-running rotation.
func (d *Device) EstimateBreakdown(req *core.Request, _ float64) core.Breakdown {
	return d.estimate(req).bd
}

// memoized returns the memo's entry for req, or nil if it holds none.
// access is a pure function of the state, req.LBN, req.Blocks and the
// device's immutable geometry, sled and Y table, so a hit is exactly
// what access would return now.
func (d *Device) memoized(req *core.Request) *memoEntry {
	for i := range min(d.memoN, memoSize) {
		if e := &d.memo[i]; e.lbn == req.LBN && e.blocks == req.Blocks {
			return e
		}
	}
	return nil
}

// estimate prices req from the current state, through the memo, and
// leaves the result there for the Access that may follow. The entry is
// valid until the memo next changes; callers copy what they keep.
func (d *Device) estimate(req *core.Request) *memoEntry {
	if e := d.memoized(req); e != nil {
		return e
	}
	// Key the entry only after access, which panics on a bad request
	// before it writes anything.
	e := &d.memo[d.memoN%memoSize]
	e.next = d.access(d.st, req, &e.bd)
	e.lbn, e.blocks = req.LBN, req.Blocks
	d.memoN++
	return e
}

// access computes the service of req from state st. Requests are split
// into track spans ("segments"); each segment is swept in whichever Y
// direction positions faster — tips access the media in the ±Y direction
// (§2.2, Fig. 3), which is also what lets read-modify-write sequences pay
// only a turnaround (§6.2).
//
// Phase attribution: per segment the positioning time is
// max(X seek + settle, Y seek) — the axes proceed in parallel (§2.4.1),
// so the lesser is hidden by the greater. When the X path dominates, the
// segment charges Seek (the raw X seek) and Settle; when the Y path
// dominates it charges only Seek (Y seeks have no settle and fold any
// turnaround into the spring-limited trajectory). ServiceMs accumulates
// in the historical operation order, so totals are bit-identical to the
// pre-decomposition model. The breakdown is written through bd, so the
// caller's copy (the memo entry or the device's last breakdown) is the
// only one.
func (d *Device) access(st state, req *core.Request, bd *core.Breakdown) state {
	g := d.geo
	g.checkRequest(req)
	*bd = core.Breakdown{Overhead: g.Overhead}
	positioning := 0.0
	lbn := req.LBN
	remaining := req.Blocks
	for remaining > 0 {
		cyl, row, rowHi, n := g.segment(lbn, remaining)
		tb := float64(g.TipSectorBits)
		// X positioning (with settle) happens once per cylinder change.
		tx, xs := 0.0, 0.0
		if cyl != st.cyl {
			xs = d.sled.SeekTime(g.XPos(st.cyl), 0, g.XPos(cyl), 0) * 1e3
			tx = xs + g.SettleMs
		}
		// Forward sweep: start at the top boundary of the first row
		// moving +Y; reverse sweep: start at the bottom boundary of the
		// last row moving −Y.
		var tyF, tyR float64
		if st.yRow >= 0 {
			tyF, tyR = d.ytab.seeks(st.yRow, st.vdir, row, rowHi+1)
		} else {
			tyF = seekY(d.sled, g, st.yB, st.vdir, float64(row)*tb, 1)
			tyR = seekY(d.sled, g, st.yB, st.vdir, float64(rowHi+1)*tb, -1)
		}
		ty, dir, endRow := tyF, 1, rowHi+1
		if tyR < tyF {
			ty, dir, endRow = tyR, -1, row
		}
		pos := tx
		if ty > pos {
			pos = ty
		}
		if tx >= ty {
			// X path dominates (only possible after a cylinder change,
			// else tx = 0 ≥ ty means both are free).
			bd.Seek += xs
			if tx > 0 {
				bd.Settle += g.SettleMs
			}
		} else {
			bd.Seek += ty
		}
		positioning += pos
		bd.SeekX += tx
		bd.SeekY += ty
		bd.Transfer += float64(rowHi-row+1) * g.RowTimeMs
		bd.Segments++

		st = state{cyl: cyl, yB: float64(endRow) * tb, vdir: dir, yRow: endRow}
		lbn += int64(n)
		remaining -= n
	}
	bd.ServiceMs = positioning + bd.Transfer + bd.Overhead
	return st
}

// checkRequest panics on a request that is empty or reaches outside the
// device.
func (g *Geometry) checkRequest(req *core.Request) {
	if req.Blocks <= 0 {
		panic(fmt.Sprintf("mems: request with %d blocks", req.Blocks))
	}
	if req.LBN < 0 || req.LBN+int64(req.Blocks) > g.TotalSectors {
		panic(fmt.Sprintf("mems: request [%d,%d) outside device capacity %d",
			req.LBN, req.LBN+int64(req.Blocks), g.TotalSectors))
	}
}

// segment returns the track span a request's remaining sectors start
// with at lbn: its cylinder, its first and last rows, and the n sectors
// it covers. access and BoundKey both split requests here, so
// their segments cannot drift apart. The track within the cylinder
// selects the active tips, not the sled position, so it is dropped.
func (g *Geometry) segment(lbn int64, remaining int) (cyl, row, rowHi, n int) {
	cyl, _, row, slot := g.Decompose(lbn)
	first := row*g.SectorsPerRow + slot
	// Sectors left in this track from (row, slot).
	n = min(remaining, g.SectorsPerTrack-first)
	return cyl, row, (first + n - 1) / g.SectorsPerRow, n
}

// BoundKey implements core.LowerBounder. It walks the segments of
// access once and keeps what does not depend on the sled: the first
// segment's cylinder, first row and end row boundary (rowHi+1), and the
// per-segment transfer terms summed exactly as access sums them, in
// the same order. The overhead stays out of Fixed: LowerBound adds it
// last, as access does, since folding it in first would re-associate
// the sum and could lift the bound above the estimate by an ulp.
func (d *Device) BoundKey(req *core.Request) core.BoundKey {
	g := d.geo
	g.checkRequest(req)
	var k core.BoundKey
	lbn := req.LBN
	remaining := req.Blocks
	for first := true; remaining > 0; first = false {
		cyl, row, rowHi, n := g.segment(lbn, remaining)
		if first {
			k.Cyl, k.Row, k.EndRow = int32(cyl), int32(row), int32(rowHi+1)
		}
		k.Fixed += float64(rowHi-row+1) * g.RowTimeMs
		lbn += int64(n)
		remaining -= n
	}
	return k
}

// LowerBound implements core.LowerBounder: the key's transfer and the
// overhead, plus a bound on positioning — nothing for the later
// segments, and max(X bound, Y bound) for the first.
//
// The X bound is the rest-to-rest seek of a sled whose acceleration
// never exceeds Accel·(1+SpringFactor) — the actuator plus the spring
// at full displacement, the most either can pull — scaled down by
// 1e-9 so float rounding cannot lift it above the solved seek (at
// spring 0 the two are the same expression), plus the settle. The Y
// bound is the exact Y seek from the row-boundary table, or 0 when the
// sled is off the grid. Each term is ≤ its counterpart in access, the
// sum (positioning + transfer) + overhead is taken in access's order,
// and float addition is monotone, so the bound is ≤ EstimateAccess bit
// for bit.
func (d *Device) LowerBound(k *core.BoundKey, _ float64) float64 {
	g := d.geo
	tx := 0.0
	if cyl := int(k.Cyl); cyl != d.st.cyl {
		dx := math.Abs(g.XPos(cyl) - g.XPos(d.st.cyl))
		tx = 2*math.Sqrt(dx/((1+g.SpringFactor)*g.SledAccel))*1e3*(1-1e-9) + g.SettleMs
	}
	ty := 0.0
	if d.st.yRow >= 0 {
		tyF, tyR := d.ytab.seeks(d.st.yRow, d.st.vdir, int(k.Row), int(k.EndRow))
		ty = min(tyF, tyR)
	}
	return max(tx, ty) + k.Fixed + g.Overhead
}

// KeyCyl implements core.LowerBounder: keys name their first segment's
// cylinder, so the sled's cylinder is the key cylinder it is on.
func (d *Device) KeyCyl() int32 { return int32(d.st.cyl) }

// Floor implements core.LowerBounder: (tx + one row's transfer) +
// overhead, with tx LowerBound's X bound for cylinder c, written as the
// same expression so it has the same bits. Every key's Fixed is at
// least one row of transfer (its first segment reads at least one
// row), max(tx, ty) ≥ tx, and float addition is monotone, so the floor
// is at most LowerBound for every key on cylinder c, bit for bit. tx
// grows with |XPos(c) − XPos(sled)|, and subtraction, the square root
// and the scaling by positive constants are all monotone, so the floor
// never decreases away from the sled on either side. (LowerBound keeps
// its own copy of the expression: calling a shared helper, even an
// inlined one, made it measurably slower on shallow queues.)
func (d *Device) Floor(c int32, _ float64) float64 {
	g := d.geo
	tx := 0.0
	if cyl := int(c); cyl != d.st.cyl {
		dx := math.Abs(g.XPos(cyl) - g.XPos(d.st.cyl))
		tx = 2*math.Sqrt(dx/((1+g.SpringFactor)*g.SledAccel))*1e3*(1-1e-9) + g.SettleMs
	}
	return (tx + g.RowTimeMs) + g.Overhead
}

// ErrorPenalty implements core.RecoveryModel with the §6.1.3 MEMS
// model: recovering from a transient positioning error costs one or two
// Y turnarounds (u < 0.5 selects one, the expected case) plus a short
// repositioning seek — and nothing more, because the sled's motion is
// fully controlled: there is no free-running rotation to re-miss
// (§2.4.8). The turnaround is priced at the sled's current position and
// velocity, the short seek as a single-cylinder X move.
func (d *Device) ErrorPenalty(_ *core.Request, _ float64, u float64) (float64, bool) {
	turnarounds := 1
	if u >= 0.5 {
		turnarounds = 2
	}
	ta := d.Turnaround(d.st.yB, d.st.vdir)
	to := d.st.cyl + 1
	if to >= d.geo.Cylinders {
		to = d.st.cyl - 1
	}
	pen, err := fault.MEMSSeekErrorPenalty(ta, d.SeekX(d.st.cyl, to), turnarounds)
	if err != nil {
		// Unreachable: turnarounds ∈ {1,2} by construction.
		panic(err)
	}
	return pen, true
}

// SeekX returns the X-dimension seek time in ms between two cylinders
// (rest to rest, including settle when the cylinders differ). Exposed for
// the data-placement experiments (§5).
func (d *Device) SeekX(from, to int) float64 {
	if from == to {
		return 0
	}
	return d.sled.SeekTime(d.geo.XPos(from), 0, d.geo.XPos(to), 0)*1e3 + d.geo.SettleMs
}

// Turnaround returns the time in ms to reverse the sled's Y direction at
// bit boundary b, moving in direction dir before the reversal.
func (d *Device) Turnaround(b float64, dir int) float64 {
	return d.sled.TurnaroundTime(d.geo.YPos(b), float64(dir)*d.geo.AccessSpeed) * 1e3
}

// State returns the current cylinder, Y boundary, and direction; tests
// and experiments use it to verify mechanical behavior.
func (d *Device) State() (cyl int, yB float64, vdir int) {
	return d.st.cyl, d.st.yB, d.st.vdir
}

// SetState forces the mechanical state; experiments use it to measure
// position-dependent costs (e.g. Fig. 9's subregion map).
func (d *Device) SetState(cyl int, yB float64, vdir int) {
	if cyl < 0 || cyl >= d.geo.Cylinders || yB < 0 || yB > float64(d.geo.BitsY) {
		panic(fmt.Sprintf("mems: SetState out of range: cyl=%d yB=%g", cyl, yB))
	}
	d.st, d.memoN = state{cyl: cyl, yB: yB, vdir: vdir, yRow: -1}, 0
}

// seekY is the Y seek time in ms from bit boundary b0 moving at
// vdir0·AccessSpeed to boundary b1 arriving at vdir1·AccessSpeed. It is
// the one expression behind every Y seek, solved or tabulated.
func seekY(s *physics.Sled, g *Geometry, b0 float64, vdir0 int, b1 float64, vdir1 int) float64 {
	return s.SeekTime(g.YPos(b0), float64(vdir0)*g.AccessSpeed,
		g.YPos(b1), float64(vdir1)*g.AccessSpeed) * 1e3
}

// ySeekTable holds seekY exactly, not interpolated, for every pair of
// row boundaries 0..RowsPerTrack, leaving at ±AccessSpeed and arriving
// at ±AccessSpeed. Every segment ends on such a boundary moving at
// access speed (§2.4), so after the first access of a run the Y seeks
// of Access and EstimateAccess are two loads instead of two solves.
type ySeekTable struct {
	n int // row boundaries per tip track: RowsPerTrack+1
	// ms[((i*2+from)*n+j)*2+to] is the seek from boundary i to boundary
	// j, where from and to are 0 for −Y and 1 for +Y.
	ms []float64
}

// seeks returns the forward seek (to boundary fwd arriving +Y) and the
// reverse seek (to boundary rev arriving −Y) from boundary i moving in
// direction vdir.
func (t *ySeekTable) seeks(i, vdir, fwd, rev int) (tyF, tyR float64) {
	base := (i*2 + (vdir+1)/2) * t.n * 2
	return t.ms[base+fwd*2+1], t.ms[base+rev*2]
}

// yMech is everything a ySeekTable's entries depend on: the sled and
// the Y geometry. Configurations that differ only in settle, tips or
// overhead share one table.
type yMech struct {
	sled                       physics.Sled
	bitsY, tipSectorBits, rows int
	bitWidth, accessSpeed      float64
}

// ySeekTables holds one immutable table per yMech for the life of the
// process, so building a device costs a map lookup, not a table.
var ySeekTables = struct {
	sync.Mutex
	m map[yMech]*ySeekTable
}{m: make(map[yMech]*ySeekTable)}

// sharedYSeekTable returns the table for g's Y mechanics, building it on
// first use.
func sharedYSeekTable(g *Geometry, s *physics.Sled) *ySeekTable {
	key := yMech{sled: *s, bitsY: g.BitsY, tipSectorBits: g.TipSectorBits,
		rows: g.RowsPerTrack, bitWidth: g.BitWidth, accessSpeed: g.AccessSpeed}
	ySeekTables.Lock()
	defer ySeekTables.Unlock()
	if t, ok := ySeekTables.m[key]; ok {
		return t
	}
	t := buildYSeekTable(g, s)
	ySeekTables.m[key] = t
	return t
}

// buildYSeekTable evaluates seekY over every boundary pair and direction.
func buildYSeekTable(g *Geometry, s *physics.Sled) *ySeekTable {
	n := g.RowsPerTrack + 1
	tb := float64(g.TipSectorBits)
	t := &ySeekTable{n: n, ms: make([]float64, n*2*n*2)}
	for i := 0; i < n; i++ {
		for from := 0; from < 2; from++ {
			for j := 0; j < n; j++ {
				for to := 0; to < 2; to++ {
					t.ms[((i*2+from)*n+j)*2+to] = seekY(s, g, float64(i)*tb, from*2-1, float64(j)*tb, to*2-1)
				}
			}
		}
	}
	return t
}
