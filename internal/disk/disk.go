// Package disk implements a conventional disk-drive performance model in
// the style of DiskSim's validated modules, parameterized by default to
// resemble the Quantum Atlas 10K that the paper uses as its reference
// drive (§3, [Qua99]).
//
// The model captures the mechanics that matter to the paper's
// comparisons: a distance-dependent seek curve, free-running rotation (so
// rotational latency is a function of absolute simulated time), zoned
// (banded) recording with more sectors on outer tracks, head-switch costs,
// and track/cylinder skew for sequential access.
package disk

import (
	"fmt"
	"math"

	"memsim/internal/core"
	"memsim/internal/fault"
)

// Config parameterizes the drive. Use Atlas10K for the paper's reference
// configuration.
type Config struct {
	// Cylinders and Surfaces define the physical geometry.
	Cylinders, Surfaces int
	// RPM is the spindle speed.
	RPM float64
	// Zones is the number of recording bands; sectors per track varies
	// linearly from SPTOuter (zone 0, outermost) to SPTInner.
	Zones              int
	SPTOuter, SPTInner int
	// SectorSize is the logical block size in bytes.
	SectorSize int

	// Seek curve anchors (ms): a single-cylinder seek, the seek over one
	// third of the stroke (the conventional "average"), and a full-stroke
	// seek. The curve is √distance up to a knee, linear beyond — the
	// standard shape of modern drives (Worthington et al.).
	SeekSingle, SeekAvg, SeekMax float64

	// HeadSwitch is the time to switch active surfaces (ms).
	HeadSwitch float64
	// WriteSettle is the additional settle charged on seeks for writes
	// (write seeks average ~0.5 ms longer on the Atlas 10K).
	WriteSettle float64
	// Overhead is the fixed per-request command processing time (ms).
	Overhead float64
}

// Atlas10K returns a configuration resembling the Quantum Atlas 10K
// (9.1 GB version): 10 025 RPM, 10 042 cylinders, 6 surfaces, 24 zones
// from 334 to 229 sectors per track. Streaming bandwidth spans
// 28.6–19.6 MB/s and the longest track holds 334 sectors, matching the
// figures the paper quotes (§5.2, Table 2).
func Atlas10K() Config {
	return Config{
		Cylinders:   10042,
		Surfaces:    6,
		RPM:         10025,
		Zones:       24,
		SPTOuter:    334,
		SPTInner:    229,
		SectorSize:  512,
		SeekSingle:  1.0,
		SeekAvg:     5.0,
		SeekMax:     10.5,
		HeadSwitch:  0.8,
		WriteSettle: 0.5,
		Overhead:    0.3,
	}
}

// zone describes one recording band.
type zone struct {
	firstCyl, cyls int
	spt            int
	startLBN       int64 // first LBN in the zone
	trackSkew      int   // sectors skewed per head switch
	cylSkew        int   // sectors skewed per cylinder switch
}

// Device is the disk model; it implements core.Device.
type Device struct {
	cfg    Config
	zones  []zone
	total  int64
	period float64 // ms per revolution

	// seek curve coefficients: a1 + b1·√d below knee, a2 + b2·d above.
	knee           int
	a1, b1, a2, b2 float64

	// mechanical state: rotation is implied by absolute time.
	cyl, head int

	last    core.Breakdown
	hasLast bool
}

var (
	_ core.Device            = (*Device)(nil)
	_ core.BreakdownReporter = (*Device)(nil)
)

// NewDevice validates cfg and builds the drive model.
func NewDevice(cfg Config) (*Device, error) {
	switch {
	case cfg.Cylinders <= 1 || cfg.Surfaces <= 0:
		return nil, fmt.Errorf("disk: geometry must be positive (cyl=%d surf=%d)", cfg.Cylinders, cfg.Surfaces)
	case cfg.RPM <= 0:
		return nil, fmt.Errorf("disk: RPM must be positive")
	case cfg.Zones <= 0 || cfg.Zones > cfg.Cylinders:
		return nil, fmt.Errorf("disk: zone count %d out of range", cfg.Zones)
	case cfg.SPTInner <= 0 || cfg.SPTOuter < cfg.SPTInner:
		return nil, fmt.Errorf("disk: sectors per track must satisfy 0 < inner ≤ outer")
	case cfg.SectorSize <= 0:
		return nil, fmt.Errorf("disk: sector size must be positive")
	case cfg.SeekSingle <= 0 || cfg.SeekAvg < cfg.SeekSingle || cfg.SeekMax < cfg.SeekAvg:
		return nil, fmt.Errorf("disk: seek anchors must satisfy 0 < single ≤ avg ≤ max")
	case cfg.HeadSwitch < 0 || cfg.WriteSettle < 0 || cfg.Overhead < 0:
		return nil, fmt.Errorf("disk: overheads must be non-negative")
	}
	d := &Device{cfg: cfg, period: 60000 / cfg.RPM}
	d.buildSeekCurve()
	d.buildZones()
	return d, nil
}

// MustDevice is NewDevice for known-good configurations; it panics on
// error.
func MustDevice(cfg Config) *Device {
	d, err := NewDevice(cfg)
	if err != nil {
		panic(err)
	}
	return d
}

func (d *Device) buildSeekCurve() {
	c := d.cfg
	third := float64(c.Cylinders) / 3
	full := float64(c.Cylinders - 1)
	// Linear regime through the 1/3-stroke and full-stroke anchors.
	d.b2 = (c.SeekMax - c.SeekAvg) / (full - third)
	d.a2 = c.SeekAvg - d.b2*third
	// √d regime through the single-cylinder anchor, continuous at the knee.
	d.knee = c.Cylinders / 10
	if d.knee < 2 {
		d.knee = 2
	}
	atKnee := d.a2 + d.b2*float64(d.knee)
	d.b1 = (atKnee - c.SeekSingle) / (math.Sqrt(float64(d.knee)) - 1)
	d.a1 = c.SeekSingle - d.b1
}

func (d *Device) buildZones() {
	c := d.cfg
	d.zones = make([]zone, c.Zones)
	base := c.Cylinders / c.Zones
	extra := c.Cylinders % c.Zones
	cylAt := 0
	var lbn int64
	for z := range d.zones {
		cyls := base
		if z < extra {
			cyls++
		}
		spt := c.SPTOuter
		if c.Zones > 1 {
			spt = c.SPTOuter - int(math.Round(float64(c.SPTOuter-c.SPTInner)*float64(z)/float64(c.Zones-1)))
		}
		sectorTime := d.period / float64(spt)
		zn := zone{
			firstCyl:  cylAt,
			cyls:      cyls,
			spt:       spt,
			startLBN:  lbn,
			trackSkew: int(math.Ceil(c.HeadSwitch/sectorTime)) % spt,
			cylSkew:   int(math.Ceil((c.SeekSingle+c.HeadSwitch)/sectorTime)) % spt,
		}
		d.zones[z] = zn
		cylAt += cyls
		lbn += int64(cyls) * int64(c.Surfaces) * int64(spt)
	}
	d.total = lbn
}

// Name implements core.Device.
func (d *Device) Name() string { return "Atlas10K" }

// Capacity implements core.Device.
func (d *Device) Capacity() int64 { return d.total }

// SectorSize implements core.Device.
func (d *Device) SectorSize() int { return d.cfg.SectorSize }

// Reset implements core.Device: heads park over the middle cylinder.
func (d *Device) Reset() {
	d.cyl, d.head = d.cfg.Cylinders/2, 0
	d.last, d.hasLast = core.Breakdown{}, false
}

// RotationPeriod returns the time of one revolution in ms.
func (d *Device) RotationPeriod() float64 { return d.period }

// SeekTime returns the seek time in ms for a move of dist cylinders
// (dist ≥ 0); zero distance is free.
func (d *Device) SeekTime(dist int) float64 {
	switch {
	case dist <= 0:
		return 0
	case dist < d.knee:
		return d.a1 + d.b1*math.Sqrt(float64(dist))
	default:
		return d.a2 + d.b2*float64(dist)
	}
}

// zoneOf returns the zone containing lbn.
func (d *Device) zoneOf(lbn int64) *zone {
	// Binary search over startLBN.
	lo, hi := 0, len(d.zones)-1
	for lo < hi {
		mid := (lo + hi + 1) / 2
		if d.zones[mid].startLBN <= lbn {
			lo = mid
		} else {
			hi = mid - 1
		}
	}
	return &d.zones[lo]
}

// Locate maps an LBN to physical coordinates.
func (d *Device) Locate(lbn int64) (cyl, head, sector int) {
	if lbn < 0 || lbn >= d.total {
		panic(fmt.Sprintf("disk: LBN %d outside device (capacity %d)", lbn, d.total))
	}
	z := d.zoneOf(lbn)
	off := lbn - z.startLBN
	perCyl := int64(d.cfg.Surfaces) * int64(z.spt)
	cyl = z.firstCyl + int(off/perCyl)
	rem := off % perCyl
	head = int(rem / int64(z.spt))
	sector = int(rem % int64(z.spt))
	return cyl, head, sector
}

// angleOf returns the angular position (fraction of a revolution) at
// which logical sector s of (cyl, head) begins, accounting for track and
// cylinder skew within the zone.
func (d *Device) angleOf(z *zone, cyl, head, s int) float64 {
	skew := ((cyl-z.firstCyl)*z.cylSkew + head*z.trackSkew) % z.spt
	return float64((s+skew)%z.spt) / float64(z.spt)
}

// rotFrac returns the fraction of a revolution completed at absolute time
// now. For finite x = now/period > 0 the fractional part of a double is
// exact, so x − Floor(x) is math.Mod(x, 1) bit for bit, at a fraction
// of its cost; zero, negative and non-finite x keep the Mod path, where
// x − Floor(x) would turn −0 into +0 or Inf into a different NaN.
func (d *Device) rotFrac(now float64) float64 {
	x := now / d.period
	if x > 0 && x <= math.MaxFloat64 {
		return x - math.Floor(x)
	}
	f := math.Mod(x, 1)
	if f < 0 {
		f += 1
	}
	return f
}

// Access implements core.Device.
func (d *Device) Access(req *core.Request, now float64) float64 {
	bd, cyl, head := d.access(req, now)
	d.cyl, d.head = cyl, head
	d.last, d.hasLast = bd, true
	return bd.ServiceMs
}

// EstimateAccess implements core.Device.
func (d *Device) EstimateAccess(req *core.Request, now float64) float64 {
	bd, _, _ := d.access(req, now)
	return bd.ServiceMs
}

// LastBreakdown implements core.BreakdownReporter: the phase
// decomposition of the most recent Access.
func (d *Device) LastBreakdown() (core.Breakdown, bool) { return d.last, d.hasLast }

// EstimateBreakdown implements core.BreakdownEstimator.
func (d *Device) EstimateBreakdown(req *core.Request, now float64) core.Breakdown {
	bd, _, _ := d.access(req, now)
	return bd
}

// access walks the request's track segments and returns the phase
// breakdown plus the final head position. The completion time `t`
// accumulates in the model's historical operation order (rotational
// latency is a function of the running time), so ServiceMs is
// bit-identical to the pre-decomposition model; the phase fields record
// the same component values and reconcile with ServiceMs up to
// floating-point re-association.
//
// Attribution: Seek is the cylinder seek, Settle the write settle plus
// rotational latency (the "rotate" of settle/rotate), Turnaround the
// head-switch time.
func (d *Device) access(req *core.Request, now float64) (bd core.Breakdown, cyl, head int) {
	if req.Blocks <= 0 {
		panic(fmt.Sprintf("disk: request with %d blocks", req.Blocks))
	}
	if req.LBN < 0 || req.LBN+int64(req.Blocks) > d.total {
		panic(fmt.Sprintf("disk: request [%d,%d) outside device capacity %d",
			req.LBN, req.LBN+int64(req.Blocks), d.total))
	}
	bd.Overhead = d.cfg.Overhead
	t := now + d.cfg.Overhead
	cyl, head = d.cyl, d.head
	lbn := req.LBN
	remaining := req.Blocks
	for remaining > 0 {
		c, h, s := d.Locate(lbn)
		z := d.zoneOf(lbn)
		n := remaining
		if left := z.spt - s; n > left {
			n = left
		}
		// Positioning: seek dominates and includes any head switch; a
		// pure head switch costs HeadSwitch.
		switch {
		case c != cyl:
			seek := d.SeekTime(abs(c - cyl))
			t += seek
			bd.Seek += seek
			if req.Op == core.Write {
				t += d.cfg.WriteSettle
				bd.Settle += d.cfg.WriteSettle
			}
		case h != head:
			t += d.cfg.HeadSwitch
			bd.Turnaround += d.cfg.HeadSwitch
		}
		// Rotational latency until the first sector arrives.
		start := d.angleOf(z, c, h, s)
		lat := start - d.rotFrac(t)
		if lat < 0 {
			lat += 1
		}
		rot := lat * d.period
		t += rot
		bd.Settle += rot
		// Media transfer.
		xfer := float64(n) * d.period / float64(z.spt)
		t += xfer
		bd.Transfer += xfer
		bd.Segments++
		cyl, head = c, h
		lbn += int64(n)
		remaining -= n
	}
	bd.ServiceMs = t - now
	return bd, cyl, head
}

// ErrorPenalty implements core.RecoveryModel with the §6.1.3 disk
// model: recovering from a transient seek error costs a short re-seek
// (a single-cylinder move) plus the rotational delay for the target
// sector to come around again — u ∈ [0,1) selects where in the rotation
// the retry lands, so the expected penalty includes half a revolution.
// This rotational re-miss is exactly the term the MEMS device does not
// pay.
func (d *Device) ErrorPenalty(_ *core.Request, _ float64, u float64) (float64, bool) {
	if u < 0 {
		u = 0
	} else if u >= 1 {
		u = math.Nextafter(1, 0)
	}
	pen, err := fault.DiskSeekErrorPenalty(d.SeekTime(1), d.period, u)
	if err != nil {
		// Unreachable: u was clamped into [0,1).
		panic(err)
	}
	return pen, true
}

// State returns the current cylinder and head (rotation is a function of
// absolute time).
func (d *Device) State() (cyl, head int) { return d.cyl, d.head }

// SetState forces the head position; experiments use it for
// position-dependent measurements.
func (d *Device) SetState(cyl, head int) {
	if cyl < 0 || cyl >= d.cfg.Cylinders || head < 0 || head >= d.cfg.Surfaces {
		panic(fmt.Sprintf("disk: SetState out of range: cyl=%d head=%d", cyl, head))
	}
	d.cyl, d.head = cyl, head
}

// Cylinders returns the cylinder count (used by layouts).
func (d *Device) Cylinders() int { return d.cfg.Cylinders }

// ZoneSPT reports the sectors per track of the zone containing lbn; the
// layout experiments use it to reason about streaming bandwidth.
func (d *Device) ZoneSPT(lbn int64) int { return d.zoneOf(lbn).spt }

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}
