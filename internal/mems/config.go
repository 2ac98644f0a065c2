// Package mems implements the performance model of a MEMS-based storage
// device described in §2–§3 of Griffin et al. (CMU-CS-00-136): a
// spring-mounted magnetic media sled suspended over a two-dimensional
// array of fixed probe tips. The media under each tip is an N×M-bit
// region; the sled seeks in X (selecting a cylinder) and sweeps in Y at
// constant velocity while the active tips transfer data.
//
// Terminology follows the paper's disk-like metaphor (§2.2):
//
//   - tip sector: servo bits + encoded data bits under one tip (the
//     smallest accessible unit, 10 + 80 bits carrying 8 data bytes);
//   - row: the tip sectors at one Y position across all active tips
//     (one logical-sector-row pass of the sled);
//   - logical sector: 512 B striped across 64 tip sectors;
//   - track: the portion of a cylinder accessible by one group of
//     concurrently active tips;
//   - cylinder: everything reachable without moving the sled in X.
package mems

import (
	"fmt"
	"math"

	"memsim/internal/physics"
)

// Config holds the device parameters. The zero value is not usable; start
// from DefaultConfig, which reproduces Table 1 of the paper.
type Config struct {
	// Tips is the total number of probe tips (Table 1: 6400).
	Tips int
	// ActiveTips is the number of simultaneously active tips, limited by
	// power and heat (Table 1: 1280).
	ActiveTips int
	// SpareTips are reserved for fault remapping and excluded from the
	// addressable capacity. Must be a multiple of ActiveTips so whole
	// tracks are reserved. Default 0; the fault-management experiments
	// configure it explicitly.
	SpareTips int

	// BitWidth is the bit cell edge length in meters (Table 1: 40 nm).
	BitWidth float64
	// BitsX is the number of bit columns per tip region = the number of
	// cylinders. BitsY is the number of bits per tip track. Both default
	// to 2500 (100 µm of sled mobility at 40 nm per bit).
	BitsX, BitsY int

	// ServoBits and EncodedBits describe one tip sector: 10 servo bits
	// followed by 80 encoded bits carrying DataBytes (8) of user data.
	ServoBits, EncodedBits, DataBytes int

	// SectorSize is the logical block size in bytes (512).
	SectorSize int

	// PerTipRate is the per-tip read/write rate in bits/s (700 Kbit/s).
	PerTipRate float64

	// SledAccel is the actuator acceleration in m/s² (803.6).
	SledAccel float64
	// SpringFactor is the fraction of SledAccel exerted by the springs at
	// full displacement (0.75).
	SpringFactor float64
	// ResonantHz is the sled resonant frequency (739 Hz); together with
	// SettleConstants it sets the post-X-seek settling delay:
	// settle = SettleConstants / (2π · ResonantHz).
	ResonantHz float64
	// SettleConstants is the number of settling time constants charged
	// after any seek that moves in X (Table 1 default: 1; Fig. 8 studies
	// 0 and 2).
	SettleConstants float64

	// Overhead is a fixed per-request command/controller overhead in ms.
	Overhead float64
}

// DefaultConfig returns the paper's Table 1 parameters.
func DefaultConfig() Config {
	return Config{
		Tips:            6400,
		ActiveTips:      1280,
		BitWidth:        40e-9,
		BitsX:           2500,
		BitsY:           2500,
		ServoBits:       10,
		EncodedBits:     80,
		DataBytes:       8,
		SectorSize:      512,
		PerTipRate:      700e3,
		SledAccel:       803.6,
		SpringFactor:    0.75,
		ResonantHz:      739,
		SettleConstants: 1,
		Overhead:        0.03,
	}
}

// Geometry holds the quantities derived from a Config. It is embedded in
// Device and shared with the layout and experiment packages.
type Geometry struct {
	Config

	// TipSectorBits is servo + encoded bits per tip sector (90).
	TipSectorBits int
	// StripeTips is the number of tips one logical sector is striped
	// across (SectorSize/DataBytes = 64).
	StripeTips int
	// SectorsPerRow is the number of logical sectors transferred in one
	// pass over a row (ActiveTips/StripeTips = 20).
	SectorsPerRow int
	// RowsPerTrack is the number of tip-sector rows along a tip track
	// (⌊BitsY/TipSectorBits⌋ = 27).
	RowsPerTrack int
	// SectorsPerTrack = SectorsPerRow·RowsPerTrack = 540.
	SectorsPerTrack int
	// TracksPerCylinder is the number of active-tip groups
	// ((Tips−SpareTips)/ActiveTips = 5).
	TracksPerCylinder int
	// Cylinders = BitsX = 2500.
	Cylinders int
	// SectorsPerCylinder = SectorsPerTrack·TracksPerCylinder = 2700.
	SectorsPerCylinder int
	// TotalSectors is the addressable capacity in logical blocks.
	TotalSectors int64

	// RowTimeMs is the time for the sled to sweep one tip-sector row at
	// access velocity, in ms (90 bits / 700 Kbit/s = 0.1286 ms).
	RowTimeMs float64
	// AccessSpeed is the constant Y velocity during media transfer, m/s
	// (PerTipRate · BitWidth = 28 mm/s).
	AccessSpeed float64
	// SettleMs is the X settling delay in ms.
	SettleMs float64
	// HalfRange is the sled travel from center to edge, meters.
	HalfRange float64
}

// NewGeometry validates cfg and derives the device geometry.
func NewGeometry(cfg Config) (*Geometry, error) {
	switch {
	case cfg.Tips <= 0 || cfg.ActiveTips <= 0:
		return nil, fmt.Errorf("mems: tips (%d) and active tips (%d) must be positive", cfg.Tips, cfg.ActiveTips)
	case cfg.SpareTips < 0 || cfg.SpareTips >= cfg.Tips:
		return nil, fmt.Errorf("mems: spare tips (%d) out of range", cfg.SpareTips)
	case cfg.SpareTips%cfg.ActiveTips != 0:
		return nil, fmt.Errorf("mems: spare tips (%d) must be a multiple of active tips (%d)", cfg.SpareTips, cfg.ActiveTips)
	case (cfg.Tips-cfg.SpareTips)%cfg.ActiveTips != 0:
		return nil, fmt.Errorf("mems: usable tips (%d) must be a multiple of active tips (%d)", cfg.Tips-cfg.SpareTips, cfg.ActiveTips)
	case cfg.DataBytes <= 0 || cfg.SectorSize%cfg.DataBytes != 0:
		return nil, fmt.Errorf("mems: sector size (%d) must be a multiple of tip-sector data bytes (%d)", cfg.SectorSize, cfg.DataBytes)
	// The float checks are written so that NaN, which compares false
	// against everything, fails them.
	case !positiveFinite(cfg.BitWidth) || cfg.BitsX <= 0 || cfg.BitsY <= 0:
		return nil, fmt.Errorf("mems: bit geometry must be positive")
	case !positiveFinite(cfg.PerTipRate) || !positiveFinite(cfg.SledAccel):
		return nil, fmt.Errorf("mems: rates and accelerations must be positive and finite")
	case !(cfg.SpringFactor >= 0 && cfg.SpringFactor < 1):
		return nil, fmt.Errorf("mems: spring factor %g must be in [0, 1)", cfg.SpringFactor)
	case !(cfg.SettleConstants >= 0) || math.IsInf(cfg.SettleConstants, 1) || !positiveFinite(cfg.ResonantHz):
		return nil, fmt.Errorf("mems: settling parameters out of range (settle constants %g, resonance %g Hz)",
			cfg.SettleConstants, cfg.ResonantHz)
	}
	g := &Geometry{Config: cfg}
	g.TipSectorBits = cfg.ServoBits + cfg.EncodedBits
	g.StripeTips = cfg.SectorSize / cfg.DataBytes
	if cfg.ActiveTips%g.StripeTips != 0 {
		return nil, fmt.Errorf("mems: active tips (%d) must be a multiple of stripe width (%d)", cfg.ActiveTips, g.StripeTips)
	}
	g.SectorsPerRow = cfg.ActiveTips / g.StripeTips
	g.RowsPerTrack = cfg.BitsY / g.TipSectorBits
	if g.RowsPerTrack == 0 {
		return nil, fmt.Errorf("mems: tip track (%d bits) shorter than one tip sector (%d bits)", cfg.BitsY, g.TipSectorBits)
	}
	g.SectorsPerTrack = g.SectorsPerRow * g.RowsPerTrack
	g.TracksPerCylinder = (cfg.Tips - cfg.SpareTips) / cfg.ActiveTips
	g.Cylinders = cfg.BitsX
	g.SectorsPerCylinder = g.SectorsPerTrack * g.TracksPerCylinder
	g.TotalSectors = int64(g.Cylinders) * int64(g.SectorsPerCylinder)
	g.RowTimeMs = float64(g.TipSectorBits) / cfg.PerTipRate * 1e3
	g.AccessSpeed = cfg.PerTipRate * cfg.BitWidth
	g.SettleMs = cfg.SettleConstants / (2 * math.Pi * cfg.ResonantHz) * 1e3
	g.HalfRange = float64(cfg.BitsX) * cfg.BitWidth / 2
	return g, nil
}

// positiveFinite reports whether x is a positive, finite number (false
// for NaN).
func positiveFinite(x float64) bool { return x > 0 && !math.IsInf(x, 1) }

// CapacityBytes returns the addressable capacity in bytes.
func (g *Geometry) CapacityBytes() int64 {
	return g.TotalSectors * int64(g.SectorSize)
}

// StreamBandwidth returns the sustained media bandwidth in bytes/s when
// all active tips stream: ActiveTips · PerTipRate · dataBits/encodedBits.
// With the Table 1 defaults this is 79.6 MB/s, the figure quoted in §5.2.
func (g *Geometry) StreamBandwidth() float64 {
	dataBits := float64(8 * g.DataBytes)
	return float64(g.ActiveTips) * g.PerTipRate * dataBits /
		float64(g.TipSectorBits) / 8
}

// Sled returns the physics model for either sled axis.
func (g *Geometry) Sled() *physics.Sled {
	return physics.NewSled(g.SledAccel, g.SpringFactor, g.HalfRange)
}

// XPos returns the sled X displacement in meters when cylinder cyl is
// under the tips. Cylinder (Cylinders−1)/2 sits near the center.
func (g *Geometry) XPos(cyl int) float64 {
	return (float64(cyl) - float64(g.Cylinders-1)/2) * g.BitWidth
}

// YPos returns the sled Y displacement in meters for a bit *boundary*
// coordinate b ∈ [0, BitsY]. Row r spans boundaries [r·TipSectorBits,
// (r+1)·TipSectorBits].
func (g *Geometry) YPos(b float64) float64 {
	return (b - float64(g.BitsY)/2) * g.BitWidth
}

// LBN composes a logical block number from physical coordinates: cylinder,
// track within cylinder, row within track, and sector slot within the row.
// It panics on out-of-range coordinates (programmer error).
func (g *Geometry) LBN(cyl, track, row, slot int) int64 {
	if cyl < 0 || cyl >= g.Cylinders || track < 0 || track >= g.TracksPerCylinder ||
		row < 0 || row >= g.RowsPerTrack || slot < 0 || slot >= g.SectorsPerRow {
		panic(fmt.Sprintf("mems: coordinates out of range: cyl=%d track=%d row=%d slot=%d", cyl, track, row, slot))
	}
	return int64(cyl)*int64(g.SectorsPerCylinder) +
		int64(track)*int64(g.SectorsPerTrack) +
		int64(row)*int64(g.SectorsPerRow) + int64(slot)
}

// TipsForSector returns the probe tips that service logical sector lbn:
// the StripeTips consecutive tips of the sector's track group selected
// by its slot within the row. This is the bridge between the timing
// geometry and the redundancy structure in internal/fault — a failed tip
// affects exactly the sectors this function maps it to, and a spare tip
// substitutes at the same positions.
func (g *Geometry) TipsForSector(lbn int64) []int {
	_, track, _, slot := g.Decompose(lbn)
	base := track*g.ActiveTips + slot*g.StripeTips
	tips := make([]int, g.StripeTips)
	for i := range tips {
		tips[i] = base + i
	}
	return tips
}

// Decompose inverts LBN. It panics when lbn is outside the device.
func (g *Geometry) Decompose(lbn int64) (cyl, track, row, slot int) {
	if lbn < 0 || lbn >= g.TotalSectors {
		panic(fmt.Sprintf("mems: LBN %d outside device (capacity %d)", lbn, g.TotalSectors))
	}
	cyl = int(lbn / int64(g.SectorsPerCylinder))
	rem := int(lbn % int64(g.SectorsPerCylinder))
	track = rem / g.SectorsPerTrack
	rem %= g.SectorsPerTrack
	row = rem / g.SectorsPerRow
	slot = rem % g.SectorsPerRow
	return cyl, track, row, slot
}
