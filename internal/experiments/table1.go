package experiments

import (
	"fmt"

	"memsim/internal/mems"
)

func init() { register("table1", table1Plan) }

// table1Plan reproduces Table 1 of the paper (the device parameters) and
// appends the derived geometry and the model's validation anchors — the
// quantities the paper quotes elsewhere that pin the derivation
// (DESIGN.md §3).
//
// Pure derivation — a single cheap job.
func table1Plan(p Params) *Plan {
	return tablesJob("table1", p.Seed, table1Body)
}

func table1Body() []Table {
	cfg := mems.DefaultConfig()
	g, err := mems.NewGeometry(cfg)
	if err != nil {
		panic(err) // the default configuration is known-good
	}
	t := Table{
		ID:      "table1",
		Title:   "device parameters (paper Table 1) and derived geometry",
		Columns: []string{"parameter", "value"},
	}
	t.AddRow("sled mobility in X and Y", fmt.Sprintf("%.0f µm", float64(cfg.BitsX)*cfg.BitWidth*1e6))
	t.AddRow("bit cell width", fmt.Sprintf("%.0f nm", cfg.BitWidth*1e9))
	t.AddRow("number of tips", fmt.Sprintf("%d", cfg.Tips))
	t.AddRow("simultaneously active tips", fmt.Sprintf("%d", cfg.ActiveTips))
	t.AddRow("tip sector length", fmt.Sprintf("%d bits (%d data bytes)", cfg.EncodedBits, cfg.DataBytes))
	t.AddRow("servo overhead", fmt.Sprintf("%d bits per tip sector", cfg.ServoBits))
	t.AddRow("per-tip data rate", fmt.Sprintf("%.0f Kbit/s", cfg.PerTipRate/1e3))
	t.AddRow("sled acceleration", fmt.Sprintf("%.1f m/s²", cfg.SledAccel))
	t.AddRow("settling time constants", fmt.Sprintf("%g", cfg.SettleConstants))
	t.AddRow("sled resonant frequency", fmt.Sprintf("%.0f Hz", cfg.ResonantHz))
	t.AddRow("spring factor", fmt.Sprintf("%.0f%%", cfg.SpringFactor*100))

	d := Table{
		ID:      "table1-derived",
		Title:   "derived geometry and validation anchors",
		Columns: []string{"quantity", "value", "paper anchor"},
	}
	d.AddRow("cylinders", fmt.Sprintf("%d", g.Cylinders), "N bit columns")
	d.AddRow("tracks per cylinder", fmt.Sprintf("%d", g.TracksPerCylinder), "tips/active = 5")
	d.AddRow("sectors per track", fmt.Sprintf("%d", g.SectorsPerTrack), "")
	d.AddRow("sectors per row (parallel)", fmt.Sprintf("%d", g.SectorsPerRow), "20 × 512 B per pass")
	d.AddRow("device capacity", fmt.Sprintf("%.3f GB", float64(g.CapacityBytes())/1e9), "≈3 GB per sled (Table 1: 3.2)")
	d.AddRow("streaming bandwidth", fmt.Sprintf("%.1f MB/s", g.StreamBandwidth()/1e6), "79.6 MB/s (§5.2)")
	d.AddRow("access velocity", fmt.Sprintf("%.1f mm/s", g.AccessSpeed*1e3), "")
	d.AddRow("X settle time (1 constant)", fmt.Sprintf("%.3f ms", g.SettleMs), "≈0.2 ms (§2.4.2)")
	d.AddRow("tip-sector row time", fmt.Sprintf("%.4f ms", g.RowTimeMs), "8 sectors = 0.13 ms (Table 2)")
	return []Table{t, d}
}
