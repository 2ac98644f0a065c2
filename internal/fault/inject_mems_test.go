package fault_test

import (
	"testing"

	"memsim/internal/fault"
	"memsim/internal/mems"
)

// TestDegradedBlocksAllocatesNothing scans a degraded MEMS tip array the
// way every read under tip failures does: through the geometry's tip
// range, which must cost no allocation per sector. Group 0 (tips 0–65)
// loses three tips, more than its two ECC tips, so its sectors are lost;
// group 1 loses one and is only degraded.
func TestDegradedBlocksAllocatesNothing(t *testing.T) {
	geo := mems.MustDevice(mems.DefaultConfig()).Geometry()
	arr := fault.Config{Tips: 6402, DataTips: 64, ECCTips: 2}
	in, err := fault.NewInjector(fault.InjectorConfig{
		Array:      &arr,
		Events:     []fault.TipEvent{{Tip: 0}, {Tip: 1}, {Tip: 2}, {Tip: 70}},
		SectorTips: geo.TipsForSector,
	})
	if err != nil {
		t.Fatal(err)
	}
	in.Advance(1)
	// Sector 0 is striped over tips [0, 64) and sector 1 over [64, 128),
	// so in each of three rows the first two sectors are degraded and
	// the first is lost.
	blocks := 3 * geo.SectorsPerRow
	degraded, lost := in.DegradedBlocks(0, blocks), in.LostBlocks(0, blocks)
	if degraded != 6 || lost != 3 {
		t.Fatalf("degraded, lost = %d, %d; want 6, 3", degraded, lost)
	}
	allocs := testing.AllocsPerRun(100, func() {
		in.DegradedBlocks(0, blocks)
		in.LostBlocks(0, blocks)
	})
	if allocs != 0 {
		t.Errorf("DegradedBlocks+LostBlocks allocate %.1f objects per call, want 0", allocs)
	}
}
