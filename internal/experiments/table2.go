package experiments

import (
	"memsim/internal/core"
	"memsim/internal/disk"
	"memsim/internal/mems"
)

func init() { register("table2", table2Plan) }

// table2Plan reproduces Table 2: read-modify-write times for 4 KB
// (8-sector) and track-length (334-sector) transfers on the Atlas 10K and
// the MEMS device. The disk must wait out nearly a full rotation between
// the read and the write of the same sectors; the MEMS device only turns
// the sled around (§6.2). As in the paper, command overheads and the
// initial positioning are excluded — the table isolates the re-access
// cost.
//
// Four direct-access measurements on private devices — one cheap job.
func table2Plan(p Params) *Plan {
	return tablesJob("table2", p.Seed, table2Body)
}

func table2Body() []Table {
	t := Table{
		ID:      "table2",
		Title:   "read-modify-write component times (ms)",
		Columns: []string{"", "Atlas 10K ×8", "Atlas 10K ×334", "MEMS ×8", "MEMS ×334"},
	}

	dRead8, dRep8, dWrite8 := diskRMW(8)
	dRead334, dRep334, dWrite334 := diskRMW(334)
	mRead8, mRep8, mWrite8 := memsRMW(8)
	mRead334, mRep334, mWrite334 := memsRMW(334)

	t.AddRow("read", ms(dRead8), ms(dRead334), ms(mRead8), ms(mRead334))
	t.AddRow("reposition", ms(dRep8), ms(dRep334), ms(mRep8), ms(mRep334))
	t.AddRow("write", ms(dWrite8), ms(dWrite334), ms(mWrite8), ms(mWrite334))
	t.AddRow("total", ms(dRead8+dRep8+dWrite8), ms(dRead334+dRep334+dWrite334),
		ms(mRead8+mRep8+mWrite8), ms(mRead334+mRep334+mWrite334))
	return []Table{t}
}

// diskRMW measures the disk's read/reposition/write decomposition on the
// outermost (334-sector) track, with overheads zeroed.
func diskRMW(blocks int) (read, reposition, write float64) {
	cfg := disk.Atlas10K()
	cfg.Overhead = 0
	cfg.WriteSettle = 0
	d := disk.MustDevice(cfg)
	d.Reset()
	transfer := float64(blocks) * d.RotationPeriod() / 334
	// Position at LBN 0 (track-aligned, zone 0), read once, then access
	// the same sectors again: the re-access pays the rotational gap.
	r := &core.Request{Op: core.Read, LBN: 0, Blocks: blocks}
	first := d.Access(r, 0)
	again := d.Access(&core.Request{Op: core.Write, LBN: 0, Blocks: blocks}, first)
	return transfer, again - transfer, transfer
}

// memsRMW measures the MEMS decomposition with overhead zeroed: transfer
// is ⌈n/20⌉ row passes and repositioning is one turnaround because the
// write sweeps back over the same rows in the opposite direction.
func memsRMW(blocks int) (read, reposition, write float64) {
	cfg := mems.DefaultConfig()
	cfg.Overhead = 0
	d := mems.MustDevice(cfg)
	g := d.Geometry()
	lbn := g.LBN(g.Cylinders/2, 2, 0, 0)
	r := &core.Request{Op: core.Read, LBN: lbn, Blocks: blocks}
	read = d.EstimateBreakdown(r, 0).Transfer
	d.Access(r, 0)
	wr := &core.Request{Op: core.Write, LBN: lbn, Blocks: blocks}
	det := d.EstimateBreakdown(wr, 0)
	return read, det.Positioning(), det.Transfer
}
