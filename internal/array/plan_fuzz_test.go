package array

import (
	"encoding/binary"
	"fmt"
	"maps"
	"testing"

	"memsim/internal/core"
)

// cell is one member sector: a slot and a member-local address.
type cell struct {
	slot int
	lbn  int64
}

// FuzzVolumePlan drives the …Into planners on one reused Plan through a
// script of reads, writes, rebuild chunks and rebuild progress, on a
// fuzzed geometry and redundancy state, and checks every plan against
// the volume's block mapping:
//
//   - every block is covered once: a read fetches each block from its
//     home member, the rebuilt spare prefix, or each surviving peer
//     exactly once; a write updates each block's data and redundancy
//     exactly once; a rebuild chunk reads and rewrites each sector of
//     the chunk exactly once;
//   - parity is distinct from data: a parity block's home and parity
//     slots differ, and no write phase writes one member sector twice;
//   - a degraded plan never touches the failed slot, except within the
//     spare's rebuilt prefix.
//
// The comparison counts member sectors across the whole plan, so a
// stale phase or op left over from an earlier, larger plan shows as a
// sector too many.
func FuzzVolumePlan(f *testing.F) {
	script := func(ops ...[5]byte) []byte {
		var b []byte
		for _, op := range ops {
			b = append(b, op[:]...)
		}
		return b
	}
	long := script([5]byte{1, 0, 3, 0, 60}, [5]byte{0, 0, 1, 0, 2}, [5]byte{2, 0, 0, 0, 9},
		[5]byte{3, 0, 0, 0, 12}, [5]byte{0, 0, 0, 0, 80}, [5]byte{1, 0, 7, 0, 1})
	f.Add(uint8(VolParity), uint8(3), uint8(7), uint8(4), int8(-1), false, false, uint16(0), long)
	f.Add(uint8(VolParity), uint8(3), uint8(7), uint8(4), int8(1), true, false, uint16(16), long)
	f.Add(uint8(VolParity), uint8(4), uint8(3), uint8(6), int8(0), true, false, uint16(5), long)
	f.Add(uint8(VolParity), uint8(2), uint8(7), uint8(4), int8(2), false, false, uint16(0), long)
	f.Add(uint8(VolMirror), uint8(2), uint8(7), uint8(4), int8(1), true, false, uint16(9), long)
	f.Add(uint8(VolMirror), uint8(1), uint8(3), uint8(2), int8(-5), false, false, uint16(0), long)
	f.Add(uint8(VolStripe), uint8(3), uint8(7), uint8(4), int8(-1), false, false, uint16(0), long)
	f.Add(uint8(VolStripe), uint8(3), uint8(7), uint8(4), int8(2), false, false, uint16(0), long)
	f.Add(uint8(VolParity), uint8(3), uint8(7), uint8(4), int8(0), true, true, uint16(3), long)
	f.Fuzz(func(t *testing.T, level, members, unit, rows uint8, failed int8, rebuild, second bool,
		rebuilt uint16, ops []byte) {
		cfg := VolumeConfig{Level: VolumeLevel(level % 3), Members: 1 + int(members%6), Spares: 1,
			StripeUnit: 1 + int64(unit%16)}
		cfg.PerMember = cfg.StripeUnit * (1 + int64(rows%8))
		switch {
		case cfg.Level == VolMirror && cfg.Members < 2:
			cfg.Members = 2
		case cfg.Level == VolParity && cfg.Members < 3:
			cfg.Members = 3
		}
		v, err := NewVolume(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if failed >= 0 {
			slot := int(failed) % cfg.Members
			if err := v.Fail(slot); err != nil {
				t.Fatal(err)
			}
			if rebuild && v.BeginRebuild() {
				v.Advance(int(int64(rebuilt) % (cfg.PerMember + 1)))
			}
			if second && cfg.Members > 1 {
				if err := v.Fail((slot + 1) % cfg.Members); err != nil {
					t.Fatal(err)
				}
			}
		}
		var pl Plan
		ops = ops[:min(len(ops), 5*64)]
		for len(ops) >= 5 {
			kind := ops[0] % 4
			a := int64(binary.BigEndian.Uint16(ops[1:3]))
			b := int64(binary.BigEndian.Uint16(ops[3:5]))
			ops = ops[5:]
			lbn := a % v.Capacity()
			blocks := int(1 + b%(v.Capacity()-lbn))
			switch kind {
			case 0:
				ok := v.PlanReadInto(&pl, lbn, blocks)
				checkPlan(t, v, &pl, ok, "read", lbn, blocks, wantRead)
			case 1:
				ok := v.PlanWriteInto(&pl, lbn, blocks)
				checkPlan(t, v, &pl, ok, "write", lbn, blocks, wantWrite)
			case 2:
				checkRebuildChunk(t, v, &pl, int(b%(cfg.PerMember+1)))
			default:
				if v.Rebuilding() && !v.RebuildDone() {
					v.Advance(int(1 + b%(cfg.PerMember-v.watermark)))
				}
			}
		}
	})
}

// sectors counts the member sectors pl's ops address, reads and writes
// apart, and checks each op's shape and that no write phase writes a
// sector twice.
func sectors(t *testing.T, v *Volume, pl *Plan, what string) (reads, writes map[cell]int) {
	t.Helper()
	reads, writes = map[cell]int{}, map[cell]int{}
	for pi, phase := range pl.Phases {
		written := map[cell]bool{}
		for _, op := range phase {
			if op.Slot < 0 || op.Slot >= v.cfg.Members || op.Blocks <= 0 || op.LBN < 0 ||
				op.LBN+int64(op.Blocks) > v.cfg.PerMember {
				t.Fatalf("%s: phase %d op %+v outside the members", what, pi, op)
			}
			for l := op.LBN; l < op.LBN+int64(op.Blocks); l++ {
				c := cell{op.Slot, l}
				if op.Op == core.Read {
					reads[c]++
					continue
				}
				if written[c] {
					t.Fatalf("%s: phase %d writes slot %d sector %d twice", what, pi, c.slot, c.lbn)
				}
				written[c] = true
				writes[c]++
			}
		}
	}
	return reads, writes
}

// blockSectors adds to want the member sectors a plan must address for
// volume block b, given the sectors got that the plan holds, so that it
// can tell which of the valid ways to serve a failed-slot block the
// planner chose. Reads are on slot s, writes on slot −1−s.
type blockSectors func(t *testing.T, v *Volume, want, got map[cell]int, b int64)

// checkPlan checks the foreground plan for op on [lbn, lbn+blocks): a
// lost volume refuses it, and otherwise its sectors are exactly those
// want adds up block by block, none on the failed slot past the rebuilt
// prefix.
func checkPlan(t *testing.T, v *Volume, pl *Plan, ok bool, op string, lbn int64, blocks int, want blockSectors) {
	t.Helper()
	what := fmt.Sprintf("%s [%d,+%d)", op, lbn, blocks)
	if ok == v.lost {
		t.Fatalf("%s: ok = %v on a volume with lost = %v", what, ok, v.lost)
	}
	if !ok {
		return
	}
	reads, writes := sectors(t, v, pl, what)
	for _, got := range []map[cell]int{reads, writes} {
		for c := range got {
			if c.slot == v.failed && !(v.Rebuilding() && c.lbn < v.watermark) {
				t.Fatalf("%s: plan touches failed slot %d at sector %d past the rebuilt prefix %d",
					what, c.slot, c.lbn, v.watermark)
			}
		}
	}
	got := maps.Clone(reads)
	for c, n := range writes {
		got[cell{-1 - c.slot, c.lbn}] = n
	}
	wantCells := map[cell]int{}
	for b := lbn; b < lbn+int64(blocks); b++ {
		want(t, v, wantCells, got, b)
	}
	if !maps.Equal(got, wantCells) {
		t.Fatalf("%s on %+v (failed %d, rebuilt %d): plan %+v\naddresses %v\nwant      %v",
			what, v.cfg, v.failed, v.watermark, pl.Phases, got, wantCells)
	}
}

// wantRead is the blockSectors of a read: its home sector, or for a
// failed home the rebuilt spare's copy or the same sector on every
// surviving peer. A mirror block comes from any one replica.
func wantRead(t *testing.T, v *Volume, want, got map[cell]int, b int64) {
	if v.cfg.Level == VolMirror {
		for s := 0; s < v.cfg.Members; s++ {
			if got[cell{s, b}] > 0 {
				want[cell{s, b}]++
				return
			}
		}
		t.Fatalf("mirror read: no replica reads block %d", b)
	}
	slot, m, _ := v.mapBlock(b)
	switch {
	case slot != v.failed, got[cell{slot, m}] > 0:
		want[cell{slot, m}]++
	default:
		for _, s := range v.liveSlots() {
			want[cell{s, m}]++
		}
	}
}

// wantWrite is the blockSectors of a write: every live replica of a
// mirror block (and the failed one where the plan keeps the rebuilt
// spare current), a stripe block's home, and a parity block's
// read-modify-write of its home and parity sectors — with a failed
// home not yet rebuilt, a read of the row's surviving data and a parity
// rewrite; with a failed parity, the bare data write.
func wantWrite(t *testing.T, v *Volume, want, got map[cell]int, b int64) {
	write := func(s int, l int64) { want[cell{-1 - s, l}]++ }
	switch v.cfg.Level {
	case VolMirror:
		for s := 0; s < v.cfg.Members; s++ {
			if s != v.failed || got[cell{-1 - s, b}] > 0 {
				write(s, b)
			}
		}
		return
	case VolStripe:
		slot, m, _ := v.mapBlock(b)
		write(slot, m)
		return
	}
	slot, m, parity := v.mapBlock(b)
	if slot == parity {
		t.Fatalf("block %d: parity on its own data slot %d", b, slot)
	}
	switch {
	case parity == v.failed:
		write(slot, m)
	case slot == v.failed && got[cell{-1 - slot, m}] == 0:
		for _, s := range v.liveSlots() {
			if s != parity {
				want[cell{s, m}]++
			}
		}
		write(parity, m)
	default:
		want[cell{slot, m}]++
		want[cell{parity, m}]++
		write(slot, m)
		write(parity, m)
	}
}

// checkRebuildChunk checks a rebuild chunk plan: the next chunk sectors
// of the failed slot past the rebuilt prefix (fewer at the end), read
// from every surviving peer (one replica for a mirror) and then
// written, or nothing when no rebuild is running.
func checkRebuildChunk(t *testing.T, v *Volume, pl *Plan, chunk int) {
	t.Helper()
	what := fmt.Sprintf("rebuild chunk %d", chunk)
	n := v.PlanRebuildChunkInto(pl, chunk)
	want := 0
	if v.Rebuilding() && chunk > 0 {
		want = int(min(int64(chunk), v.cfg.PerMember-v.watermark))
	}
	if n != want {
		t.Fatalf("%s at prefix %d: %d blocks, want %d", what, v.watermark, n, want)
	}
	if n == 0 {
		if len(pl.Phases) != 0 {
			t.Fatalf("%s: empty chunk left phases %+v", what, pl.Phases)
		}
		return
	}
	if len(pl.Phases) != 2 {
		t.Fatalf("%s: %d phases, want read then write", what, len(pl.Phases))
	}
	reads, writes := sectors(t, v, pl, what)
	wantR, wantW := map[cell]int{}, map[cell]int{}
	peers := v.liveSlots()
	if v.cfg.Level == VolMirror {
		peers = peers[:1]
	}
	for l := v.watermark; l < v.watermark+int64(n); l++ {
		for _, s := range peers {
			wantR[cell{s, l}]++
		}
		wantW[cell{v.failed, l}]++
	}
	if !maps.Equal(reads, wantR) || !maps.Equal(writes, wantW) {
		t.Fatalf("%s at prefix %d: plan %+v", what, v.watermark, pl.Phases)
	}
	for _, op := range pl.Phases[0] {
		if op.Op != core.Read {
			t.Fatalf("%s: first phase holds %+v, want reads only", what, op)
		}
	}
}
