package array

import (
	"reflect"
	"testing"
	"testing/quick"

	"memsim/internal/core"
)

func mustVolume(t *testing.T, cfg VolumeConfig) *Volume {
	t.Helper()
	v, err := NewVolume(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return v
}

func parityCfg() VolumeConfig {
	return VolumeConfig{Level: VolParity, Members: 4, Spares: 1, StripeUnit: 8, PerMember: 64}
}

func mirrorCfg() VolumeConfig {
	return VolumeConfig{Level: VolMirror, Members: 2, Spares: 1, StripeUnit: 8, PerMember: 64}
}

func TestVolumeConfigValidate(t *testing.T) {
	bad := []VolumeConfig{
		{Level: VolStripe, Members: 0, StripeUnit: 8, PerMember: 64},
		{Level: VolStripe, Members: 2, Spares: -1, StripeUnit: 8, PerMember: 64},
		{Level: VolStripe, Members: 2, StripeUnit: 0, PerMember: 64},
		{Level: VolStripe, Members: 2, StripeUnit: 8, PerMember: 0},
		{Level: VolStripe, Members: 2, StripeUnit: 8, PerMember: 60}, // not a multiple
		{Level: VolMirror, Members: 1, StripeUnit: 8, PerMember: 64},
		{Level: VolParity, Members: 2, StripeUnit: 8, PerMember: 64},
		{Level: VolumeLevel(9), Members: 2, StripeUnit: 8, PerMember: 64},
	}
	for i, cfg := range bad {
		if err := cfg.Validate(); err == nil {
			t.Errorf("config %d (%+v): expected an error", i, cfg)
		}
	}
	for _, cfg := range []VolumeConfig{parityCfg(), mirrorCfg(),
		{Level: VolStripe, Members: 3, StripeUnit: 8, PerMember: 64}} {
		if err := cfg.Validate(); err != nil {
			t.Errorf("%v: %v", cfg.Level, err)
		}
	}
}

func TestVolumeCapacity(t *testing.T) {
	cases := []struct {
		cfg  VolumeConfig
		want int64
	}{
		{VolumeConfig{Level: VolStripe, Members: 4, StripeUnit: 8, PerMember: 64}, 256},
		{VolumeConfig{Level: VolMirror, Members: 3, StripeUnit: 8, PerMember: 64}, 64},
		{VolumeConfig{Level: VolParity, Members: 4, StripeUnit: 8, PerMember: 64}, 192},
	}
	for _, tc := range cases {
		if got := tc.cfg.Capacity(); got != tc.want {
			t.Errorf("%v capacity = %d, want %d", tc.cfg.Level, got, tc.want)
		}
	}
	if d := parityCfg().Devices(); d != 5 {
		t.Errorf("devices = %d, want 5 (4 members + 1 spare)", d)
	}
}

func TestVolumeLevelString(t *testing.T) {
	if VolStripe.String() != "stripe" || VolMirror.String() != "mirror" || VolParity.String() != "parity" {
		t.Error("level strings")
	}
	if VolumeLevel(7).String() != "VolumeLevel(7)" {
		t.Error("unknown level string")
	}
}

func TestPlanReadCoversExtent(t *testing.T) {
	// Any extent splits into strip-bounded member reads that stay inside
	// a member and add up to the request.
	for _, cfg := range []VolumeConfig{
		{Level: VolStripe, Members: 4, StripeUnit: 8, PerMember: 1 << 16},
		{Level: VolParity, Members: 4, StripeUnit: 8, PerMember: 1 << 16},
	} {
		v := mustVolume(t, cfg)
		f := func(rawLBN uint32, rawN uint8) bool {
			n := int(rawN) + 1
			lbn := int64(rawLBN) % (v.Capacity() - int64(n))
			pl, ok := v.PlanRead(lbn, n)
			if !ok || len(pl.Phases) != 1 {
				return false
			}
			total := 0
			for _, op := range pl.Phases[0] {
				if op.Blocks <= 0 || op.Blocks > 8 || op.LBN < 0 || op.LBN+int64(op.Blocks) > cfg.PerMember {
					return false
				}
				total += op.Blocks
			}
			return total == n
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
			t.Errorf("%v: %v", cfg.Level, err)
		}
	}
}

func TestStripeMapsStripsRoundRobin(t *testing.T) {
	// Strips rotate across the members row by row, and a request that
	// crosses a strip splits at the boundary.
	cases := []stripePlanCase{
		{"strip 0", VolumeConfig{Level: VolStripe, Members: 4, StripeUnit: 8, PerMember: 64}, 0, 8,
			[]MemberOp{{Slot: 0, LBN: 0, Blocks: 8}}},
		{"strip 1", VolumeConfig{Level: VolStripe, Members: 4, StripeUnit: 8, PerMember: 64}, 8, 8,
			[]MemberOp{{Slot: 1, LBN: 0, Blocks: 8}}},
		{"strip 4, row 1", VolumeConfig{Level: VolStripe, Members: 4, StripeUnit: 8, PerMember: 64}, 32, 8,
			[]MemberOp{{Slot: 0, LBN: 8, Blocks: 8}}},
		{"strip-crossing", VolumeConfig{Level: VolStripe, Members: 4, StripeUnit: 8, PerMember: 64}, 6, 8,
			[]MemberOp{{Slot: 0, LBN: 6, Blocks: 2}, {Slot: 1, LBN: 0, Blocks: 6}}},
	}
	checkStripePlans(t, cases)
}

func TestConcatMapsMembersInOrder(t *testing.T) {
	// With the strip as large as a member, the stripe concatenates its
	// members, and a request that crosses a member splits at the boundary.
	cfg := VolumeConfig{Level: VolStripe, Members: 3, StripeUnit: 1000, PerMember: 1000}
	checkStripePlans(t, []stripePlanCase{
		{"concat", cfg, 2500, 8, []MemberOp{{Slot: 2, LBN: 500, Blocks: 8}}},
		{"concat member-crossing", cfg, 995, 10,
			[]MemberOp{{Slot: 0, LBN: 995, Blocks: 5}, {Slot: 1, LBN: 0, Blocks: 5}}},
	})
}

// stripePlanCase is a read of [lbn, lbn+blocks) on a volume of cfg and the
// single phase of member ops it must plan.
type stripePlanCase struct {
	name      string
	cfg       VolumeConfig
	lbn       int64
	blocks    int
	wantPhase []MemberOp
}

func checkStripePlans(t *testing.T, cases []stripePlanCase) {
	t.Helper()
	var pl Plan
	for _, tc := range cases {
		v := mustVolume(t, tc.cfg)
		if !v.PlanReadInto(&pl, tc.lbn, tc.blocks) {
			t.Fatalf("%s: read refused", tc.name)
		}
		if len(pl.Phases) != 1 || !reflect.DeepEqual(pl.Phases[0], tc.wantPhase) {
			t.Errorf("%s: plan = %+v, want one phase %+v", tc.name, pl.Phases, tc.wantPhase)
		}
	}
}

func TestPlanRejectsOutOfRange(t *testing.T) {
	v := mustVolume(t, parityCfg())
	for _, r := range []struct {
		lbn    int64
		blocks int
	}{{-1, 1}, {0, 0}, {v.Capacity() - 1, 2}, {v.Capacity(), 1}} {
		for _, plan := range []func(int64, int) (Plan, bool){v.PlanRead, v.PlanWrite} {
			func() {
				defer func() {
					if recover() == nil {
						t.Errorf("no panic planning [%d,+%d) on capacity %d", r.lbn, r.blocks, v.Capacity())
					}
				}()
				plan(r.lbn, r.blocks)
			}()
		}
	}
	for _, slot := range []int{-1, 4} {
		if err := v.Fail(slot); err == nil {
			t.Errorf("Fail(%d) accepted an out-of-range slot", slot)
		}
	}
}

func TestParityMappingBijective(t *testing.T) {
	// Every volume block maps to a unique (slot, member-LBN) pair, the
	// data slot never coincides with its row's parity slot, and parity
	// rotates over all members.
	v := mustVolume(t, parityCfg())
	seen := map[[2]int64]int64{}
	paritySlots := map[int]bool{}
	for lbn := int64(0); lbn < v.Capacity(); lbn++ {
		slot, mlbn, parity := v.mapBlock(lbn)
		if slot == parity {
			t.Fatalf("lbn %d: data slot %d equals parity slot", lbn, slot)
		}
		if slot < 0 || slot >= 4 || parity < 0 || parity >= 4 {
			t.Fatalf("lbn %d: slot %d parity %d out of range", lbn, slot, parity)
		}
		key := [2]int64{int64(slot), mlbn}
		if prev, dup := seen[key]; dup {
			t.Fatalf("lbn %d and %d both map to slot %d mlbn %d", prev, lbn, slot, mlbn)
		}
		seen[key] = lbn
		paritySlots[parity] = true
	}
	if len(paritySlots) != 4 {
		t.Errorf("parity rotated over %d slots, want 4 (left-symmetric)", len(paritySlots))
	}
}

func TestMirrorReadSpread(t *testing.T) {
	// Healthy mirror reads rotate across both replicas; after a failure
	// every read lands on the survivor.
	v := mustVolume(t, mirrorCfg())
	slots := map[int]bool{}
	for lbn := int64(0); lbn < 64; lbn += 8 {
		pl, ok := v.PlanRead(lbn, 1)
		if !ok || len(pl.Phases) != 1 || len(pl.Phases[0]) != 1 {
			t.Fatalf("healthy mirror read plan = %+v ok=%v", pl, ok)
		}
		slots[pl.Phases[0][0].Slot] = true
	}
	if len(slots) != 2 {
		t.Errorf("healthy reads used %d replicas, want 2", len(slots))
	}
	if err := v.Fail(1); err != nil {
		t.Fatal(err)
	}
	for lbn := int64(0); lbn < 64; lbn += 8 {
		pl, ok := v.PlanRead(lbn, 1)
		if !ok || pl.Phases[0][0].Slot != 0 {
			t.Fatalf("degraded mirror read went to slot %d", pl.Phases[0][0].Slot)
		}
		if pl.Reconstructed {
			t.Error("mirror survivor read marked reconstructed")
		}
	}
}

func TestMirrorWritePlans(t *testing.T) {
	v := mustVolume(t, mirrorCfg())
	pl, ok := v.PlanWrite(3, 2)
	if !ok || len(pl.Phases) != 1 || len(pl.Phases[0]) != 2 {
		t.Fatalf("healthy mirror write plan = %+v ok=%v", pl, ok)
	}
	for _, op := range pl.Phases[0] {
		if op.Op != core.Write || op.LBN != 3 || op.Blocks != 2 {
			t.Errorf("bad replica op %+v", op)
		}
	}
	if err := v.Fail(0); err != nil {
		t.Fatal(err)
	}
	pl, ok = v.PlanWrite(3, 2)
	if !ok || len(pl.Phases[0]) != 1 || pl.Phases[0][0].Slot != 1 || !pl.DegradedWrite {
		t.Fatalf("degraded mirror write plan = %+v ok=%v", pl, ok)
	}
	// Mid-rebuild, writes below the watermark also refresh the spare.
	if !v.BeginRebuild() {
		t.Fatal("no rebuild with a spare available")
	}
	v.Advance(16)
	pl, _ = v.PlanWrite(3, 2)
	if len(pl.Phases[0]) != 2 {
		t.Errorf("covered write has %d ops, want 2 (survivor + spare)", len(pl.Phases[0]))
	}
	pl, _ = v.PlanWrite(40, 2) // above the watermark
	if len(pl.Phases[0]) != 1 {
		t.Errorf("uncovered write has %d ops, want 1", len(pl.Phases[0]))
	}
}

func TestParityRMWAndDegradedPlans(t *testing.T) {
	v := mustVolume(t, parityCfg())
	slot, mlbn, parity := v.mapBlock(0)

	// Healthy small write: 2-phase read-modify-write on data + parity.
	pl, ok := v.PlanWrite(0, 2)
	if !ok || len(pl.Phases) != 2 || len(pl.Phases[0]) != 2 || len(pl.Phases[1]) != 2 {
		t.Fatalf("healthy RMW plan = %+v", pl)
	}
	if pl.Phases[0][0].Op != core.Read || pl.Phases[1][0].Op != core.Write {
		t.Error("RMW phases out of order")
	}
	if pl.Phases[0][0].Slot != slot || pl.Phases[0][1].Slot != parity {
		t.Errorf("RMW targets slots %d,%d, want %d,%d",
			pl.Phases[0][0].Slot, pl.Phases[0][1].Slot, slot, parity)
	}

	// Healthy read: one op on the data slot.
	rp, ok := v.PlanRead(0, 2)
	if !ok || len(rp.Phases[0]) != 1 || rp.Phases[0][0].Slot != slot || rp.Phases[0][0].LBN != mlbn {
		t.Fatalf("healthy read plan = %+v", rp)
	}

	// Fail the data slot: reads reconstruct from the 3 surviving peers.
	if err := v.Fail(slot); err != nil {
		t.Fatal(err)
	}
	rp, ok = v.PlanRead(0, 2)
	if !ok || !rp.Reconstructed || len(rp.Phases[0]) != 3 {
		t.Fatalf("degraded read plan = %+v ok=%v", rp, ok)
	}
	for _, op := range rp.Phases[0] {
		if op.Slot == slot {
			t.Error("degraded read touched the failed slot")
		}
	}

	// Degraded write to the failed data slot: read the row's surviving
	// data members (members-2 of them), then rewrite parity.
	pl, ok = v.PlanWrite(0, 2)
	if !ok || !pl.DegradedWrite || len(pl.Phases) != 2 {
		t.Fatalf("degraded write plan = %+v ok=%v", pl, ok)
	}
	if len(pl.Phases[0]) != 2 || len(pl.Phases[1]) != 1 || pl.Phases[1][0].Slot != parity {
		t.Errorf("reconstruct-write shape = %d reads then %d writes to slot %d",
			len(pl.Phases[0]), len(pl.Phases[1]), pl.Phases[1][0].Slot)
	}

	// Rebuild past the chunk: covered ranges use the spare like a
	// healthy member again.
	if !v.BeginRebuild() {
		t.Fatal("no rebuild")
	}
	v.Advance(16)
	rp, _ = v.PlanRead(0, 2)
	if !rp.SpareRead || len(rp.Phases[0]) != 1 || rp.Phases[0][0].Slot != slot {
		t.Errorf("covered read plan = %+v", rp)
	}
	if dev := v.DeviceOf(slot); dev != 4 {
		t.Errorf("covered slot resolves to device %d, want spare 4", dev)
	}
}

func TestParityWriteToFailedParitySlot(t *testing.T) {
	v := mustVolume(t, parityCfg())
	_, _, parity := v.mapBlock(0)
	if err := v.Fail(parity); err != nil {
		t.Fatal(err)
	}
	pl, ok := v.PlanWrite(0, 2)
	if !ok || len(pl.Phases) != 1 || len(pl.Phases[0]) != 1 || pl.Phases[0][0].Op != core.Write {
		t.Fatalf("parity-dead write plan = %+v", pl)
	}
	if !pl.DegradedWrite {
		t.Error("parity-dead write not marked degraded")
	}
}

func TestStripeFailureLosesData(t *testing.T) {
	v := mustVolume(t, VolumeConfig{Level: VolStripe, Members: 3, StripeUnit: 8, PerMember: 64})
	if err := v.Fail(1); err != nil {
		t.Fatal(err)
	}
	if !v.Lost() {
		t.Fatal("stripe member failure must lose data")
	}
	if _, ok := v.PlanRead(0, 4); ok {
		t.Error("lost volume served a read")
	}
	if _, ok := v.PlanWrite(0, 4); ok {
		t.Error("lost volume accepted a write")
	}
}

func TestDoubleFailureLosesData(t *testing.T) {
	v := mustVolume(t, parityCfg())
	if err := v.Fail(0); err != nil {
		t.Fatal(err)
	}
	if v.Lost() {
		t.Fatal("single parity failure should not lose data")
	}
	if err := v.Fail(2); err != nil {
		t.Fatal(err)
	}
	if !v.Lost() {
		t.Fatal("second concurrent failure must lose data")
	}
	if _, ok := v.PlanRead(0, 1); ok {
		t.Error("lost volume served a read")
	}
}

func TestRebuildLifecycle(t *testing.T) {
	v := mustVolume(t, parityCfg())
	if v.BeginRebuild() {
		t.Fatal("rebuild started with no failure")
	}
	if err := v.Fail(2); err != nil {
		t.Fatal(err)
	}
	if !v.BeginRebuild() {
		t.Fatal("rebuild refused with a spare available")
	}
	if v.BeginRebuild() {
		t.Fatal("second concurrent rebuild")
	}
	total := 0
	var pl Plan
	for !v.RebuildDone() {
		n := v.PlanRebuildChunkInto(&pl, 24)
		if n == 0 {
			t.Fatal("rebuild stalled")
		}
		// Parity rebuild chunk: read the 3 surviving peers, write the spare.
		if len(pl.Phases) != 2 || len(pl.Phases[0]) != 3 || len(pl.Phases[1]) != 1 {
			t.Fatalf("chunk plan shape = %+v", pl)
		}
		w := pl.Phases[1][0]
		if w.Slot != 2 || w.Op != core.Write || w.LBN != int64(total) {
			t.Fatalf("chunk write = %+v at watermark %d", w, total)
		}
		v.Advance(n)
		total += n
	}
	if total != 64 {
		t.Errorf("rebuilt %d sectors, want 64", total)
	}
	v.FinishRebuild()
	if v.Degraded() || v.Rebuilding() {
		t.Error("volume still degraded after failover")
	}
	if dev := v.DeviceOf(2); dev != 4 {
		t.Errorf("slot 2 resolves to device %d after failover, want spare 4", dev)
	}
	// A second failure after full failover is again a single failure.
	if err := v.Fail(0); err != nil {
		t.Fatal(err)
	}
	if v.Lost() {
		t.Error("post-failover failure treated as a double fault")
	}
	if v.BeginRebuild() {
		t.Error("rebuild began with the spare pool exhausted")
	}
}

func TestReplaceDeadOp(t *testing.T) {
	v := mustVolume(t, parityCfg())
	if err := v.Fail(1); err != nil {
		t.Fatal(err)
	}

	// Live-slot ops pass through untouched.
	op := MemberOp{Slot: 0, Op: core.Read, LBN: 5, Blocks: 2}
	repl, recon, ok := v.ReplaceDeadOp(op)
	if !ok || recon || len(repl) != 1 || repl[0] != op {
		t.Errorf("live op replaced: %+v", repl)
	}

	// Dead-slot writes are dropped; dead-slot reads become peer reads.
	repl, _, ok = v.ReplaceDeadOp(MemberOp{Slot: 1, Op: core.Write, LBN: 5, Blocks: 2})
	if !ok || len(repl) != 0 {
		t.Errorf("dead write: repl=%v ok=%v", repl, ok)
	}
	repl, recon, ok = v.ReplaceDeadOp(MemberOp{Slot: 1, Op: core.Read, LBN: 5, Blocks: 2})
	if !ok || !recon || len(repl) != 3 {
		t.Errorf("dead read: repl=%v recon=%v ok=%v", repl, recon, ok)
	}

	// Below the rebuild watermark the spare serves the original op.
	v.BeginRebuild()
	v.Advance(16)
	repl, recon, ok = v.ReplaceDeadOp(MemberOp{Slot: 1, Op: core.Read, LBN: 5, Blocks: 2})
	if !ok || recon || len(repl) != 1 || repl[0].Slot != 1 {
		t.Errorf("covered dead read: repl=%v", repl)
	}

	// After loss, reads are unreachable and writes still drop silently.
	if err := v.Fail(3); err != nil {
		t.Fatal(err)
	}
	if _, _, ok := v.ReplaceDeadOp(MemberOp{Slot: 0, Op: core.Read, LBN: 5, Blocks: 2}); ok {
		t.Error("read replaced on a lost volume")
	}
	if _, _, ok := v.ReplaceDeadOp(MemberOp{Slot: 0, Op: core.Write, LBN: 5, Blocks: 2}); !ok {
		t.Error("write not droppable on a lost volume")
	}
}

func TestVolumeEpochAndReset(t *testing.T) {
	v := mustVolume(t, parityCfg())
	e0 := v.Epoch()
	if err := v.Fail(0); err != nil {
		t.Fatal(err)
	}
	if v.Epoch() == e0 {
		t.Error("failure did not bump the epoch")
	}
	v.BeginRebuild()
	v.Advance(64)
	v.FinishRebuild()
	if v.Epoch() <= e0+1 {
		t.Error("failover did not bump the epoch")
	}
	v.Reset()
	if v.Epoch() != 0 || v.Degraded() || v.Lost() || v.Rebuilding() {
		t.Error("reset left failover state behind")
	}
	if dev := v.DeviceOf(0); dev != 0 {
		t.Errorf("reset slot mapping: %d", dev)
	}
}

func TestPlanIntoReusesStorage(t *testing.T) {
	// The Into planners build into the caller's Plan: once it has grown,
	// planning allocates nothing, in healthy and degraded states alike,
	// and a reused Plan holds exactly what a fresh one would. The
	// value-returning planners hand back a Plan no later call touches.
	v := mustVolume(t, parityCfg())
	var pl Plan
	plan := func() {
		v.PlanReadInto(&pl, 3, 20)
		v.PlanWriteInto(&pl, 5, 30)
	}
	if allocs := testing.AllocsPerRun(50, plan); allocs != 0 {
		t.Errorf("healthy planning allocates %.1f objects per run", allocs)
	}
	want, _ := mustVolume(t, parityCfg()).PlanWrite(5, 30)
	kept, _ := v.PlanWrite(5, 30)
	if err := v.Fail(1); err != nil {
		t.Fatal(err)
	}
	if !v.BeginRebuild() {
		t.Fatal("no rebuild")
	}
	v.Advance(16)
	degraded := func() {
		plan()
		v.PlanRebuildChunkInto(&pl, 8)
	}
	if allocs := testing.AllocsPerRun(50, degraded); allocs != 0 {
		t.Errorf("degraded planning allocates %.1f objects per run", allocs)
	}
	if !reflect.DeepEqual(kept, want) {
		t.Errorf("returned plan changed under later planning:\n got %+v\nwant %+v", kept, want)
	}
	// pl last held a two-phase rebuild plan: refilling it must leave no
	// trace of that plan's phases or flags.
	for _, c := range []struct {
		into  func(*Plan) bool
		fresh func() (Plan, bool)
	}{
		{func(p *Plan) bool { return v.PlanReadInto(p, 0, 40) }, func() (Plan, bool) { return v.PlanRead(0, 40) }},
		{func(p *Plan) bool { return v.PlanWriteInto(p, 5, 30) }, func() (Plan, bool) { return v.PlanWrite(5, 30) }},
	} {
		ok := c.into(&pl)
		fresh, freshOK := c.fresh()
		if ok != freshOK || !reflect.DeepEqual(pl, fresh) {
			t.Errorf("reused plan differs from a fresh one:\n got %+v\nwant %+v", pl, fresh)
		}
	}
}
