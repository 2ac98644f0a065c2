package experiments

import (
	"bytes"
	"strings"
	"testing"

	"memsim/internal/core"
	"memsim/internal/sim"
)

func TestRAIDShape(t *testing.T) {
	ts := run(t, "raid", tiny())
	tb := ts[0]
	if len(tb.Rows) != 4 {
		t.Fatalf("rows = %d", len(tb.Rows))
	}
	// Row 0: RAID-5 small write — the §6.2 claim needs a large disk/MEMS
	// gap (Table 2's rotation vs. turnaround, now at array level).
	memsW, diskW := cell(t, tb.Rows[0][1]), cell(t, tb.Rows[0][2])
	if diskW < 5*memsW {
		t.Errorf("RAID-5 small write gap too small: MEMS %g vs disk %g", memsW, diskW)
	}
	// Degraded reads cost more than healthy reads on both devices.
	if cell(t, tb.Rows[2][1]) < cell(t, tb.Rows[1][1])*0.9 {
		t.Errorf("MEMS degraded read cheaper than healthy: %v", tb.Rows)
	}
	// Rebuild rows are formatted in seconds.
	if !strings.Contains(tb.Rows[3][1], " s") {
		t.Errorf("rebuild cell %q not in seconds", tb.Rows[3][1])
	}
}

func TestCacheStudyShape(t *testing.T) {
	ts := run(t, "cache", tiny())
	tb := ts[0]
	if len(tb.Rows) != 6 {
		t.Fatalf("rows = %d", len(tb.Rows))
	}
	get := func(workload, mode string) (mean, hit float64) {
		for _, row := range tb.Rows {
			if strings.HasPrefix(row[0], workload) && row[1] == mode {
				h := 0.0
				if row[3] != "—" {
					h = cell(t, row[3])
				}
				return cell(t, row[2]), h
			}
		}
		t.Fatalf("missing row %s/%s", workload, mode)
		return 0, 0
	}
	// Sequential scan: any buffering must beat raw, with a high hit rate.
	seqOff, _ := get("sequential", "off")
	seqFixed, seqHit := get("sequential", "fixed")
	seqAdapt, _ := get("sequential", "adaptive")
	if seqFixed >= seqOff || seqAdapt >= seqOff {
		t.Errorf("buffered sequential scan (%g/%g) should beat raw %g", seqFixed, seqAdapt, seqOff)
	}
	if seqHit < 0.5 {
		t.Errorf("sequential hit rate = %g, want high", seqHit)
	}
	// Random: fixed read-ahead taxes every miss; adaptive must not.
	rndOff, _ := get("random", "off")
	rndFixed, _ := get("random", "fixed")
	rndAdapt, _ := get("random", "adaptive")
	if rndFixed <= rndOff {
		t.Errorf("fixed read-ahead should tax random traffic: fixed %g vs off %g", rndFixed, rndOff)
	}
	if rndAdapt > rndOff*1.1 {
		t.Errorf("adaptive prefetch should not tax random traffic: %g vs %g", rndAdapt, rndOff)
	}
}

func TestAgingShape(t *testing.T) {
	ts := run(t, "aging", tiny())
	tb := ts[0]
	if len(tb.Rows) != 6 {
		t.Fatalf("rows = %d", len(tb.Rows))
	}
	// ASPTF(0.01) must cut SPTF's maximum response sharply at the knee.
	var sptfMax, agedMax float64
	for _, row := range tb.Rows {
		switch row[0] {
		case "SPTF":
			sptfMax = cell(t, row[3])
		case "ASPTF(0.01)":
			agedMax = cell(t, row[3])
		}
	}
	if sptfMax == 0 || agedMax == 0 {
		t.Fatalf("missing rows: %v", tb.Rows)
	}
	if agedMax*1.5 > sptfMax {
		t.Errorf("aging should tame the tail: SPTF max %g vs ASPTF %g", sptfMax, agedMax)
	}
}

func TestRemapStudyShape(t *testing.T) {
	ts := run(t, "remap", tiny())
	tb := ts[0]
	if len(tb.Rows) != 4 {
		t.Fatalf("rows = %d", len(tb.Rows))
	}
	// Spare-tip remap column is flat (identical to defect-free).
	base := tb.Rows[0][3]
	for _, row := range tb.Rows {
		if row[3] != base {
			t.Errorf("spare-tip remap column should be flat: %v", tb.Rows)
		}
	}
	// Slip remapping slows both devices monotonically, disk far worse.
	prevD, prevM := 0.0, 0.0
	for i, row := range tb.Rows {
		d, m := cell(t, row[1]), cell(t, row[2])
		if i > 0 && (d < prevD || m < prevM) {
			t.Errorf("slip cost not monotone: %v", tb.Rows)
		}
		prevD, prevM = d, m
	}
	lastD, lastM := cell(t, tb.Rows[3][1]), cell(t, tb.Rows[3][2])
	if lastD < 3*lastM {
		t.Errorf("disk slip penalty (%g) should dwarf MEMS (%g)", lastD, lastM)
	}
}

func TestGenerationsShape(t *testing.T) {
	ts := run(t, "generations", tiny())
	tb := ts[0]
	if len(tb.Rows) != 3 {
		t.Fatalf("rows = %d", len(tb.Rows))
	}
	// Capacity and bandwidth grow; access time shrinks.
	for i := 1; i < 3; i++ {
		if cell(t, tb.Rows[i][1]) <= cell(t, tb.Rows[i-1][1]) {
			t.Errorf("capacity not increasing: %v", tb.Rows)
		}
		if cell(t, tb.Rows[i][2]) <= cell(t, tb.Rows[i-1][2]) {
			t.Errorf("bandwidth not increasing: %v", tb.Rows)
		}
		if cell(t, tb.Rows[i][3]) >= cell(t, tb.Rows[i-1][3]) {
			t.Errorf("access time not decreasing: %v", tb.Rows)
		}
	}
}

func TestStartupShape(t *testing.T) {
	ts := run(t, "startup", tiny())
	if len(ts) != 2 {
		t.Fatalf("tables = %d", len(ts))
	}
	shelf := ts[0]
	// MEMS column is constant (concurrent init); disk columns scale with
	// device count (serialized spin-up).
	if shelf.Rows[0][1] != shelf.Rows[2][1] {
		t.Errorf("MEMS init should not scale with device count: %v", shelf.Rows)
	}
	if cell(t, shelf.Rows[2][2]) != 16*cell(t, shelf.Rows[0][2]) {
		t.Errorf("serialized disk spin-up should scale linearly: %v", shelf.Rows)
	}
	sync := ts[1]
	memsW, diskW := cell(t, sync.Rows[0][1]), cell(t, sync.Rows[1][1])
	if diskW < 5*memsW {
		t.Errorf("synchronous write gap too small: MEMS %g vs disk %g", memsW, diskW)
	}
}

func TestPowerCompressionTable(t *testing.T) {
	ts := run(t, "power", tiny())
	if len(ts) != 2 || ts[1].ID != "power-compress" {
		t.Fatalf("expected power-compress table, got %d tables", len(ts))
	}
	tb := ts[1]
	// Cheap-CPU rows are worthwhile; the expensive-CPU row is not.
	if tb.Rows[0][3] != "true" {
		t.Errorf("cheap 1.5× compression should win: %v", tb.Rows[0])
	}
	if tb.Rows[len(tb.Rows)-1][3] != "false" {
		t.Errorf("expensive CPU should lose: %v", tb.Rows[len(tb.Rows)-1])
	}
}

func TestShuffleStudyShape(t *testing.T) {
	ts := run(t, "shuffle", tiny())
	tb := ts[0]
	if len(tb.Rows) != 6 {
		t.Fatalf("rows = %d", len(tb.Rows))
	}
	// Static rows have zero migration; adaptive rows have positive
	// migration whenever anything moved.
	for i, row := range tb.Rows {
		mig := cell(t, row[3])
		if i%2 == 0 && mig != 0 {
			t.Errorf("static row with migration: %v", row)
		}
		if mig < 0 {
			t.Errorf("negative migration: %v", row)
		}
	}
	// With stable hotspots (row pair 0/1), the adaptive layout's raw
	// service time must beat static — the organ-pipe benefit exists —
	// even though migration may erase it.
	static0, adapt0 := cell(t, tb.Rows[0][2]), cell(t, tb.Rows[1][2])
	if adapt0 >= static0 {
		t.Errorf("stable hotspots: adaptive service %g should beat static %g", adapt0, static0)
	}
}

func TestBusStudyShape(t *testing.T) {
	ts := run(t, "bus", tiny())
	tb := ts[0]
	if len(tb.Rows) != 4 {
		t.Fatalf("rows = %d", len(tb.Rows))
	}
	// Media-only aggregate scales ~linearly with sled count; the shared
	// bus clamps it near 160 MB/s.
	raw1, raw8 := cell(t, tb.Rows[0][1]), cell(t, tb.Rows[3][1])
	if raw8 < 6*raw1 {
		t.Errorf("media-only aggregate should scale: %g → %g", raw1, raw8)
	}
	sh8 := cell(t, tb.Rows[3][2])
	if sh8 > 170 {
		t.Errorf("8 sleds on one bus = %g MB/s, exceeds the 160 MB/s bus", sh8)
	}
	sh1 := cell(t, tb.Rows[0][2])
	if sh1 < raw1*0.9 {
		t.Errorf("one sled should not be bus-limited: %g vs %g", sh1, raw1)
	}
}

func TestStripingStudyShape(t *testing.T) {
	ts := run(t, "striping", tiny())
	tb := ts[0]
	if len(tb.Rows) != 5 {
		t.Fatalf("rows = %d", len(tb.Rows))
	}
	num := func(s string) float64 {
		if s == "—" {
			return 1e12 // saturated
		}
		return cell(t, s)
	}
	// At every rate, more sleds never respond slower; at 4000 req/s one
	// sled is saturated while four sleds are comfortable.
	for _, row := range tb.Rows {
		one, two, four := num(row[1]), num(row[2]), num(row[3])
		if two > one*1.2 || four > two*1.2 {
			t.Errorf("striping made things worse: %v", row)
		}
	}
	r4k := tb.Rows[2]
	if num(r4k[1]) < 10*num(r4k[3]) {
		t.Errorf("at 4000 req/s, 4 sleds (%v) should be ≫ faster than 1 (%v)", r4k[3], r4k[1])
	}
}

func TestSeekProfileShape(t *testing.T) {
	ts := run(t, "seekprofile", tiny())
	if len(ts) != 2 {
		t.Fatalf("tables = %d", len(ts))
	}
	memsT := ts[0]
	// X seeks grow with distance, and the edge interval is never faster
	// than the centered one (§2.4.4 / §5.1).
	prevC, prevE := 0.0, 0.0
	for _, row := range memsT.Rows {
		c, e := cell(t, row[1]), cell(t, row[2])
		if c < prevC || e < prevE {
			t.Errorf("seek curve not monotone: %v", memsT.Rows)
		}
		if e+1e-9 < c {
			t.Errorf("edge interval (%g) faster than centered (%g)", e, c)
		}
		prevC, prevE = c, e
	}
	// The disk curve is monotone and spans ≈1–10.5 ms.
	diskT := ts[1]
	first := cell(t, diskT.Rows[0][1])
	last := cell(t, diskT.Rows[len(diskT.Rows)-1][1])
	if first < 0.5 || first > 1.5 || last < 9 || last > 12 {
		t.Errorf("disk seek extremes = %g…%g", first, last)
	}
}

func TestFaultInjectShape(t *testing.T) {
	ts := run(t, "faultinject", tiny())
	if len(ts) != 2 {
		t.Fatalf("tables = %d", len(ts))
	}
	a, b := ts[0], ts[1]
	if a.ID != "faultinject-a" || b.ID != "faultinject-b" {
		t.Fatalf("table IDs = %s, %s", a.ID, b.ID)
	}
	if len(a.Rows) != len(transientRates) || len(b.Rows) != len(tipFailureCounts) {
		t.Fatalf("rows = %d/%d", len(a.Rows), len(b.Rows))
	}
	// §6.1.3 asymmetry, end to end through the simulator: wherever both
	// devices retried, the disk's per-error recovery cost (re-seek plus
	// rotational re-miss) must exceed the MEMS cost (turnarounds plus a
	// short X seek).
	compared := 0
	for _, row := range a.Rows {
		if row[4] == "-" || row[8] == "-" {
			continue
		}
		memsCost, diskCost := cell(t, row[4]), cell(t, row[8])
		if diskCost <= memsCost {
			t.Errorf("rate %s: disk ms/error %g ≤ MEMS %g", row[0], diskCost, memsCost)
		}
		compared++
	}
	if compared == 0 {
		t.Error("no rate row produced retries on both devices")
	}
	// Tip-failure sweep: small failure counts are fully absorbed by
	// spares; the largest drains the pool and forces degraded reads.
	if got := cell(t, b.Rows[0][3]); got != 0 {
		t.Errorf("k=%d: %g degraded reads despite spare cover", tipFailureCounts[0], got)
	}
	last := b.Rows[len(b.Rows)-1]
	if cell(t, last[1]) == 0 || cell(t, last[2]) == 0 || cell(t, last[3]) == 0 {
		t.Errorf("largest failure count produced no degraded-mode service: %v", last)
	}
}

func TestRebuildShape(t *testing.T) {
	ts := run(t, "rebuild", tiny())
	if len(ts) != 3 {
		t.Fatalf("tables = %d, want 3", len(ts))
	}
	sweep := ts[0]
	// Four fixed throttle fractions plus the adaptive policy row.
	if len(sweep.Rows) != 5 {
		t.Fatalf("throttle rows = %d, want 5", len(sweep.Rows))
	}
	if got := sweep.Rows[4][0]; got != "adaptive" {
		t.Fatalf("last sweep row = %q, want the adaptive policy", got)
	}
	var prevMEMS float64
	for i, row := range sweep.Rows {
		memsMTTR, diskMTTR := cell(t, row[1]), cell(t, row[2])
		// The headline claim: at equal per-member capacity the MEMS volume
		// closes its vulnerability window well before the disk volume.
		if memsMTTR <= 0 || diskMTTR <= memsMTTR {
			t.Errorf("throttle %s: MEMS MTTR %g s vs disk %g s, want MEMS ≪ disk",
				row[0], memsMTTR, diskMTTR)
		}
		// Raising the throttle fraction must shorten the rebuild (the
		// adaptive row is not part of the fixed ordering).
		if i > 0 && i < 4 && memsMTTR >= prevMEMS {
			t.Errorf("throttle %s: MTTR %g s not below previous %g s", row[0], memsMTTR, prevMEMS)
		}
		prevMEMS = memsMTTR
		// A failover with a hot spare loses no requests.
		if row[5] != "0" {
			t.Errorf("throttle %s: lost requests = %s", row[0], row[5])
		}
	}
	// The adaptive policy must beat the fixed frontier somewhere: for at
	// least one fixed fraction it achieves equal-or-better MEMS MTTR and
	// equal-or-better MEMS degraded p95 (the fixed policy can only trade
	// one against the other).
	fg := ts[1]
	adMTTR, adP95 := cell(t, sweep.Rows[4][1]), cell(t, fg.Rows[4][2])
	dominated := false
	for i := 0; i < 4; i++ {
		if adMTTR <= cell(t, sweep.Rows[i][1]) && adP95 <= cell(t, fg.Rows[i][2]) {
			dominated = true
		}
	}
	if !dominated {
		t.Errorf("adaptive (MTTR %g s, degraded p95 %g ms) beats no fixed operating point",
			adMTTR, adP95)
	}
	// Degraded-mode foreground service costs more than healthy on both
	// device types, at every throttle.
	for _, row := range fg.Rows {
		if cell(t, row[2]) <= cell(t, row[1]) {
			t.Errorf("throttle %s: MEMS degraded p95 %s not above healthy %s", row[0], row[2], row[1])
		}
		if cell(t, row[4]) <= cell(t, row[3]) {
			t.Errorf("throttle %s: disk degraded p95 %s not above healthy %s", row[0], row[4], row[3])
		}
	}
	// Mirror volume: same ordering between device types.
	mir := ts[2]
	if len(mir.Rows) != 2 {
		t.Fatalf("mirror rows = %d, want 2", len(mir.Rows))
	}
	if cell(t, mir.Rows[1][1]) <= cell(t, mir.Rows[0][1]) {
		t.Errorf("mirror: disk MTTR %s not above MEMS %s", mir.Rows[1][1], mir.Rows[0][1])
	}
}

func TestRebuildPolicyModes(t *testing.T) {
	// "fixed" reproduces the historical sweep alone; "adaptive" is the
	// fast smoke path — one policy row, no mirror table.
	p := tiny()
	p.RebuildPolicy = "fixed"
	ts, err := Run("rebuild", p)
	if err != nil {
		t.Fatal(err)
	}
	if len(ts) != 3 || len(ts[0].Rows) != 4 {
		t.Fatalf("fixed mode: %d tables, %d sweep rows; want 3 tables, 4 rows",
			len(ts), len(ts[0].Rows))
	}
	p.RebuildPolicy = "adaptive"
	ts, err = Run("rebuild", p)
	if err != nil {
		t.Fatal(err)
	}
	if len(ts) != 2 || len(ts[0].Rows) != 1 || ts[0].Rows[0][0] != "adaptive" {
		t.Fatalf("adaptive mode: %d tables, rows %v; want 2 tables with one adaptive row",
			len(ts), ts[0].Rows)
	}
	if mttr := cell(t, ts[0].Rows[0][1]); mttr <= 0 {
		t.Errorf("adaptive MEMS MTTR = %g s", mttr)
	}
}

func TestMTTDLShape(t *testing.T) {
	ts := run(t, "mttdl", tiny())
	if len(ts) != 1 {
		t.Fatalf("tables = %d, want 1", len(ts))
	}
	tbl := ts[0]
	if len(tbl.Rows) != 2 {
		t.Fatalf("rows = %d, want mirror + parity", len(tbl.Rows))
	}
	for _, row := range tbl.Rows {
		memsW, diskW := cell(t, row[1]), cell(t, row[2])
		memsL, diskL := cell(t, row[3]), cell(t, row[4])
		ratio := cell(t, row[5])
		if memsW <= 0 || diskW <= memsW {
			t.Errorf("%s: windows MEMS %g s / disk %g s, want 0 < MEMS < disk", row[0], memsW, diskW)
		}
		if memsL <= 0 || diskL <= 0 || memsL <= diskL {
			t.Errorf("%s: MTTDL MEMS %g h / disk %g h, want MEMS > disk > 0", row[0], memsL, diskL)
		}
		// Common random numbers tie the MTTDL ratio to the window ratio:
		// the same lifetime draws are replayed against both windows, so
		// the estimate concentrates near diskW/memsW even at test-scale
		// trial counts.
		wratio := diskW / memsW
		if ratio < wratio*0.7 || ratio > wratio*1.3 {
			t.Errorf("%s: MTTDL ratio %g far from window ratio %g", row[0], ratio, wratio)
		}
		if c := cell(t, row[6]); c != 0 {
			t.Errorf("%s: %g censored trials at test scale", row[0], c)
		}
	}

	// Same seed, same bytes: the artifact is deterministic.
	var a, b bytes.Buffer
	for _, tb := range run(t, "mttdl", tiny()) {
		tb.CSV(&a)
	}
	for _, tb := range run(t, "mttdl", tiny()) {
		tb.CSV(&b)
	}
	if a.String() != b.String() {
		t.Error("mttdl output not deterministic")
	}
}

func TestSchedCostShape(t *testing.T) {
	ts := run(t, "schedcost", tiny())
	if len(ts) != 2 {
		t.Fatalf("tables = %d, want 2", len(ts))
	}
	a := ts[0]
	// Two devices × the standard SPTF/SettleAware pair.
	if len(a.Rows) != 4 {
		t.Fatalf("comparison rows = %d, want 4", len(a.Rows))
	}
	for _, row := range a.Rows {
		mean, p95, p99 := cell(t, row[2]), cell(t, row[3]), cell(t, row[4])
		if mean <= 0 || p95 < mean || p99 < p95 {
			t.Errorf("%s/%s: mean %g / p95 %g / p99 %g not ordered", row[0], row[1], mean, p95, p99)
		}
		if cell(t, row[5]) <= 0 || cell(t, row[6]) <= 0 {
			t.Errorf("%s/%s: empty phase breakdown: %v", row[0], row[1], row)
		}
	}

	// The acceptance claim: class-aware Priority member queues bound the
	// degraded-read tail below raw SPTF on at least one rebuild
	// operating point.
	b := ts[1]
	if len(b.Rows) != 2 {
		t.Fatalf("degraded rows = %d, want 2", len(b.Rows))
	}
	better := false
	for _, row := range b.Rows {
		sptf, prio := cell(t, row[1]), cell(t, row[2])
		if sptf <= 0 || prio <= 0 {
			t.Fatalf("throttle %s: empty degraded-read tail: %v", row[0], row)
		}
		if cell(t, row[5]) <= 0 {
			t.Fatalf("throttle %s: no degraded reads measured", row[0])
		}
		if prio < sptf {
			better = true
		}
	}
	if !better {
		t.Errorf("Priority never beat SPTF degraded-read p99: %v", b.Rows)
	}

	// Same seed, same bytes: the artifact is deterministic.
	var x, y bytes.Buffer
	for _, tb := range run(t, "schedcost", tiny()) {
		tb.CSV(&x)
	}
	for _, tb := range run(t, "schedcost", tiny()) {
		tb.CSV(&y)
	}
	if x.String() != y.String() {
		t.Error("schedcost output not deterministic")
	}
}

func TestSchedCostResponseBounded(t *testing.T) {
	// schedcost keeps its response distribution outside any
	// PhaseCollector; past stats.Dist's exact limit (1<<19
	// observations) it holds a sketch like every other Dist.
	const n = 1<<19 + 1
	rp := &respProbe{}
	ev := sim.ProbeEvent{Kind: sim.EventComplete, Measured: true, Req: &core.Request{Finish: 1.5}}
	for i := 0; i < n; i++ {
		rp.Observe(ev)
	}
	if rp.d.N() != n || rp.d.Retained() != 0 {
		t.Errorf("after %d completions: n=%d retained=%d, want 0 retained", n, rp.d.N(), rp.d.Retained())
	}
	if p99 := rp.d.P99(); p99 < 1.5*0.98 || p99 > 1.5*1.02 {
		t.Errorf("p99 = %g, want 1.5 within 2%%", p99)
	}
}

func TestSchedCostExtraSched(t *testing.T) {
	p := tiny()
	p.Sched = "Priority"
	ts := run(t, "schedcost", p)
	// Two devices × (standard pair + the -sched extra).
	if len(ts[0].Rows) != 6 {
		t.Fatalf("rows with extra policy = %d, want 6", len(ts[0].Rows))
	}
	// Naming an already-present policy must not duplicate it.
	p.Sched = "SettleAware"
	if ts := run(t, "schedcost", p); len(ts[0].Rows) != 4 {
		t.Fatalf("rows with duplicate policy = %d, want 4", len(ts[0].Rows))
	}
}

func TestRebuildMemberSched(t *testing.T) {
	// The rebuild experiment honors Params.MemberSched: swapping the
	// member queues to Priority still completes every rebuild and loses
	// nothing.
	p := tiny()
	p.MemberSched = "Priority"
	p.RebuildPolicy = "adaptive"
	ts := run(t, "rebuild", p)
	sweep := ts[0]
	if len(sweep.Rows) != 1 {
		t.Fatalf("adaptive-only rows = %d, want 1", len(sweep.Rows))
	}
	if mttr := cell(t, sweep.Rows[0][1]); mttr <= 0 {
		t.Errorf("MEMS MTTR = %g s under Priority member queues", mttr)
	}
	if sweep.Rows[0][5] != "0" {
		t.Errorf("lost requests = %s under Priority member queues", sweep.Rows[0][5])
	}
}
