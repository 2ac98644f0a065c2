package experiments

import (
	"bytes"
	"math"
	"strconv"
	"strings"
	"testing"

	"memsim/internal/runner"
)

// tiny returns parameters small enough for unit tests; the shape
// assertions below hold even at this scale.
func tiny() Params {
	return Params{Requests: 1200, Warmup: 150, ClosedRequests: 600, Trials: 100, Seed: 1}
}

// run executes one registered artifact through Run, failing the test on
// any error.
func run(t *testing.T, id string, p Params) []Table {
	t.Helper()
	ts, err := Run(id, p)
	if err != nil {
		t.Fatal(err)
	}
	return ts
}

// cell parses a numeric table cell (stripping %, /, etc. is the caller's
// job).
func cell(t *testing.T, s string) float64 {
	t.Helper()
	v, err := strconv.ParseFloat(strings.TrimSuffix(s, "%"), 64)
	if err != nil {
		t.Fatalf("unparseable cell %q: %v", s, err)
	}
	return v
}

func TestRegistry(t *testing.T) {
	ids := IDs()
	want := []string{"aging", "bus", "cache", "fault", "faultinject", "fig10", "fig11", "fig5", "fig6", "fig7", "fig8", "fig9", "generations", "mttdl", "phases", "power", "raid", "rebuild", "remap", "schedcost", "seekprofile", "shuffle", "startup", "striping", "table1", "table2"}
	if len(ids) != len(want) {
		t.Fatalf("IDs = %v, want %v", ids, want)
	}
	for i := range want {
		if ids[i] != want[i] {
			t.Fatalf("IDs = %v, want %v", ids, want)
		}
	}
	if _, err := Run("fig99", tiny()); err == nil {
		t.Error("expected error for unknown experiment")
	}
}

func TestTableRendering(t *testing.T) {
	tb := Table{ID: "x", Title: "demo", Columns: []string{"a", "b"}}
	tb.AddRow("1", "hello,world")
	var buf bytes.Buffer
	tb.Fprint(&buf)
	out := buf.String()
	if !strings.Contains(out, "demo") || !strings.Contains(out, "hello,world") {
		t.Errorf("Fprint output:\n%s", out)
	}
	buf.Reset()
	tb.CSV(&buf)
	if !strings.Contains(buf.String(), `"hello,world"`) {
		t.Errorf("CSV should quote commas:\n%s", buf.String())
	}
}

func TestTable1Anchors(t *testing.T) {
	ts := run(t, "table1", tiny())
	if len(ts) != 2 {
		t.Fatalf("tables = %d", len(ts))
	}
	var joined strings.Builder
	for _, tb := range ts {
		tb.Fprint(&joined)
	}
	out := joined.String()
	for _, anchor := range []string{"6400", "1280", "79.6 MB/s", "3.456 GB", "739 Hz", "75%"} {
		if !strings.Contains(out, anchor) {
			t.Errorf("Table 1 output missing anchor %q", anchor)
		}
	}
}

func TestFig5Shape(t *testing.T) {
	p := tiny()
	ts := run(t, "fig5", p)
	if len(ts) != 2 || ts[0].ID != "fig5a" || ts[1].ID != "fig5b" {
		t.Fatalf("unexpected tables %v", ts)
	}
	a := ts[0]
	// Columns: rate, FCFS, SSTF_LBN, C-LOOK, SPTF.
	last := a.Rows[len(a.Rows)-1]
	fcfs, sstf, clook, sptf := cell(t, last[1]), cell(t, last[2]), cell(t, last[3]), cell(t, last[4])
	if !(sptf < fcfs && sstf < fcfs && clook < fcfs) {
		t.Errorf("at saturation all schedulers must beat FCFS: %v", last)
	}
	if sptf > sstf {
		t.Errorf("SPTF (%g) should beat SSTF_LBN (%g) on disk at high load", sptf, sstf)
	}
	// FCFS saturates: response at the top rate far exceeds light load.
	first := a.Rows[0]
	if cell(t, last[1]) < 10*cell(t, first[1]) {
		t.Errorf("FCFS did not saturate: %v vs %v", first, last)
	}
}

func TestFig6Shape(t *testing.T) {
	ts := run(t, "fig6", tiny())
	a, b := ts[0], ts[1]
	// At light load all schedulers are sub-millisecond — an order of
	// magnitude below the disk.
	for i := 1; i <= 4; i++ {
		if v := cell(t, a.Rows[0][i]); v > 1.5 {
			t.Errorf("light-load MEMS response %g ms too high", v)
		}
	}
	// FCFS saturates before the others.
	last := a.Rows[len(a.Rows)-1]
	if !(cell(t, last[2]) < cell(t, last[1]) && cell(t, last[3]) < cell(t, last[1])) {
		t.Errorf("FCFS should saturate first: %v", last)
	}
	// C-LOOK has the best starvation resistance among the seek-aware
	// schedulers at the top rate (Fig. 6b).
	lastCV := b.Rows[len(b.Rows)-1]
	if cell(t, lastCV[3]) > cell(t, lastCV[2]) {
		t.Errorf("C-LOOK cv² (%v) should beat SSTF_LBN (%v)", lastCV[3], lastCV[2])
	}
}

func TestFig7Shape(t *testing.T) {
	ts := run(t, "fig7", tiny())
	if len(ts) != 4 {
		t.Fatalf("tables = %d", len(ts))
	}
	for _, tb := range []Table{ts[0], ts[2]} {
		// Response grows with scale for every scheduler, and SPTF beats
		// FCFS at the top scale.
		first, last := tb.Rows[0], tb.Rows[len(tb.Rows)-1]
		for i := 1; i <= 4; i++ {
			if cell(t, last[i]) < cell(t, first[i]) {
				t.Errorf("%s: response shrank with scale: %v vs %v", tb.ID, first, last)
			}
		}
		if cell(t, last[4]) > cell(t, last[1]) {
			t.Errorf("%s: SPTF should beat FCFS at top scale: %v", tb.ID, last)
		}
	}
	// §4.3: SPTF's margin over the LBN schedulers is larger on TPC-C
	// than on Cello.
	cello, tpcc := ts[0], ts[2]
	lastC := cello.Rows[len(cello.Rows)-1]
	lastT := tpcc.Rows[len(tpcc.Rows)-1]
	marginC := cell(t, lastC[2]) / cell(t, lastC[4]) // SSTF / SPTF
	marginT := cell(t, lastT[2]) / cell(t, lastT[4])
	if marginT < marginC {
		t.Errorf("SPTF margin on TPC-C (%.2f) should exceed Cello (%.2f)", marginT, marginC)
	}
}

func TestFig8Shape(t *testing.T) {
	ts := run(t, "fig8", tiny())
	if len(ts) != 4 {
		t.Fatalf("tables = %d", len(ts))
	}
	settle0 := ts[0]
	settle2 := ts[2]
	// §4.4: with zero settling, SPTF wins by a large margin at high
	// rates; with two constants SSTF_LBN closely approximates (or beats)
	// SPTF.
	last0 := settle0.Rows[len(settle0.Rows)-1]
	if r := cell(t, last0[2]) / cell(t, last0[4]); r < 2 {
		t.Errorf("settle=0: SSTF/SPTF = %.2f, want SPTF winning by ≥2×", r)
	}
	last2 := settle2.Rows[len(settle2.Rows)-1]
	if r := cell(t, last2[2]) / cell(t, last2[4]); r < 0.7 || r > 1.5 {
		t.Errorf("settle=2: SSTF/SPTF = %.2f, want ≈ 1 (SSTF approximates SPTF)", r)
	}
}

func TestFig9Shape(t *testing.T) {
	ts := run(t, "fig9", tiny())
	tb := ts[0]
	if len(tb.Rows) != 5 || len(tb.Rows[0]) != 6 {
		t.Fatalf("grid is %dx%d", len(tb.Rows), len(tb.Rows[0]))
	}
	parse := func(s string) (with, without float64) {
		parts := strings.Split(s, "/")
		return cell(t, parts[0]), cell(t, parts[1])
	}
	centerW, centerN := parse(tb.Rows[2][3]) // y2, x2
	cornerW, cornerN := parse(tb.Rows[0][1]) // y0, x0
	if cornerW <= centerW || cornerN <= centerN {
		t.Errorf("corner (%.3f/%.3f) should be slower than center (%.3f/%.3f)",
			cornerW, cornerN, centerW, centerN)
	}
	// §5.1: 10–20% spread between centermost and outermost (no-settle
	// amplifies it); allow a broad band.
	if r := cornerN/centerN - 1; r < 0.03 || r > 0.35 {
		t.Errorf("no-settle corner/center spread = %.1f%%, want ≈ 10–20%%", r*100)
	}
	// Settle strictly increases every cell.
	for _, row := range tb.Rows {
		for _, c := range row[1:] {
			w, n := parse(c)
			if w <= n {
				t.Errorf("settle did not increase service: %s", c)
			}
		}
	}
}

func TestFig10Shape(t *testing.T) {
	ts := run(t, "fig10", tiny())
	tb := ts[0]
	base := cell(t, tb.Rows[0][1])
	last := cell(t, tb.Rows[len(tb.Rows)-1][1])
	penalty := last/base - 1
	// §5.2: full-stroke X seeks add only ≈10–12%.
	if penalty < 0.05 || penalty > 0.20 {
		t.Errorf("full-stroke penalty = %.1f%%, want ≈ 10–12%%", penalty*100)
	}
	// Service time is non-decreasing in distance (within noise).
	prev := 0.0
	for _, row := range tb.Rows {
		v := cell(t, row[1])
		if v < prev*0.98 {
			t.Errorf("service decreased with distance: %v", tb.Rows)
		}
		prev = v
	}
}

func TestFig11RequestCount(t *testing.T) {
	// Each fig11 job serves the paper's 10 000 reads, or ClosedRequests
	// when that is fewer: the Bipartite source's count bounds the run.
	for _, tc := range []struct{ closed, want int }{{600, 600}, {12000, 10000}} {
		p := tiny()
		p.ClosedRequests = tc.closed
		pl, err := PlanFor("fig11", p)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := (&runner.Context{Workers: 2}).Run(pl.Jobs); err != nil {
			t.Fatal(err)
		}
		for _, j := range pl.Jobs {
			if n := result(j).Requests; n != tc.want {
				t.Errorf("ClosedRequests %d: job %q served %d requests, want %d", tc.closed, j.Label, n, tc.want)
			}
		}
	}
}

func TestFig11Shape(t *testing.T) {
	ts := run(t, "fig11", tiny())
	tb := ts[0]
	if len(tb.Rows) != 10 {
		t.Fatalf("rows = %d", len(tb.Rows))
	}
	get := func(device, layout string) float64 {
		for _, row := range tb.Rows {
			if row[0] == device && row[1] == layout {
				return cell(t, row[2])
			}
		}
		t.Fatalf("missing row %s/%s", device, layout)
		return 0
	}
	// All placement schemes beat simple on MEMS.
	simple := get("MEMS", "simple")
	for _, l := range []string{"organ-pipe", "columnar", "subregioned"} {
		if get("MEMS", l) >= simple {
			t.Errorf("%s (%.3f) should beat simple (%.3f) on MEMS", l, get("MEMS", l), simple)
		}
	}
	// On the no-settle device, subregioned (the only layout optimizing
	// both X and Y) is strictly the best — the paper's headline that the
	// optimal disk layout is not optimal for MEMS.
	sub := get("MEMS-nosettle", "subregioned")
	for _, l := range []string{"simple", "organ-pipe", "columnar"} {
		if sub >= get("MEMS-nosettle", l) {
			t.Errorf("subregioned (%.3f) should beat %s (%.3f) on no-settle MEMS",
				sub, l, get("MEMS-nosettle", l))
		}
	}
	// Organ pipe helps the disk.
	if get("Atlas10K", "organ-pipe") >= get("Atlas10K", "simple") {
		t.Error("organ pipe should help the disk")
	}
}

func TestTable2Shape(t *testing.T) {
	ts := run(t, "table2", tiny())
	tb := ts[0]
	// Rows: read, reposition, write, total; columns 1..4 as labeled.
	find := func(name string) []string {
		for _, row := range tb.Rows {
			if row[0] == name {
				return row
			}
		}
		t.Fatalf("missing row %q", name)
		return nil
	}
	rep := find("reposition")
	total := find("total")
	// Disk ×8 reposition ≈ a (nearly) full rotation; MEMS ≈ one
	// turnaround, two orders of magnitude less.
	disk8, mems8 := cell(t, rep[1]), cell(t, rep[3])
	if disk8 < 5 || disk8 > 6.2 {
		t.Errorf("disk ×8 reposition = %g ms, want ≈ 5.8–6.0", disk8)
	}
	if mems8 > 0.3 {
		t.Errorf("MEMS ×8 reposition = %g ms, want ≈ 0.04–0.07", mems8)
	}
	// Track-length transfers: paper's anchors 12.00 (disk) and 4.45 (MEMS).
	disk334, mems334 := cell(t, total[2]), cell(t, total[4])
	if disk334 < 11 || disk334 > 13 {
		t.Errorf("disk ×334 total = %g ms, want ≈ 12", disk334)
	}
	if mems334 < 4 || mems334 > 5 {
		t.Errorf("MEMS ×334 total = %g ms, want ≈ 4.4", mems334)
	}
	// MEMS ×8 total ≈ 0.33 ms (paper).
	if v := cell(t, total[3]); v < 0.25 || v > 0.45 {
		t.Errorf("MEMS ×8 total = %g ms, want ≈ 0.33", v)
	}
}

func TestFaultShape(t *testing.T) {
	ts := run(t, "fault", tiny())
	if len(ts) != 4 {
		t.Fatalf("tables = %d", len(ts))
	}
	loss := ts[0]
	// k=1: the disk-like configuration always loses data; all redundant
	// configurations never do.
	first := loss.Rows[0]
	if cell(t, first[1]) != 1 {
		t.Errorf("disk-like P(loss|1) = %v, want 1", first[1])
	}
	for i := 2; i <= 4; i++ {
		if cell(t, first[i]) != 0 {
			t.Errorf("redundant config %d P(loss|1) = %v, want 0", i, first[i])
		}
	}
	// Loss probability is non-decreasing down each column.
	for col := 1; col <= 4; col++ {
		prev := -1.0
		for _, row := range loss.Rows {
			v := cell(t, row[col])
			if v < prev-0.05 { // Monte-Carlo noise tolerance
				t.Errorf("column %d not monotone: %v", col, loss.Rows)
			}
			prev = v
		}
	}
	// Remap neutrality: every track shows the identical service time.
	remap := ts[2]
	base := remap.Rows[0][1]
	for _, row := range remap.Rows {
		if row[1] != base {
			t.Errorf("remap timing differs across tip groups: %v", remap.Rows)
		}
	}
}

func TestPowerShape(t *testing.T) {
	ts := run(t, "power", tiny())
	tb := ts[0]
	get := func(device, policy string) []string {
		for _, row := range tb.Rows {
			if row[0] == device && row[1] == policy {
				return row
			}
		}
		t.Fatalf("missing row %s/%s", device, policy)
		return nil
	}
	memsIdle := get("MEMS", "immediate idle")
	memsOn := get("MEMS", "always on")
	// Aggressive idling saves energy on MEMS…
	if cell(t, memsIdle[2]) >= cell(t, memsOn[2]) {
		t.Errorf("MEMS immediate idle should save energy: %v vs %v", memsIdle, memsOn)
	}
	// …at a sub-millisecond mean response cost.
	if cell(t, memsIdle[6])-cell(t, memsOn[6]) > 1.0 {
		t.Errorf("MEMS idle penalty too high: %v vs %v", memsIdle, memsOn)
	}
	// The mobile disk's immediate spin-down devastates response time.
	diskIdle := get("mobile disk", "immediate spin-down")
	diskOn := get("mobile disk", "always on")
	if cell(t, diskIdle[6]) < 5*cell(t, diskOn[6]) {
		t.Errorf("disk immediate spin-down should blow up response: %v vs %v", diskIdle, diskOn)
	}
}

func TestRunAllProducesEveryArtifact(t *testing.T) {
	if testing.Short() {
		t.Skip("full suite in -short mode")
	}
	seen := map[string]bool{}
	for _, ts := range batch(t, runner.Sequential(), IDs(), tiny()) {
		for _, tb := range ts {
			seen[tb.ID] = true
			if len(tb.Rows) == 0 || len(tb.Columns) == 0 {
				t.Errorf("table %s is empty", tb.ID)
			}
		}
	}
	for _, id := range []string{"table1", "fig5a", "fig5b", "fig6a", "fig6b",
		"fig7a", "fig7b", "fig8-settle0a", "fig8-settle2a", "fig9", "fig10",
		"fig11", "table2", "fault-loss", "power", "raid", "cache", "aging", "remap",
		"generations", "startup", "startup-sync", "power-compress", "shuffle", "bus", "striping",
		"seekprofile-mems", "seekprofile-disk"} {
		if !seen[id] {
			t.Errorf("missing artifact %s", id)
		}
	}
}

func TestPhasesShape(t *testing.T) {
	ts := run(t, "phases", tiny())
	if len(ts) != 2 || ts[0].ID != "phasesa" || ts[1].ID != "phasesb" {
		t.Fatalf("unexpected tables %v", ts)
	}
	a, b := ts[0], ts[1]
	if len(a.Rows) != 8 || len(b.Rows) != 8 { // 2 devices × 4 schedulers
		t.Fatalf("rows = %d/%d, want 8/8", len(a.Rows), len(b.Rows))
	}
	for i, row := range a.Rows {
		// Columns: device, sched, seek, settle/rot, turnarnd, transfer,
		// overhead, position, service. Position and service must reconcile
		// with their parts up to the 3-decimal rendering.
		seek, settle, turn := cell(t, row[2]), cell(t, row[3]), cell(t, row[4])
		xfer, ovh, pos, svc := cell(t, row[5]), cell(t, row[6]), cell(t, row[7]), cell(t, row[8])
		if math.Abs(pos-(seek+settle+turn)) > 0.003 {
			t.Errorf("row %d: position %g != seek+settle+turnaround %g", i, pos, seek+settle+turn)
		}
		if math.Abs(svc-(pos+xfer+ovh)) > 0.003 {
			t.Errorf("row %d: service %g != position+transfer+overhead %g", i, svc, pos+xfer+ovh)
		}
	}
	// The paper's decomposition argument: MEMS service is several times
	// smaller than disk service, and positioning dominates the disk far
	// more than the MEMS device (pos share, last column of panel b).
	memsSvc, diskSvc := cell(t, a.Rows[0][8]), cell(t, a.Rows[4][8])
	if diskSvc < 5*memsSvc {
		t.Errorf("disk service %g not ≫ MEMS %g", diskSvc, memsSvc)
	}
	memsShare, diskShare := cell(t, b.Rows[0][6]), cell(t, b.Rows[4][6])
	if !(memsShare > 0 && memsShare < 1 && diskShare > memsShare) {
		t.Errorf("pos shares mems=%g disk=%g", memsShare, diskShare)
	}
	// Tails are ordered: p95 ≤ p99 for both positioning and service.
	for i, row := range b.Rows {
		if cell(t, row[2]) > cell(t, row[3]) || cell(t, row[4]) > cell(t, row[5]) {
			t.Errorf("row %d: percentile inversion %v", i, row)
		}
	}
}
