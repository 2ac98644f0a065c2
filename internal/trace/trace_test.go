package trace

import (
	"bytes"
	"math"
	"strings"
	"testing"

	"memsim/internal/core"
)

const testCapacity = int64(6750000) // default MEMS device

func TestScale(t *testing.T) {
	tr := &Trace{Name: "t", Records: []Record{
		{TimeMs: 10, Op: core.Read, LBN: 0, Blocks: 8},
		{TimeMs: 20, Op: core.Write, LBN: 8, Blocks: 8},
	}}
	s := tr.Scale(2)
	if s.Records[0].TimeMs != 5 || s.Records[1].TimeMs != 10 {
		t.Errorf("scaled times = %g, %g", s.Records[0].TimeMs, s.Records[1].TimeMs)
	}
	// Original unchanged.
	if tr.Records[0].TimeMs != 10 {
		t.Error("Scale mutated the original")
	}
	if !strings.Contains(s.Name, "x2") {
		t.Errorf("scaled name = %q", s.Name)
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Error("expected panic for non-positive factor")
			}
		}()
		tr.Scale(0)
	}()
}

func TestClip(t *testing.T) {
	tr := &Trace{Records: make([]Record, 100)}
	if got := tr.Clip(10).Len(); got != 10 {
		t.Errorf("Clip(10).Len() = %d", got)
	}
	if got := tr.Clip(1000); got != tr {
		t.Error("Clip beyond length should return the trace itself")
	}
}

func TestValidate(t *testing.T) {
	good := &Trace{Records: []Record{
		{TimeMs: 1, LBN: 0, Blocks: 8},
		{TimeMs: 2, LBN: 100, Blocks: 8},
	}}
	if err := good.Validate(1000); err != nil {
		t.Errorf("valid trace rejected: %v", err)
	}
	bad := []*Trace{
		{Records: []Record{{TimeMs: 2}, {TimeMs: 1}}},         // out of order
		{Records: []Record{{TimeMs: 1, LBN: 0, Blocks: 0}}},   // zero blocks
		{Records: []Record{{TimeMs: 1, LBN: -1, Blocks: 8}}},  // negative lbn
		{Records: []Record{{TimeMs: 1, LBN: 999, Blocks: 8}}}, // beyond capacity
	}
	for i, tr := range bad {
		// give each bad record a plausible sibling field
		for j := range tr.Records {
			if tr.Records[j].Blocks == 0 && i != 1 {
				tr.Records[j].Blocks = 8
			}
		}
		if err := tr.Validate(1000); err == nil {
			t.Errorf("case %d: expected validation error", i)
		}
	}
}

func TestRoundTrip(t *testing.T) {
	tr := GenerateCello(DefaultCello(testCapacity, 500))
	var buf bytes.Buffer
	if err := Write(&buf, tr); err != nil {
		t.Fatal(err)
	}
	got, err := Read(&buf, tr.Name)
	if err != nil {
		t.Fatal(err)
	}
	if got.Len() != tr.Len() {
		t.Fatalf("round trip lost records: %d vs %d", got.Len(), tr.Len())
	}
	for i := range tr.Records {
		a, b := tr.Records[i], got.Records[i]
		if math.Abs(a.TimeMs-b.TimeMs) > 1e-5 || a.Op != b.Op || a.LBN != b.LBN || a.Blocks != b.Blocks {
			t.Fatalf("record %d mismatch: %+v vs %+v", i, a, b)
		}
	}
}

func TestReadErrors(t *testing.T) {
	cases := []string{
		"1.0 r 5",       // too few fields
		"x r 5 8",       // bad time
		"1.0 q 5 8",     // bad op
		"1.0 r five 8",  // bad lbn
		"1.0 r 5 eight", // bad blocks
	}
	for _, line := range cases {
		if _, err := Read(strings.NewReader(line), "bad"); err == nil {
			t.Errorf("expected error for %q", line)
		}
	}
	// Comments and blank lines are fine.
	tr, err := Read(strings.NewReader("# hello\n\n1.5 w 10 4\n"), "ok")
	if err != nil {
		t.Fatal(err)
	}
	if tr.Len() != 1 || tr.Records[0].Op != core.Write || tr.Records[0].LBN != 10 {
		t.Fatalf("parsed %+v", tr.Records)
	}
}

func TestCelloProperties(t *testing.T) {
	tr := GenerateCello(DefaultCello(testCapacity, 20000))
	if err := tr.Validate(testCapacity); err != nil {
		t.Fatal(err)
	}
	s := tr.Summarize()
	if s.Records != 20000 {
		t.Fatalf("records = %d", s.Records)
	}
	// Write-heavy mix.
	readFrac := float64(s.Reads) / float64(s.Records)
	if readFrac < 0.40 || readFrac > 0.60 {
		t.Errorf("read fraction = %.2f, want ≈ 0.45–0.55", readFrac)
	}
	// Long-run rate near the configured mean (±50%: burstiness makes
	// the estimate noisy at this length).
	if s.MeanRate < 20 || s.MeanRate > 80 {
		t.Errorf("mean rate = %.1f req/s, want ≈ 40", s.MeanRate)
	}
	// Some sequential structure but not dominant.
	if s.SeqFraction < 0.02 || s.SeqFraction > 0.6 {
		t.Errorf("sequential fraction = %.2f", s.SeqFraction)
	}
}

func TestCelloBurstiness(t *testing.T) {
	// The squared coefficient of variation of interarrival times must
	// exceed 1 (a Poisson process has exactly 1) — Cello is bursty.
	tr := GenerateCello(DefaultCello(testCapacity, 20000))
	var mean, m2 float64
	n := 0
	prev := 0.0
	for _, r := range tr.Records {
		gap := r.TimeMs - prev
		prev = r.TimeMs
		n++
		d := gap - mean
		mean += d / float64(n)
		m2 += d * (gap - mean)
	}
	cv2 := m2 / float64(n) / (mean * mean)
	if cv2 < 1.5 {
		t.Errorf("interarrival cv² = %.2f, want > 1.5 (bursty)", cv2)
	}
}

func TestCelloLocality(t *testing.T) {
	// Hot regions must absorb a large share of accesses: the most-touched
	// 10% of 1 MB buckets should hold most requests.
	tr := GenerateCello(DefaultCello(testCapacity, 20000))
	const bucket = 2048 // 1 MB in sectors
	counts := map[int64]int{}
	for _, r := range tr.Records {
		counts[r.LBN/bucket]++
	}
	var all []int
	total := 0
	for _, c := range counts {
		all = append(all, c)
		total += c
	}
	// Top 10% of buckets by count.
	top := 0
	threshold := len(all) / 10
	if threshold == 0 {
		threshold = 1
	}
	for i := 0; i < threshold; i++ {
		max, maxIdx := -1, -1
		for j, c := range all {
			if c > max {
				max, maxIdx = c, j
			}
		}
		top += max
		all[maxIdx] = -1
	}
	if frac := float64(top) / float64(total); frac < 0.4 {
		t.Errorf("top-10%% buckets hold %.0f%% of accesses, want ≥ 40%%", frac*100)
	}
}

func TestTPCCProperties(t *testing.T) {
	tr := GenerateTPCC(DefaultTPCC(testCapacity, 20000))
	if err := tr.Validate(testCapacity); err != nil {
		t.Fatal(err)
	}
	s := tr.Summarize()
	if s.Records != 20000 {
		t.Fatalf("records = %d", s.Records)
	}
	// Page-sized requests.
	if s.MeanBlocks != 16 {
		t.Errorf("mean blocks = %.1f, want 16 (8 KB pages)", s.MeanBlocks)
	}
	readFrac := float64(s.Reads) / float64(s.Records)
	if readFrac < 0.35 || readFrac > 0.60 {
		t.Errorf("read fraction = %.2f", readFrac)
	}
}

func TestTPCCSmallInterLBNDistances(t *testing.T) {
	// §4.3: the TPC-C workload's signature is many near-simultaneous
	// requests with very small inter-LBN distances. Check that among
	// requests arriving within 50 ms of each other, a substantial
	// fraction are within 4 MB of one another.
	tr := GenerateTPCC(DefaultTPCC(testCapacity, 20000))
	near, pairs := 0, 0
	for i := 1; i < len(tr.Records); i++ {
		a, b := tr.Records[i-1], tr.Records[i]
		if b.TimeMs-a.TimeMs > 50 {
			continue
		}
		pairs++
		d := a.LBN - b.LBN
		if d < 0 {
			d = -d
		}
		if d < 8192 { // 4 MB in sectors
			near++
		}
	}
	if pairs == 0 {
		t.Fatal("no near-simultaneous pairs generated")
	}
	if frac := float64(near) / float64(pairs); frac < 0.25 {
		t.Errorf("near-LBN fraction among concurrent pairs = %.2f, want ≥ 0.25", frac)
	}
}

func TestGeneratorsDeterministic(t *testing.T) {
	a := GenerateCello(DefaultCello(testCapacity, 1000))
	b := GenerateCello(DefaultCello(testCapacity, 1000))
	if a.Len() != b.Len() {
		t.Fatal("lengths differ")
	}
	for i := range a.Records {
		if a.Records[i] != b.Records[i] {
			t.Fatalf("cello records diverge at %d", i)
		}
	}
	c := GenerateTPCC(DefaultTPCC(testCapacity, 1000))
	d := GenerateTPCC(DefaultTPCC(testCapacity, 1000))
	for i := range c.Records {
		if c.Records[i] != d.Records[i] {
			t.Fatalf("tpcc records diverge at %d", i)
		}
	}
}

func TestGeneratorPanics(t *testing.T) {
	for _, f := range []func(){
		func() { GenerateCello(CelloConfig{}) },
		func() { GenerateTPCC(TPCCConfig{}) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("expected panic for zero config")
				}
			}()
			f()
		}()
	}
}

func TestSummarizeEmpty(t *testing.T) {
	var tr Trace
	s := tr.Summarize()
	if s.Records != 0 || s.MeanRate != 0 {
		t.Error("empty summary should be zeros")
	}
	if tr.Duration() != 0 {
		t.Error("empty duration should be 0")
	}
}

func TestRequestConversion(t *testing.T) {
	r := Record{TimeMs: 3, Op: core.Write, LBN: 42, Blocks: 7}
	req := r.Request()
	if req.Arrival != 3 || req.Op != core.Write || req.LBN != 42 || req.Blocks != 7 {
		t.Errorf("converted %+v", req)
	}
	tr := &Trace{Records: []Record{{TimeMs: 1, LBN: 5, Blocks: 1}, r}}
	reqs := tr.Requests()
	if len(reqs) != 2 || reqs[0].LBN != 5 || *reqs[1] != *req {
		t.Errorf("Trace.Requests = %+v", reqs)
	}
}
