// Package trace provides storage-trace infrastructure: a simple portable
// text format, readers and writers, arrival-rate scaling (the paper's
// "scale factor", §4.3 footnote 2), and deterministic synthetic
// generators that stand in for the proprietary traces the paper uses —
// HP's Cello file-server trace and a TPC-C database trace.
//
// The substitution rationale is documented in DESIGN.md §5: the paper's
// findings depend on trace *structure* (burstiness, locality, read/write
// mix, concurrent near-by requests), all of which the generators
// reproduce, not on the irreproducible byte-for-byte contents.
package trace

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"strconv"
	"strings"

	"memsim/internal/core"
)

// Record is one trace line: a timestamped request.
type Record struct {
	// TimeMs is the arrival time in milliseconds from trace start.
	TimeMs float64
	// Op is the request direction.
	Op core.Op
	// LBN is the starting logical block.
	LBN int64
	// Blocks is the number of sectors.
	Blocks int
}

// Request converts the record to a simulator request.
func (r Record) Request() *core.Request {
	return &core.Request{Arrival: r.TimeMs, Op: r.Op, LBN: r.LBN, Blocks: r.Blocks}
}

// Trace is an ordered sequence of records.
type Trace struct {
	Name    string
	Records []Record
}

// Requests converts every record into a fresh request, in trace order.
func (t *Trace) Requests() []*core.Request {
	reqs := make([]*core.Request, len(t.Records))
	for i, rec := range t.Records {
		reqs[i] = rec.Request()
	}
	return reqs
}

// Len reports the number of records.
func (t *Trace) Len() int { return len(t.Records) }

// Duration returns the arrival time of the last record in ms (0 if empty).
func (t *Trace) Duration() float64 {
	if len(t.Records) == 0 {
		return 0
	}
	return t.Records[len(t.Records)-1].TimeMs
}

// Scale returns a copy of the trace with every arrival time divided by
// factor, multiplying the average arrival rate by factor — the paper's
// mechanism for producing a range of workload intensities from one trace.
// It panics if factor is not positive and finite.
func (t *Trace) Scale(factor float64) *Trace {
	if !(factor > 0) || math.IsInf(factor, 1) {
		panic(fmt.Sprintf("trace: scale factor must be positive and finite, got %g", factor))
	}
	out := &Trace{Name: fmt.Sprintf("%s/x%g", t.Name, factor), Records: make([]Record, len(t.Records))}
	for i, r := range t.Records {
		r.TimeMs /= factor
		out.Records[i] = r
	}
	return out
}

// Clip returns a copy containing at most n records; experiments use it to
// bound simulation length. If n >= Len the trace itself is returned.
func (t *Trace) Clip(n int) *Trace {
	if n >= len(t.Records) {
		return t
	}
	return &Trace{Name: t.Name, Records: t.Records[:n]}
}

// Validate checks that times are non-decreasing and requests lie within
// the given capacity.
func (t *Trace) Validate(capacity int64) error {
	prev := 0.0
	for i, r := range t.Records {
		// NaN compares false against everything, so the explicit
		// finiteness check must come first or NaN times would sail
		// through the ordering test and panic the replay engine.
		if math.IsNaN(r.TimeMs) || math.IsInf(r.TimeMs, 0) {
			return fmt.Errorf("trace %s: record %d has non-finite time %v", t.Name, i, r.TimeMs)
		}
		if r.TimeMs < prev {
			return fmt.Errorf("trace %s: record %d time %g precedes %g", t.Name, i, r.TimeMs, prev)
		}
		prev = r.TimeMs
		if r.Blocks <= 0 {
			return fmt.Errorf("trace %s: record %d has %d blocks", t.Name, i, r.Blocks)
		}
		if r.LBN < 0 || r.LBN+int64(r.Blocks) > capacity {
			return fmt.Errorf("trace %s: record %d [%d,%d) outside capacity %d",
				t.Name, i, r.LBN, r.LBN+int64(r.Blocks), capacity)
		}
	}
	return nil
}

// sortByTime restores chronological order after generators merge streams.
func (t *Trace) sortByTime() {
	sort.SliceStable(t.Records, func(i, j int) bool {
		return t.Records[i].TimeMs < t.Records[j].TimeMs
	})
}

// Stats summarizes a trace for inspection tools.
type Stats struct {
	Records      int
	Reads        int
	DurationMs   float64
	MeanRate     float64 // requests/s
	MeanBlocks   float64
	MeanInterMs  float64
	SeqFraction  float64 // fraction of requests starting where the previous ended
	UniqueRegion int64   // span between lowest and highest touched LBN
}

// Summarize computes Stats.
func (t *Trace) Summarize() Stats {
	s := Stats{Records: len(t.Records)}
	if s.Records == 0 {
		return s
	}
	lo, hi := t.Records[0].LBN, t.Records[0].LBN
	var blocks int64
	seq := 0
	for i, r := range t.Records {
		if r.Op == core.Read {
			s.Reads++
		}
		blocks += int64(r.Blocks)
		if r.LBN < lo {
			lo = r.LBN
		}
		if end := r.LBN + int64(r.Blocks); end > hi {
			hi = end
		}
		if i > 0 && r.LBN == t.Records[i-1].LBN+int64(t.Records[i-1].Blocks) {
			seq++
		}
	}
	s.DurationMs = t.Duration()
	if s.DurationMs > 0 {
		s.MeanRate = float64(s.Records) / s.DurationMs * 1000
		s.MeanInterMs = s.DurationMs / float64(s.Records)
	}
	s.MeanBlocks = float64(blocks) / float64(s.Records)
	s.SeqFraction = float64(seq) / float64(s.Records)
	s.UniqueRegion = hi - lo
	return s
}

// ─── Text format ────────────────────────────────────────────────────────
//
// One record per line: "<time-ms> <r|w> <lbn> <blocks>", '#' comments and
// blank lines ignored. The format is trivially diffable and close to
// DiskSim's ASCII trace format.

// Write serializes the trace.
func Write(w io.Writer, t *Trace) error {
	bw := bufio.NewWriter(w)
	if _, err := fmt.Fprintf(bw, "# trace: %s (%d records)\n", t.Name, len(t.Records)); err != nil {
		return err
	}
	for _, r := range t.Records {
		op := 'r'
		if r.Op == core.Write {
			op = 'w'
		}
		if _, err := fmt.Fprintf(bw, "%.6f %c %d %d\n", r.TimeMs, op, r.LBN, r.Blocks); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// ReadFile reads the trace file at path, named after its path.
func ReadFile(path string) (*Trace, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return Read(f, path)
}

// Read parses a trace in the text format. The name is attached to the
// result for reporting.
func Read(r io.Reader, name string) (*Trace, error) {
	t := &Trace{Name: name}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		f := strings.Fields(line)
		if len(f) != 4 {
			return nil, fmt.Errorf("trace %s:%d: want 4 fields, got %d", name, lineNo, len(f))
		}
		tm, err := strconv.ParseFloat(f[0], 64)
		if err != nil {
			return nil, fmt.Errorf("trace %s:%d: bad time %q: %v", name, lineNo, f[0], err)
		}
		// ParseFloat accepts "NaN" and "Inf", which no valid trace
		// contains and which would corrupt every downstream time
		// computation; reject them at the parse boundary.
		if math.IsNaN(tm) || math.IsInf(tm, 0) {
			return nil, fmt.Errorf("trace %s:%d: non-finite time %q", name, lineNo, f[0])
		}
		var op core.Op
		switch f[1] {
		case "r", "R":
			op = core.Read
		case "w", "W":
			op = core.Write
		default:
			return nil, fmt.Errorf("trace %s:%d: bad op %q", name, lineNo, f[1])
		}
		lbn, err := strconv.ParseInt(f[2], 10, 64)
		if err != nil {
			return nil, fmt.Errorf("trace %s:%d: bad lbn %q: %v", name, lineNo, f[2], err)
		}
		blocks, err := strconv.Atoi(f[3])
		if err != nil {
			return nil, fmt.Errorf("trace %s:%d: bad blocks %q: %v", name, lineNo, f[3], err)
		}
		t.Records = append(t.Records, Record{TimeMs: tm, Op: op, LBN: lbn, Blocks: blocks})
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("trace %s: %v", name, err)
	}
	return t, nil
}
