package sim

import (
	"bufio"
	"encoding/json"
	"io"
	"math"
	"strconv"
	"sync"

	"memsim/internal/core"
)

// JSONLProbe is a Probe that writes one JSON object per lifecycle event
// to an io.Writer — the trace format cmd/memsim's -o flag and
// cmd/memsbench's -trace flag emit. It is safe for concurrent use (the
// parallel experiment runner shares one instance across jobs), buffers
// internally, and latches the first write error rather than failing
// mid-simulation; call Flush to drain the buffer and surface that error.
//
// Records are encoded by hand, straight into the bufio.Writer's free
// space when the record is sure to fit and into a scratch buffer the
// probe reuses when it is not, so Observe allocates nothing in steady
// state. The bytes are exactly what encoding/json produced for the v1
// record struct (kept as the test oracle in jsonl_test.go): the same
// field order, omitempty rules, float formatting and string escaping.
// A NaN or ±Inf in any emitted field is latched as encoding/json's own
// error and nothing of that record is written.
//
// Most floats of a trace repeat: a request's arrival time appears in
// all four of its records, a completion's time is its service record's,
// and the phase constants recur in every service record. So the probe
// formats each distinct float once and keeps the bytes in a small
// direct-mapped memo (see appendFloat), guarded by the same mutex as
// the writer. The run label changes only between jobs, so the probe
// keeps the last label's quoted bytes too: a label that needs escaping
// (the shuffle artifact's "×") is escaped once per job, not per event.
type JSONLProbe struct {
	mu   sync.Mutex
	w    *bufio.Writer
	buf  []byte // a record too long for w's free space, reused under mu
	err  error
	memo [floatMemoSize]floatMemoEntry
	run  string // the last run label encoded, and runQ its JSON bytes
	runQ []byte
}

// floatMemoSize is the number of float memo slots, a power of two. On
// the event stream of an open SPTF run (BenchmarkJSONLObserveRun) 256
// slots hit on 69.1% of the floats formatted, against 71.0% for a memo
// that never evicts; 64 slots hit on 64.9%, 1024 on 70.2%.
const (
	floatMemoBits = 8
	floatMemoSize = 1 << floatMemoBits
)

// floatMemoSlot is the memo slot of a float's bit pattern: a
// multiplicative hash, whose top bits mix every bit of the key.
func floatMemoSlot(bits uint64) uint64 {
	return (bits * 0x9e3779b97f4a7c15) >> (64 - floatMemoBits)
}

// floatMemoEntry holds the JSON bytes of the float64 whose bit pattern
// is bits. n == 0 marks an empty slot: every finite float formats to at
// least one byte.
type floatMemoEntry struct {
	bits uint64
	n    uint8
	b    [31]byte // the longest float64 encoding/json writes is 25 bytes
}

// NewJSONLProbe returns a probe writing JSONL records to w.
func NewJSONLProbe(w io.Writer) *JSONLProbe {
	return &JSONLProbe{w: bufio.NewWriter(w)}
}

// Observe implements Probe.
func (p *JSONLProbe) Observe(ev ProbeEvent) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.err != nil {
		return
	}
	// Encoding into AvailableBuffer and handing the same bytes to Write
	// appends them in place. A record that might outgrow the free space
	// goes through p.buf instead, so no append ever reallocates w's
	// buffer. A record that latched an error is never handed to Write.
	var line []byte
	if maxRecordLen(&ev) <= p.w.Available() {
		line = p.encode(p.w.AvailableBuffer(), &ev)
	} else {
		p.buf = p.encode(p.buf[:0], &ev)
		line = p.buf
	}
	if p.err == nil {
		_, p.err = p.w.Write(line)
	}
}

// Flush drains the buffer and returns the first error encountered by
// any write (or the flush itself).
func (p *JSONLProbe) Flush() error {
	p.mu.Lock()
	defer p.mu.Unlock()
	if err := p.w.Flush(); err != nil && p.err == nil {
		p.err = err
	}
	return p.err
}

var _ Probe = (*JSONLProbe)(nil)

// maxRecordLen bounds the length of ev's encoded line: maxRecordFixed
// covers every field but the run label at its longest, and a label
// escapes to at most six bytes per input byte (\u00XX, or � for
// invalid UTF-8) plus its quotes.
func maxRecordLen(ev *ProbeEvent) int {
	return maxRecordFixed + 6*len(ev.Run) + 2
}

// maxRecordFixed bounds a record without its run label: the keys of a
// service record (the longest kind), nine floats of at most 25 bytes,
// five integers of at most 20 bytes and the longest op name,
// "Op(-9223372036854775808)". TestJSONLMaxRecordLen pins it against the
// longest record of each kind.
const maxRecordFixed = 560

// Quoted JSON forms of the event kind and op names, so encode appends
// them without an escape scan. Every kind past the last is "unknown".
var (
	quotedKinds = func() (q [EventRebuildPace + 2]string) {
		for k := range q {
			q[k] = quoteJSON(EventKind(k).String())
		}
		return q
	}()
	quotedOps = [...]string{core.Read: quoteJSON(core.Read.String()), core.Write: quoteJSON(core.Write.String())}
)

// quoteJSON is s as encoding/json writes a string.
func quoteJSON(s string) string {
	q, _ := json.Marshal(s) // a string always marshals
	return string(q)
}

// encode appends ev's trace line, newline included, to b. Keys appear
// in the order they are appended here, which is the schema's field
// order (README.md):
//
//	event t_ms run? dev? op lbn blocks arrival_ms queue? pace? phases? summary?
//
// where "?" marks a field omitted when it is zero or empty. Volume
// lifecycle events (device-fail, rebuild-start/done/pace) carry no
// request, and emit its fields as zero values.
func (p *JSONLProbe) encode(b []byte, ev *ProbeEvent) []byte {
	b = append(b, `{"event":`...)
	b = append(b, quotedKinds[min(int(ev.Kind), len(quotedKinds)-1)]...)
	b = p.appendFloat(b, `,"t_ms":`, ev.Time)
	if ev.Run != "" {
		if ev.Run != p.run {
			p.run, p.runQ = ev.Run, appendString(p.runQ[:0], "", ev.Run)
		}
		b = append(append(b, `,"run":`...), p.runQ...)
	}
	if ev.Dev != 0 {
		b = appendInt(b, `,"dev":`, int64(ev.Dev))
	}
	var (
		lbn     int64
		blocks  int
		arrival float64
	)
	b = append(b, `,"op":`...)
	if r := ev.Req; r == nil {
		b = append(b, `""`...)
	} else {
		lbn, blocks, arrival = r.LBN, r.Blocks, r.Arrival
		if r.Op == core.Read || r.Op == core.Write {
			b = append(b, quotedOps[r.Op]...)
		} else {
			b = appendString(b, "", r.Op.String())
		}
	}
	b = appendInt(b, `,"lbn":`, lbn)
	b = appendInt(b, `,"blocks":`, int64(blocks))
	b = p.appendFloat(b, `,"arrival_ms":`, arrival)
	if ev.Queue != 0 {
		b = appendInt(b, `,"queue":`, int64(ev.Queue))
	}
	if ev.Pace != 0 {
		b = p.appendFloat(b, `,"pace":`, ev.Pace)
	}
	switch ev.Kind {
	case EventService, EventRetry:
		bd := &ev.Breakdown
		b = p.appendFloat(b, `,"phases":{"seek_ms":`, bd.Seek)
		b = p.appendFloat(b, `,"settle_ms":`, bd.Settle)
		b = p.appendFloat(b, `,"turnaround_ms":`, bd.Turnaround)
		b = p.appendFloat(b, `,"transfer_ms":`, bd.Transfer)
		b = p.appendFloat(b, `,"overhead_ms":`, bd.Overhead)
		b = p.appendFloat(b, `,"recovery_ms":`, bd.Recovery)
		b = p.appendFloat(b, `,"service_ms":`, bd.ServiceMs)
		b = append(b, '}')
	case EventComplete:
		r := ev.Req
		b = p.appendFloat(b, `,"summary":{"response_ms":`, r.ResponseTime())
		b = p.appendFloat(b, `,"service_ms":`, ev.Breakdown.ServiceMs)
		b = strconv.AppendBool(append(b, `,"measured":`...), ev.Measured)
		if r.Retries != 0 {
			b = appendInt(b, `,"retries":`, int64(r.Retries))
		}
		if r.Requeues != 0 {
			b = appendInt(b, `,"requeues":`, int64(r.Requeues))
		}
		if r.Failed {
			b = append(b, `,"failed":true`...)
		}
		if r.Degraded {
			b = append(b, `,"degraded":true`...)
		}
		b = append(b, '}')
	}
	return append(b, "}\n"...)
}

// appendString appends key then s as a JSON string. Printable ASCII
// other than the characters encoding/json escapes (quote, backslash,
// and <, >, & under its default HTML escaping) is copied as is;
// anything else goes through json.Marshal, which keeps control
// characters, U+2028/U+2029 and invalid UTF-8 byte-identical to the
// struct encoding.
func appendString(b []byte, key, s string) []byte {
	b = append(b, key...)
	for i := 0; i < len(s); i++ {
		if c := s[i]; c < 0x20 || c > 0x7e || c == '"' || c == '\\' || c == '<' || c == '>' || c == '&' {
			q, _ := json.Marshal(s) // a string always marshals
			return append(b, q...)
		}
	}
	b = append(b, '"')
	b = append(b, s...)
	return append(b, '"')
}

func appendInt(b []byte, key string, v int64) []byte {
	return strconv.AppendInt(append(b, key...), v, 10)
}

// appendFloat appends key then f exactly as encoding/json formats a
// float64 (appendJSONFloat). A NaN or ±Inf latches encoding/json's
// error for that value in p.err, which stops Observe writing the record.
//
// The formatted bytes depend on f's bit pattern alone, so the memo keys
// on math.Float64bits(f): a hit appends the very bytes an earlier miss
// produced, and +0 and −0 ("0" and "-0") stay apart. A miss formats f
// and replaces whatever held its slot. Non-finite values are never
// stored.
func (p *JSONLProbe) appendFloat(b []byte, key string, f float64) []byte {
	b = append(b, key...)
	bits := math.Float64bits(f)
	e := &p.memo[floatMemoSlot(bits)]
	if e.n != 0 && e.bits == bits {
		return append(b, e.b[:e.n]...)
	}
	if math.IsInf(f, 0) || math.IsNaN(f) {
		if p.err == nil {
			_, p.err = json.Marshal(f)
		}
		return b
	}
	start := len(b)
	b = appendJSONFloat(b, f)
	if s := b[start:]; len(s) <= len(e.b) {
		e.bits, e.n = bits, uint8(copy(e.b[:], s))
	}
	return b
}
