package sim

import (
	"bufio"
	"encoding/json"
	"io"
	"math"
	"strconv"
	"sync"
)

// JSONLProbe is a Probe that writes one JSON object per lifecycle event
// to an io.Writer — the trace format cmd/memstrace replays into and
// cmd/memsbench's -trace flag emits. It is safe for concurrent use (the
// parallel experiment runner shares one instance across jobs), buffers
// internally, and latches the first write error rather than failing
// mid-simulation; call Flush to drain the buffer and surface that error.
//
// Records are encoded by hand into a scratch buffer the probe reuses, so
// Observe allocates nothing in steady state. The bytes are exactly what
// encoding/json produced for the v1 record struct (kept as the test
// oracle in jsonl_test.go): the same field order, omitempty rules, float
// formatting and string escaping. A NaN or ±Inf in any emitted field is
// latched as encoding/json's own error and nothing of that record is
// written.
type JSONLProbe struct {
	mu  sync.Mutex
	w   *bufio.Writer
	buf []byte // the record being encoded, reused under mu
	err error
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
	p.encode(&ev)
	if p.err == nil {
		_, p.err = p.w.Write(p.buf)
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

// encode replaces p.buf with ev's trace line, newline included. Keys
// appear in the order they are appended here, which is the schema's
// field order (README.md):
//
//	event t_ms run? dev? op lbn blocks arrival_ms queue? pace? phases? summary?
//
// where "?" marks a field omitted when it is zero or empty. Volume
// lifecycle events (device-fail, rebuild-start/done/pace) carry no
// request, and emit its fields as zero values.
func (p *JSONLProbe) encode(ev *ProbeEvent) {
	p.buf = p.buf[:0]
	var (
		op      string
		lbn     int64
		blocks  int
		arrival float64
	)
	if ev.Req != nil {
		op, lbn, blocks, arrival = ev.Req.Op.String(), ev.Req.LBN, ev.Req.Blocks, ev.Req.Arrival
	}
	p.appendString(`{"event":`, ev.Kind.String())
	p.appendFloat(`,"t_ms":`, ev.Time)
	if ev.Run != "" {
		p.appendString(`,"run":`, ev.Run)
	}
	if ev.Dev != 0 {
		p.appendInt(`,"dev":`, int64(ev.Dev))
	}
	p.appendString(`,"op":`, op)
	p.appendInt(`,"lbn":`, lbn)
	p.appendInt(`,"blocks":`, int64(blocks))
	p.appendFloat(`,"arrival_ms":`, arrival)
	if ev.Queue != 0 {
		p.appendInt(`,"queue":`, int64(ev.Queue))
	}
	if ev.Pace != 0 {
		p.appendFloat(`,"pace":`, ev.Pace)
	}
	switch ev.Kind {
	case EventService, EventRetry:
		bd := &ev.Breakdown
		p.appendFloat(`,"phases":{"seek_ms":`, bd.Seek)
		p.appendFloat(`,"settle_ms":`, bd.Settle)
		p.appendFloat(`,"turnaround_ms":`, bd.Turnaround)
		p.appendFloat(`,"transfer_ms":`, bd.Transfer)
		p.appendFloat(`,"overhead_ms":`, bd.Overhead)
		p.appendFloat(`,"recovery_ms":`, bd.Recovery)
		p.appendFloat(`,"service_ms":`, bd.ServiceMs)
		p.buf = append(p.buf, '}')
	case EventComplete:
		r := ev.Req
		p.appendFloat(`,"summary":{"response_ms":`, r.ResponseTime())
		p.appendFloat(`,"service_ms":`, r.Phases.ServiceMs)
		p.appendBool(`,"measured":`, ev.Measured)
		if r.Retries != 0 {
			p.appendInt(`,"retries":`, int64(r.Retries))
		}
		if r.Requeues != 0 {
			p.appendInt(`,"requeues":`, int64(r.Requeues))
		}
		if r.Failed {
			p.appendBool(`,"failed":`, true)
		}
		if r.Degraded {
			p.appendBool(`,"degraded":`, true)
		}
		p.buf = append(p.buf, '}')
	}
	p.buf = append(p.buf, "}\n"...)
}

// appendString appends key then s as a JSON string. Printable ASCII
// other than the characters encoding/json escapes (quote, backslash,
// and <, >, & under its default HTML escaping) is copied as is;
// anything else goes through json.Marshal, which keeps control
// characters, U+2028/U+2029 and invalid UTF-8 byte-identical to the
// struct encoding.
func (p *JSONLProbe) appendString(key, s string) {
	p.buf = append(p.buf, key...)
	for i := 0; i < len(s); i++ {
		if c := s[i]; c < 0x20 || c > 0x7e || c == '"' || c == '\\' || c == '<' || c == '>' || c == '&' {
			q, _ := json.Marshal(s) // a string always marshals
			p.buf = append(p.buf, q...)
			return
		}
	}
	p.buf = append(p.buf, '"')
	p.buf = append(p.buf, s...)
	p.buf = append(p.buf, '"')
}

func (p *JSONLProbe) appendInt(key string, v int64) {
	p.buf = strconv.AppendInt(append(p.buf, key...), v, 10)
}

func (p *JSONLProbe) appendBool(key string, v bool) {
	p.buf = strconv.AppendBool(append(p.buf, key...), v)
}

// appendFloat appends key then f exactly as encoding/json formats a
// float64: the shortest 'f' form, switching to 'e' for 0 < |f| < 1e-6
// and |f| ≥ 1e21, with a two-digit negative exponent trimmed
// (e-07 → e-7). A NaN or ±Inf latches encoding/json's error for that
// value in p.err, which stops Observe writing the record.
func (p *JSONLProbe) appendFloat(key string, f float64) {
	p.buf = append(p.buf, key...)
	if math.IsInf(f, 0) || math.IsNaN(f) {
		if p.err == nil {
			_, p.err = json.Marshal(f)
		}
		return
	}
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	p.buf = strconv.AppendFloat(p.buf, f, format, -1, 64)
	if format == 'e' {
		if n := len(p.buf); p.buf[n-4] == 'e' && p.buf[n-3] == '-' && p.buf[n-2] == '0' {
			p.buf[n-2] = p.buf[n-1]
			p.buf = p.buf[:n-1]
		}
	}
}
