package sim

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"strings"
	"sync"
	"testing"

	"memsim/internal/core"
	"memsim/internal/fault"
)

// The v1 record structs below are the encoder's oracle: JSONLProbe once
// built one of these per event and called json.Marshal on it, and the
// hand-written encoder must reproduce those bytes exactly. Field order is
// the declaration order, which encoding/json preserves.

type jsonlPhases struct {
	SeekMs       float64 `json:"seek_ms"`
	SettleMs     float64 `json:"settle_ms"`
	TurnaroundMs float64 `json:"turnaround_ms"`
	TransferMs   float64 `json:"transfer_ms"`
	OverheadMs   float64 `json:"overhead_ms"`
	RecoveryMs   float64 `json:"recovery_ms"`
	ServiceMs    float64 `json:"service_ms"`
}

type jsonlRecord struct {
	Event     string       `json:"event"`
	TimeMs    float64      `json:"t_ms"`
	Run       string       `json:"run,omitempty"`
	Dev       int          `json:"dev,omitempty"`
	Op        string       `json:"op"`
	LBN       int64        `json:"lbn"`
	Blocks    int          `json:"blocks"`
	ArrivalMs float64      `json:"arrival_ms"`
	Queue     int          `json:"queue,omitempty"`
	Pace      float64      `json:"pace,omitempty"`
	Phases    *jsonlPhases `json:"phases,omitempty"`
	Complete  *jsonlDone   `json:"summary,omitempty"`
}

type jsonlDone struct {
	ResponseMs float64 `json:"response_ms"`
	ServiceMs  float64 `json:"service_ms"`
	Measured   bool    `json:"measured"`
	Retries    int     `json:"retries,omitempty"`
	Requeues   int     `json:"requeues,omitempty"`
	Failed     bool    `json:"failed,omitempty"`
	Degraded   bool    `json:"degraded,omitempty"`
}

// legacyLine is the v1 encoding of ev: json.Marshal of its record plus a
// newline, or encoding/json's error for a non-finite float.
func legacyLine(ev ProbeEvent) ([]byte, error) {
	rec := jsonlRecord{
		Event:  ev.Kind.String(),
		TimeMs: ev.Time,
		Run:    ev.Run,
		Dev:    ev.Dev,
		Queue:  ev.Queue,
		Pace:   ev.Pace,
	}
	if ev.Req != nil {
		rec.Op = ev.Req.Op.String()
		rec.LBN = ev.Req.LBN
		rec.Blocks = ev.Req.Blocks
		rec.ArrivalMs = ev.Req.Arrival
	}
	switch ev.Kind {
	case EventService, EventRetry:
		bd := ev.Breakdown
		rec.Phases = &jsonlPhases{
			SeekMs:       bd.Seek,
			SettleMs:     bd.Settle,
			TurnaroundMs: bd.Turnaround,
			TransferMs:   bd.Transfer,
			OverheadMs:   bd.Overhead,
			RecoveryMs:   bd.Recovery,
			ServiceMs:    bd.ServiceMs,
		}
	case EventComplete:
		rec.Complete = &jsonlDone{
			ResponseMs: ev.Req.ResponseTime(),
			ServiceMs:  ev.Breakdown.ServiceMs,
			Measured:   ev.Measured,
			Retries:    ev.Req.Retries,
			Requeues:   ev.Req.Requeues,
			Failed:     ev.Req.Failed,
			Degraded:   ev.Req.Degraded,
		}
	}
	line, err := json.Marshal(rec)
	if err != nil {
		return nil, err
	}
	return append(line, '\n'), nil
}

// observeOne runs ev through a fresh probe and returns what it wrote and
// the error Flush reports.
func observeOne(ev ProbeEvent) ([]byte, error) {
	var buf bytes.Buffer
	jp := NewJSONLProbe(&buf)
	jp.Observe(ev)
	err := jp.Flush()
	return buf.Bytes(), err
}

// checkLegacy asserts that one Observe of ev writes exactly legacyLine(ev),
// or, where encoding/json rejects the record, writes nothing and latches
// the same error.
func checkLegacy(t *testing.T, ev ProbeEvent) {
	t.Helper()
	got, err := observeOne(ev)
	want, wantErr := legacyLine(ev)
	if wantErr != nil {
		if err == nil || err.Error() != wantErr.Error() || len(got) != 0 {
			t.Fatalf("event %+v: wrote %q with error %v, want nothing and %v", ev, got, err, wantErr)
		}
		return
	}
	if err != nil {
		t.Fatalf("event %+v: unexpected error %v", ev, err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("event %+v:\n got %s\nwant %s", ev, got, want)
	}
}

// jsonlFloats are the float fields a fuzzed event fills, in the order
// FuzzJSONLRecord decodes them from its byte input.
const jsonlFloats = 12

// floatBytes packs vals little-endian, the layout FuzzJSONLRecord decodes.
func floatBytes(vals ...float64) []byte {
	b := make([]byte, 0, 8*len(vals))
	for _, v := range vals {
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(v))
	}
	return b
}

// repeatFloat fills every float field with v.
func repeatFloat(v float64) []byte {
	vals := make([]float64, jsonlFloats)
	for i := range vals {
		vals[i] = v
	}
	return floatBytes(vals...)
}

// FuzzJSONLRecord checks the hand-written encoder against the v1
// json.Marshal oracle over arbitrary events: every kind (out-of-range
// included), with and without a request, arbitrary run labels (HTML
// characters, quotes, U+2028, invalid UTF-8) and every float field drawn
// from raw bit patterns, so NaN, ±Inf, −0 and subnormals all occur.
func FuzzJSONLRecord(f *testing.F) {
	specials := []float64{
		0, math.Copysign(0, -1), 1e-7, 9.99e-7, 1e-6, 1e21, 5e-324,
		math.SmallestNonzeroFloat64 * 3, 2.2250738585072014e-308, math.MaxFloat64,
		-1e-7, -1e21, -3.25, 123456.789, 1e20, 0.1, -math.MaxFloat64,
	}
	runs := []string{
		"", "job-1", "r&d", "a<b", "b>a", `q"uote`, `back\slash`, "line\u2028sep\u2029",
		"bad\xff\xfeutf8", "tab\tnl\n", "ünïcode", "\x7f",
	}
	for i, v := range specials {
		for kind := EventArrive; kind <= EventRebuildPace+1; kind++ {
			f.Add(uint8(kind), kind <= EventComplete, int(i%3), runs[(i+int(kind))%len(runs)],
				i%3-1, int(kind)%4-1, int64(i)*1000-3, 8+i, i%3-1, (int(kind)+i)%3-1, uint8(i), repeatFloat(v))
		}
	}
	f.Add(uint8(EventService), true, 0, "phases", 0, 3, int64(77), 16, 0, 0, uint8(0),
		floatBytes(10.5, 9.25, 11, 0.4, 0, 0.6, 0.2, 0.1, 0, 1.3, 1.3, 0))
	f.Add(uint8(EventService), true, 1, "nan", 0, 0, int64(1), 1, 0, 0, uint8(0),
		floatBytes(1, 1, 2, 0, 0.4, math.NaN(), 0, 0, 0, 0, 0, 0))
	f.Add(uint8(EventRebuildPace), false, 0, "pace", 2, 5, int64(0), 0, 0, 0, uint8(0),
		floatBytes(3, 0, 0, math.Inf(1)))
	f.Fuzz(func(t *testing.T, kind uint8, hasReq bool, op int, run string,
		dev, queue int, lbn int64, blocks, retries, requeues int, flags uint8, raw []byte) {
		var fl [jsonlFloats]float64
		for i := range fl {
			if len(raw) >= 8*(i+1) {
				fl[i] = math.Float64frombits(binary.LittleEndian.Uint64(raw[8*i:]))
			}
		}
		ev := ProbeEvent{
			Kind:     EventKind(kind),
			Time:     fl[0],
			Run:      run,
			Dev:      dev,
			Queue:    queue,
			Pace:     fl[3],
			Measured: flags&1 != 0,
			Breakdown: core.Breakdown{
				Seek: fl[4], Settle: fl[5], Turnaround: fl[6], Transfer: fl[7],
				Overhead: fl[8], Recovery: fl[9], ServiceMs: fl[10],
			},
		}
		// A complete event always carries its request; both encoders
		// dereference it. Its Breakdown is the request's phase sum, whose
		// service time draws on a field of its own.
		if ev.Kind == EventComplete {
			ev.Breakdown.ServiceMs = fl[11]
		}
		if hasReq || ev.Kind == EventComplete {
			ev.Req = &core.Request{
				Op: core.Op(op), LBN: lbn, Blocks: blocks,
				Arrival: fl[1], Finish: fl[2],
				Retries: retries, Requeues: requeues,
				Failed: flags&2 != 0, Degraded: flags&4 != 0,
			}
		}
		checkLegacy(t, ev)
	})
}

// TestJSONLProbeLatchesNonFinite pins the non-finite contract: a NaN or
// ±Inf anywhere in a record latches an error, leaves no partial line in
// the output, and silences the probe for the rest of the run.
func TestJSONLProbeLatchesNonFinite(t *testing.T) {
	req := &core.Request{Op: core.Write, LBN: 42, Blocks: 8, Arrival: 1.5}
	good := ProbeEvent{Kind: EventArrive, Time: 1.5, Req: req, Queue: 1}
	cases := map[string]ProbeEvent{
		"NaN time":  {Kind: EventDispatch, Time: math.NaN(), Req: req},
		"+Inf pace": {Kind: EventRebuildPace, Time: 2, Dev: 1, Pace: math.Inf(1)},
		"NaN phase": {Kind: EventService, Time: 3, Req: req,
			Breakdown: core.Breakdown{Seek: 0.5, Transfer: math.NaN(), ServiceMs: 1}},
	}
	want, err := legacyLine(good)
	if err != nil {
		t.Fatal(err)
	}
	for name, bad := range cases {
		t.Run(name, func(t *testing.T) {
			var buf bytes.Buffer
			jp := NewJSONLProbe(&buf)
			jp.Observe(good)
			jp.Observe(bad)
			jp.Observe(good)
			jp.Observe(ProbeEvent{Kind: EventComplete, Time: 4, Req: req, Measured: true})
			if err := jp.Flush(); err == nil {
				t.Fatal("Flush returned nil after a non-finite float")
			}
			if !bytes.Equal(buf.Bytes(), want) {
				t.Fatalf("output = %q, want only the first good line %q", buf.Bytes(), want)
			}
		})
	}
}

// jsonlEvents is one event of every request-lifecycle kind plus a
// device failure, with realistic values and an ASCII run label.
func jsonlEvents() []ProbeEvent {
	req := &core.Request{
		Op: core.Read, LBN: 1234567, Blocks: 8, Arrival: 907.3329113,
		Start: 911.07, Finish: 912.4410022, Retries: 1, Requeues: 1,
	}
	bd := core.Breakdown{Seek: 0.4129, Settle: 0.215, Transfer: 0.128, Overhead: 1e-7, ServiceMs: 0.7559}
	sum := core.Breakdown{Seek: 0.4129, Settle: 0.215, Transfer: 0.128, Recovery: 0.6, ServiceMs: 1.3559}
	return []ProbeEvent{
		{Kind: EventArrive, Time: req.Arrival, Run: "fig5/SPTF/rate=1100", Req: req, Queue: 3},
		{Kind: EventDispatch, Time: 911.07, Run: "fig5/SPTF/rate=1100", Req: req, Queue: 3},
		{Kind: EventService, Time: 911.8259, Run: "fig5/SPTF/rate=1100", Req: req, Breakdown: bd},
		{Kind: EventRetry, Time: 911.8259, Run: "fig5/SPTF/rate=1100", Req: req, Breakdown: core.Breakdown{Recovery: 0.6}},
		{Kind: EventRequeue, Time: 911.9, Run: "fig5/SPTF/rate=1100", Dev: 2, Req: req},
		{Kind: EventComplete, Time: req.Finish, Run: "fig5/SPTF/rate=1100", Req: req, Breakdown: sum, Measured: true},
		{Kind: EventDeviceFail, Time: 500, Run: "fig5/SPTF/rate=1100", Dev: 1},
	}
}

// TestJSONLProbeZeroAlloc guards the encoder's reason to exist: once
// its scratch buffer has grown, Observe allocates nothing for any event
// kind, whether the record is encoded straight into the writer's free
// space or through the scratch buffer. The 200 calls per event fill the
// writer's buffer many times over, so each record also takes the
// scratch path whenever the free space runs below its bound; the
// long-label record, longer than the writer's whole buffer, takes it on
// every call.
func TestJSONLProbeZeroAlloc(t *testing.T) {
	long := ProbeEvent{Kind: EventService, Time: 3.5, Run: strings.Repeat("long-label/", 500),
		Req: &core.Request{Op: core.Write, LBN: 9, Blocks: 8, Arrival: 1.25}, Breakdown: core.Breakdown{Seek: 0.5, ServiceMs: 0.5}}
	// Labels that need escaping, as the shuffle artifact's do.
	var escaped []ProbeEvent
	for _, run := range []string{"shuffle static drift=1×", "r<&>r"} {
		for _, ev := range jsonlEvents() {
			ev.Run = run
			escaped = append(escaped, ev)
		}
	}
	for _, ev := range append(append(jsonlEvents(), long), escaped...) {
		checkLegacy(t, ev)
		jp := NewJSONLProbe(io.Discard)
		jp.Observe(ev) // warm-up: grows the scratch buffer
		if n := testing.AllocsPerRun(200, func() { jp.Observe(ev) }); n != 0 {
			t.Errorf("%s: %.2f allocs per Observe, want 0", ev.Kind, n)
		}
		if err := jp.Flush(); err != nil {
			t.Fatal(err)
		}
	}

	// The cached label follows every change: one probe alternating
	// between labels writes each record as a fresh probe would.
	var got, want bytes.Buffer
	jp := NewJSONLProbe(&got)
	for i := range escaped {
		for _, ev := range []ProbeEvent{escaped[i], escaped[len(escaped)-1-i], jsonlEvents()[0]} {
			jp.Observe(ev)
			line, err := legacyLine(ev)
			if err != nil {
				t.Fatal(err)
			}
			want.Write(line)
		}
	}
	if err := jp.Flush(); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want.Bytes()) {
		t.Errorf("alternating labels diverge from the struct encoding:\n got %s\nwant %s", got.Bytes(), want.Bytes())
	}
}

// TestJSONLProbeConcurrent shares one probe across goroutines the way
// the parallel runner does: every line must come out whole and every
// label's events must all arrive.
func TestJSONLProbeConcurrent(t *testing.T) {
	const workers, perWorker = 8, 1000
	var buf bytes.Buffer
	jp := NewJSONLProbe(&buf)
	events := jsonlEvents()
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(label string) {
			defer wg.Done()
			p := WithRun(jp, label)
			for i := 0; i < perWorker; i++ {
				p.Observe(events[i%len(events)])
			}
		}(workerLabel(w))
	}
	wg.Wait()
	if err := jp.Flush(); err != nil {
		t.Fatal(err)
	}
	counts := map[string]int{}
	lines := strings.Split(strings.TrimSuffix(buf.String(), "\n"), "\n")
	for i, ln := range lines {
		var rec map[string]any
		if err := json.Unmarshal([]byte(ln), &rec); err != nil {
			t.Fatalf("line %d is not whole JSON: %v\n%s", i, err, ln)
		}
		run, _ := rec["run"].(string)
		counts[run]++
	}
	if len(lines) != workers*perWorker {
		t.Errorf("got %d lines, want %d", len(lines), workers*perWorker)
	}
	for w := 0; w < workers; w++ {
		if got := counts[workerLabel(w)]; got != perWorker {
			t.Errorf("label %q: %d lines, want %d", workerLabel(w), got, perWorker)
		}
	}
}

// workerLabel names worker w's run; odd workers get labels that take the
// escaping path.
func workerLabel(w int) string {
	if w%2 == 1 {
		return fmt.Sprintf("job<%d>&\u2028", w)
	}
	return fmt.Sprintf("job-%d", w)
}

// TestJSONLMaxRecordLen pins maxRecordFixed: the longest record of each
// kind (every integer at its most negative, every float at the longest
// form a float64 takes, the longest op name) fits the bound Observe
// uses to choose the direct path, so that path never reallocates.
func TestJSONLMaxRecordLen(t *testing.T) {
	const longest = -1.2345678901234567e-6 // "-0.0000012345678901234567"
	if got, _ := json.Marshal(longest); len(got) != 25 {
		t.Fatalf("%s is %d bytes, want the 25-byte maximum", got, len(got))
	}
	f := longest
	for kind := EventArrive; kind <= EventRebuildPace+1; kind++ {
		ev := ProbeEvent{
			Kind: kind, Time: f, Dev: math.MinInt, Queue: math.MinInt, Pace: f,
			Breakdown: core.Breakdown{Seek: f, Settle: f, Turnaround: f, Transfer: f, Overhead: f, Recovery: f, ServiceMs: f},
			Req: &core.Request{Op: core.Op(math.MinInt), LBN: math.MinInt64, Blocks: math.MinInt, Arrival: f, Finish: -f,
				Retries: math.MinInt, Requeues: math.MinInt, Failed: true, Degraded: true},
		}
		checkLegacy(t, ev)
		line, _ := legacyLine(ev)
		if len(line) > maxRecordFixed {
			t.Errorf("%s: longest record is %d bytes, over maxRecordFixed %d", kind, len(line), maxRecordFixed)
		}
	}
}

// volumeRunEvents is the event stream of a failing, rebuilding volume:
// the volume-rebuild fixture at 2% transient errors, one retry before a
// requeue and adaptive pacing, so retry, requeue, device-fail, rebuild
// and pace records all occur.
func volumeRunEvents(t *testing.T) []ProbeEvent {
	const n = 8000
	spec, _ := volumeRebuildFixture(t, n, true)
	spec.AdaptiveRebuild = true
	cfg := fault.DefaultInjectorConfig()
	cfg.TransientRate, cfg.MaxRetries, cfg.Seed = 0.02, 1, 1
	cfg.DeviceEvents = []fault.DeviceEvent{{AtMs: 0.25 * n / volBenchRate * 1000, Dev: 1}}
	inj, err := fault.NewInjector(cfg)
	if err != nil {
		t.Fatal(err)
	}
	c := &captureProbe{}
	if _, err := RunVolume(nil, spec, volumeRebuildSource(n), Options{Injector: inj, Probe: c}); err != nil {
		t.Fatal(err)
	}
	return c.events
}

// TestJSONLProbeRunMatchesOracle runs two real event streams, a full
// open run and then a failing volume run, through one probe, so the
// float memo sees hits, evictions and slot collisions across thousands
// of distinct values, and every line must equal the v1 oracle's.
func TestJSONLProbeRunMatchesOracle(t *testing.T) {
	open, vol := openRunEvents(), volumeRunEvents(t)
	kinds := map[EventKind]int{}
	for _, ev := range vol {
		kinds[ev.Kind]++
	}
	for k := EventArrive; k <= EventRebuildPace; k++ {
		if kinds[k] == 0 {
			t.Errorf("the volume stream has no %s event", k)
		}
	}
	events := append(open, vol...)
	distinct := map[uint64]bool{}
	var want bytes.Buffer
	for _, ev := range events {
		line, err := legacyLine(ev)
		if err != nil {
			t.Fatal(err)
		}
		want.Write(line)
		for _, f := range []float64{ev.Time, ev.Breakdown.Seek, ev.Breakdown.ServiceMs} {
			distinct[math.Float64bits(f)] = true
		}
	}
	if len(distinct) < 10*floatMemoSize {
		t.Fatalf("%d distinct floats do not overflow the %d-slot memo", len(distinct), floatMemoSize)
	}
	var got bytes.Buffer
	jp := NewJSONLProbe(&got)
	for _, ev := range events {
		jp.Observe(ev)
	}
	if err := jp.Flush(); err != nil {
		t.Fatal(err)
	}
	gotLines, wantLines := bytes.SplitAfter(got.Bytes(), []byte("\n")), bytes.SplitAfter(want.Bytes(), []byte("\n"))
	for i := range wantLines {
		if i >= len(gotLines) || !bytes.Equal(gotLines[i], wantLines[i]) {
			var g []byte
			if i < len(gotLines) {
				g = gotLines[i]
			}
			t.Fatalf("line %d of %d:\n got %s\nwant %s", i+1, len(events), g, wantLines[i])
		}
	}
	if len(gotLines) != len(wantLines) {
		t.Fatalf("%d lines, want %d", len(gotLines), len(wantLines))
	}
}

// memoCollision returns two distinct floats near base that share a
// float memo slot.
func memoCollision(base float64) (float64, float64) {
	seen := map[uint64]float64{}
	for f := base; ; f = math.Nextafter(f, math.Inf(1)) {
		slot := floatMemoSlot(math.Float64bits(f))
		if g, ok := seen[slot]; ok {
			return g, f
		}
		seen[slot] = f
	}
}

// FuzzJSONLStream feeds several records through one shared probe, each
// float field drawn from a small pool of fuzzed values, so the float
// memo stores a value in one field and replays it in later fields and
// records, under every collision the pool's slots allow. The output
// must be the v1 oracle's lines, up to the first record with a
// non-finite float, which latches its error and writes nothing more.
func FuzzJSONLStream(f *testing.F) {
	a, b := memoCollision(907.3329113)
	var pool []float64
	for _, v := range []float64{0, 1e-7, 1e21, 5e-324, 2.2250738585072009e-308, a, b} {
		pool = append(pool, v, math.Nextafter(v, math.Inf(-1)), math.Nextafter(v, math.Inf(1)))
	}
	pool = append(pool, math.Copysign(0, -1))
	picks := make([]byte, 0, 3*jsonlFloats*len(pool))
	for i := 0; i < cap(picks); i++ {
		picks = append(picks, byte(i*7%len(pool)))
	}
	f.Add([]byte{byte(EventService), byte(EventComplete), byte(EventArrive)}, picks, floatBytes(pool...))
	f.Add([]byte{byte(EventService), byte(EventService)}, []byte{0, 1}, floatBytes(0, math.Copysign(0, -1)))
	f.Add([]byte{byte(EventRetry), byte(EventService)}, []byte{0}, floatBytes(1e-7))
	f.Add([]byte{byte(EventComplete), byte(EventService), byte(EventDispatch)}, []byte{0, 1, 2, 1, 0}, floatBytes(a, b, 1e21))
	f.Add([]byte{byte(EventArrive), byte(EventService), byte(EventArrive)}, []byte{0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1}, floatBytes(2.5, math.NaN()))
	f.Fuzz(func(t *testing.T, kinds, picks, raw []byte) {
		if len(kinds) == 0 || len(picks) == 0 || len(raw) < 8 {
			return
		}
		vals := make([]float64, min(len(raw)/8, 64))
		for i := range vals {
			vals[i] = math.Float64frombits(binary.LittleEndian.Uint64(raw[8*i:]))
		}
		nrec := min(len(kinds), 16)
		var got, want bytes.Buffer
		jp := NewJSONLProbe(&got)
		var wantErr error
		for i := 0; i < nrec; i++ {
			var fl [jsonlFloats]float64
			for j := range fl {
				fl[j] = vals[int(picks[(i*jsonlFloats+j)%len(picks)])%len(vals)]
			}
			ev := ProbeEvent{
				Kind: EventKind(kinds[i]), Time: fl[0], Run: "stream", Queue: i, Pace: fl[3],
				Measured: i%2 == 0,
				Breakdown: core.Breakdown{
					Seek: fl[4], Settle: fl[5], Turnaround: fl[6], Transfer: fl[7],
					Overhead: fl[8], Recovery: fl[9], ServiceMs: fl[10],
				},
				Req: &core.Request{Op: core.Op(i % 3), LBN: int64(i), Blocks: 8, Arrival: fl[1], Finish: fl[2]},
			}
			if ev.Kind == EventComplete {
				// A complete event's Breakdown is its request's phase sum,
				// whose service time draws on a field of its own.
				ev.Breakdown.ServiceMs = fl[11]
			}
			jp.Observe(ev)
			if wantErr != nil {
				continue
			}
			line, err := legacyLine(ev)
			if err != nil {
				wantErr = err
				continue
			}
			if len(line) > maxRecordLen(&ev) {
				t.Fatalf("record %d is %d bytes, over its bound %d", i, len(line), maxRecordLen(&ev))
			}
			want.Write(line)
		}
		err := jp.Flush()
		if (err == nil) != (wantErr == nil) || (err != nil && err.Error() != wantErr.Error()) {
			t.Fatalf("Flush error %v, want %v", err, wantErr)
		}
		if !bytes.Equal(got.Bytes(), want.Bytes()) {
			t.Fatalf("stream output:\n got %s\nwant %s", got.Bytes(), want.Bytes())
		}
	})
}
