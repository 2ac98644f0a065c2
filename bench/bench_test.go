package main

import (
	"encoding/json"
	"math"
	"os"
	"slices"
	"testing"
	"time"

	"memsim/internal/core"
	"memsim/internal/sched"
	"memsim/internal/workload"
)

// TestSmoke runs every workload at smoke size, untraced and traced, and
// requires the pinned seed-1 result from both. A traced run compares its
// traced reps with its untraced ones, so this is also the check that
// tracing leaves every result unchanged.
func TestSmoke(t *testing.T) {
	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			rep, err := measure(w, options{seed: 1, trace: traced, smoke: true})
			if err != nil {
				t.Fatalf("%s traced=%v: %v", w.name, traced, err)
			}
			if !rep.Correct || rep.Check != "pinned" {
				t.Errorf("%s traced=%v: %s", w.name, traced, rep.Check)
			}
			if rep.Failed != 0 {
				t.Errorf("%s traced=%v: %d of %d failed", w.name, traced, rep.Failed, rep.Attempted)
			}
			defs := endToEnd
			if traced {
				defs = perLayer()
			}
			if len(rep.Metrics) != len(defs) {
				t.Errorf("%s traced=%v: %d metrics, want %d", w.name, traced, len(rep.Metrics), len(defs))
			}
			for _, d := range defs {
				v := rep.Metrics[d.name].Value
				if math.IsNaN(v) || math.IsInf(v, 0) || (!traced && v <= 0) {
					t.Errorf("%s traced=%v: %s = %g", w.name, traced, d.name, v)
				}
			}
			if traced && w.engine() {
				sum := 0.0
				for _, k := range []string{"workload.share", "sched.share", "mems.share", "sim.jsonl.share", "sim.engine.share"} {
					sum += rep.Metrics[k].Value
				}
				if math.Abs(sum-1) > 1e-9 || rep.Metrics["sim.engine.share"].Value < 0 {
					t.Errorf("%s: ledger shares sum to %g with residue %g", w.name, sum, rep.Metrics["sim.engine.share"].Value)
				}
			}
		}
	}
}

// TestEndToEndNormalisesHostTime pins how a rep's host wall becomes a
// reported time: multiplied by the rep's probe scale, with the rate
// taken from the scaled time and the allocation metrics left alone.
func TestEndToEndNormalisesHostTime(t *testing.T) {
	plain := []repStats{{wall: 2 * time.Second, scale: 0.5, allocBytes: 4000, out: outcome{units: 1000}}}
	m := endToEndMetrics(plain, []float64{0.01})
	for name, want := range map[string]float64{
		"suite_wall_s":        1,
		"sim_req_per_s":       1000,
		"alloc_bytes_per_req": 4,
		"setup_s":             0.01,
	} {
		if got := m[name].Value; got != want {
			t.Errorf("%s = %g, want %g", name, got, want)
		}
	}
}

// TestWrappersForwardOnlyWhatTheyWrap pins the wrappers' neutrality: the
// engine type-asserts devices, schedulers and sources for optional
// behaviour, so a wrapper must implement an optional interface exactly
// when the wrapped value does.
func TestWrappersForwardOnlyWhatTheyWrap(t *testing.T) {
	l := &ledger{}
	m := newMEMS()
	type bare struct{ core.Device }
	for _, c := range []struct {
		name       string
		dev        core.Device
		br, be, rm bool
	}{
		{"mems", m, true, true, true},
		{"bare", bare{m}, false, false, false},
		{"reporter only", struct {
			core.Device
			core.BreakdownReporter
		}{m, m}, true, false, false},
		{"estimator and recovery", struct {
			core.Device
			core.BreakdownEstimator
			core.RecoveryModel
		}{m, m, m}, false, true, true},
	} {
		d := l.device(c.dev)
		_, br := d.(core.BreakdownReporter)
		_, be := d.(core.BreakdownEstimator)
		_, rm := d.(core.RecoveryModel)
		if br != c.br || be != c.be || rm != c.rm {
			t.Errorf("%s: wrapper reporter=%v estimator=%v recovery=%v, want %v %v %v", c.name, br, be, rm, c.br, c.be, c.rm)
		}
	}

	if _, ok := l.sched(sched.NewFCFS()).(core.Requeuer); !ok {
		t.Error("wrapped FCFS lost Requeue")
	}
	if _, ok := l.sched(sched.NewSPTF()).(core.Requeuer); ok {
		t.Error("wrapped SPTF gained a Requeue")
	}
	src := workload.DefaultRandom(1000, 512, m.Capacity(), 10, 1)
	if _, ok := l.source(workload.ThinkTime(src, workload.ExpThink(1), 1)).(workload.Thinker); !ok {
		t.Error("wrapped ThinkSource lost ThinkMs")
	}
	if _, ok := l.source(src).(workload.Thinker); ok {
		t.Error("wrapped Random gained ThinkMs")
	}

	// Estimates made inside Next are the device's time, not the
	// scheduler's.
	s := l.sched(sched.NewSPTF())
	for _, r := range workload.Slice(workload.DefaultRandom(1000, 512, m.Capacity(), 4, 1)) {
		s.Add(r)
	}
	s.Next(l.device(m), 0)
	if l.nested.calls != 4 || l.estimate.calls != 4 || l.dispatches != 1 || l.depth != 4 {
		t.Errorf("one SPTF dispatch over 4 requests: nested=%d estimates=%d dispatches=%d depth=%d",
			l.nested.calls, l.estimate.calls, l.dispatches, l.depth)
	}
}

// TestBenchmarkJSON keeps BENCHMARK.json at the repository root in step
// with the workloads and metrics this program reports.
func TestBenchmarkJSON(t *testing.T) {
	type entry struct {
		Name   string  `json:"name"`
		Why    string  `json:"why"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	}
	var b struct {
		Workloads []entry `json:"workloads"`
		EndToEnd  []entry `json:"end_to_end"`
		PerLayer  []entry `json:"per_layer"`
	}
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	var wantW, wantE, wantL []entry
	for _, w := range workloads {
		wantW = append(wantW, entry{Name: w.name, Why: w.why})
	}
	for _, d := range endToEnd {
		wantE = append(wantE, entry{Name: d.name, Unit: d.unit, Better: d.better, Bound: d.bound})
	}
	for _, d := range perLayer() {
		wantL = append(wantL, entry{Name: d.name, Unit: d.unit, Better: d.better})
	}
	for _, c := range []struct {
		key       string
		got, want []entry
	}{{"workloads", b.Workloads, wantW}, {"end_to_end", b.EndToEnd, wantE}, {"per_layer", b.PerLayer, wantL}} {
		if !slices.Equal(c.got, c.want) {
			t.Errorf("%s:\n got %+v\nwant %+v", c.key, c.got, c.want)
		}
	}
}
