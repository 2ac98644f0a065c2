// equivalence_test.go is the engine refactor's golden contract: seeded
// runs across every regime (open, closed, volume: multi-device stripes
// and redundant volumes), both device
// models, FCFS and SPTF, with and without fault injection, fingerprinted
// in full float precision (every Result field plus a hash of the JSONL
// lifecycle trace) and compared byte-for-byte against goldens captured
// from the pre-refactor loops. Any engine change that shifts a single
// completion time, probe event, or counter fails here first.
//
// Regenerate goldens (after an INTENDED behavior change only) with:
//
//	go test ./internal/sim -run TestEquivalence -update-golden
package sim_test

import (
	"bytes"
	"crypto/sha256"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"memsim/internal/array"
	"memsim/internal/core"
	"memsim/internal/disk"
	"memsim/internal/fault"
	"memsim/internal/mems"
	"memsim/internal/sched"
	"memsim/internal/sim"
	"memsim/internal/stats"
	"memsim/internal/workload"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite equivalence goldens from the current engine")

// g formats a float at full round-trip precision so the fingerprint is
// sensitive to the last bit of every statistic.
func g(x float64) string { return strconv.FormatFloat(x, 'g', -1, 64) }

func dumpWelford(b *strings.Builder, name string, w stats.Welford) {
	fmt.Fprintf(b, "%s: n=%d mean=%s min=%s max=%s var=%s\n",
		name, w.N(), g(w.Mean()), g(w.Min()), g(w.Max()), g(w.Variance()))
}

func dumpDist(b *strings.Builder, name string, d *stats.Dist) {
	fmt.Fprintf(b, "%s: n=%d mean=%s p95=%s p99=%s\n",
		name, d.N(), g(d.Mean()), g(d.P95()), g(d.P99()))
}

func dumpPhases(b *strings.Builder, name string, ps *sim.PhaseStats) {
	if ps == nil {
		fmt.Fprintf(b, "%s: nil\n", name)
		return
	}
	fmt.Fprintf(b, "%s: requests=%d\n", name, ps.Requests)
	for _, ph := range []struct {
		n string
		d *stats.Dist
	}{
		{"seek", &ps.Seek}, {"settle", &ps.Settle}, {"turnaround", &ps.Turnaround},
		{"transfer", &ps.Transfer}, {"overhead", &ps.Overhead}, {"recovery", &ps.Recovery},
		{"positioning", &ps.Positioning}, {"service", &ps.Service}, {"unattributed", &ps.Unattributed},
	} {
		dumpDist(b, name+"."+ph.n, ph.d)
	}
}

// fingerprint renders every observable field of a Result, plus the
// byte hash of the run's JSONL lifecycle trace, as deterministic text.
func fingerprint(res sim.Result, runErr error, trace []byte) string {
	var b strings.Builder
	fmt.Fprintf(&b, "err: %v\n", runErr)
	fmt.Fprintf(&b, "requests: %d\n", res.Requests)
	dumpWelford(&b, "response", res.Response)
	dumpWelford(&b, "service", res.Service)
	dumpWelford(&b, "queuelen", res.QueueLen)
	fmt.Fprintf(&b, "maxqueue: %d\n", res.MaxQueue)
	fmt.Fprintf(&b, "busy: %s\n", g(res.Busy))
	fmt.Fprintf(&b, "elapsed: %s\n", g(res.Elapsed))
	fmt.Fprintf(&b, "utilization: %s\n", g(res.Utilization()))
	fmt.Fprintf(&b, "retries: %d recovered: %d failed: %d degraded: %d requeues: %d\n",
		res.Retries, res.Recovered, res.FailedRequests, res.DegradedReads, res.Requeues)
	fmt.Fprintf(&b, "recoveryms: %s\n", g(res.RecoveryMs))
	fmt.Fprintf(&b, "lostreads: %d dataloss: %v\n", res.LostReads, res.DataLoss)
	fmt.Fprintf(&b, "clamped: %d\n", res.ClampedRequests)
	dumpPhases(&b, "phases", res.Phases)
	fmt.Fprintf(&b, "members: %d\n", len(res.Members))
	for i, m := range res.Members {
		fmt.Fprintf(&b, "member[%d]: requests=%d busy=%s\n", i, m.Requests, g(m.Busy))
		dumpPhases(&b, fmt.Sprintf("member[%d].phases", i), m.Phases)
	}
	if v := res.Volume; v != nil {
		fmt.Fprintf(&b, "volume: failures=%d rebuilds=%d/%d chunks=%d\n",
			v.DeviceFailures, v.RebuildsStarted, v.RebuildsDone, v.RebuildChunks)
		fmt.Fprintf(&b, "volume.rebuildms: %s degradedms: %s rebuildbusy: %s\n",
			g(v.RebuildMs), g(v.DegradedMs), g(v.RebuildBusy))
		fmt.Fprintf(&b, "volume.counts: dr=%d dw=%d sr=%d lost=%d\n",
			v.DegradedReads, v.DegradedWrites, v.SpareReads, v.LostRequests)
		dumpDist(&b, "volume.healthy", &v.Healthy)
		dumpDist(&b, "volume.degraded", &v.Degraded)
	} else {
		fmt.Fprintf(&b, "volume: nil\n")
	}
	fmt.Fprintf(&b, "trace: lines=%d sha256=%x\n", bytes.Count(trace, []byte("\n")), sha256.Sum256(trace))
	return b.String()
}

// scenario is one fingerprinted run. Every scenario is executed twice —
// once bare and once under a probe stack (PhaseCollector + JSONL trace)
// — and both fingerprints land in the golden, so probe-neutrality of
// the Result is part of the contract.
type scenario struct {
	name string
	run  func(opts sim.Options) (sim.Result, error)
	// inj builds a fresh injector per execution (injectors are stateful);
	// nil runs without one.
	inj func(t *testing.T) *fault.Injector
	// reach, when set, checks that the bare run reached the path the
	// scenario exists to pin.
	reach func(sim.Result) error
}

func newMEMS(t *testing.T) *mems.Device {
	t.Helper()
	d, err := mems.NewDevice(mems.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func newDisk(t *testing.T) *disk.Device {
	t.Helper()
	d, err := disk.NewDevice(disk.Atlas10K())
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func newSched(t *testing.T, name string) core.Scheduler {
	t.Helper()
	s, err := sched.New(name)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// transientInjector is the §6.1.3 retry scenario: transient errors at a
// visible rate plus, for MEMS, scheduled tip failures degrading stripes
// mid-run (ECC surcharges, lost reads).
func transientInjector(t *testing.T, geo *mems.Geometry) *fault.Injector {
	t.Helper()
	cfg := fault.DefaultInjectorConfig()
	cfg.TransientRate = 0.05
	cfg.Seed = 99
	if geo != nil {
		arr := fault.DefaultConfig()
		cfg.Array = &arr
		cfg.SectorTips = geo.TipsForSector
		cfg.Events = []fault.TipEvent{
			{AtMs: 50, Tip: 3},
			{AtMs: 120, Tip: 67, Defect: true},
			{AtMs: 200, Tip: 131},
		}
	}
	inj, err := fault.NewInjector(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return inj
}

func equivalenceScenarios(t *testing.T) []scenario {
	t.Helper()
	const (
		requests = 400
		warmup   = 40
		seed     = 7
	)
	var scns []scenario

	// ── Open arrivals, single device ────────────────────────────────
	for _, dev := range []string{"mems", "disk"} {
		for _, sc := range []string{"FCFS", "SPTF"} {
			mk := func(t *testing.T) core.Device {
				if dev == "mems" {
					return newMEMS(t)
				}
				return newDisk(t)
			}
			rate := 900.0
			if dev == "disk" {
				rate = 90
			}
			run := func(opts sim.Options) (sim.Result, error) {
				d := mk(t)
				src := workload.DefaultRandom(rate, d.SectorSize(), d.Capacity(), requests, seed)
				return sim.Run(nil, d, newSched(t, sc), src, opts), nil
			}
			scns = append(scns, scenario{name: "open_" + dev + "_" + sc, run: run})
			scns = append(scns, scenario{
				name: "open_" + dev + "_" + sc + "_inj",
				run:  run,
				inj: func(t *testing.T) *fault.Injector {
					if dev == "mems" {
						geo := newMEMS(t).Geometry()
						return transientInjector(t, geo)
					}
					return transientInjector(t, nil)
				},
			})
		}
	}

	// ── Closed, back-to-back ────────────────────────────────────────
	for _, dev := range []string{"mems", "disk"} {
		run := func(opts sim.Options) (sim.Result, error) {
			var d core.Device
			if dev == "mems" {
				d = newMEMS(t)
			} else {
				d = newDisk(t)
			}
			// The §5.3 regime: bipartite sizes under the simple layout.
			var pl core.Device = d
			_ = pl
			cfg := workload.RandomConfig{
				Rate: 1, ReadFraction: 0.67, MeanBytes: 4096, MaxBytes: 64 * 1024,
				SectorSize: d.SectorSize(), Capacity: d.Capacity(), Count: requests, Seed: seed,
			}
			return sim.RunClosed(nil, d, workload.NewRandom(cfg), opts), nil
		}
		scns = append(scns, scenario{name: "closed_" + dev, run: run})
		scns = append(scns, scenario{
			name: "closed_" + dev + "_inj",
			run:  run,
			inj: func(t *testing.T) *fault.Injector {
				if dev == "mems" {
					return transientInjector(t, newMEMS(t).Geometry())
				}
				return transientInjector(t, nil)
			},
		})
	}

	// ── Multi-device stripe volumes (no redundancy) ───────────────
	// unit is the strip in sectors; 0 concatenates the members (one
	// strip per member).
	multi := func(devName string, n int, schedName string, unit int64, spill bool) func(opts sim.Options) (sim.Result, error) {
		return func(opts sim.Options) (sim.Result, error) {
			devs := make([]core.Device, n)
			scheds := make([]core.Scheduler, n)
			for i := range devs {
				if devName == "mems" {
					devs[i] = newMEMS(t)
				} else {
					devs[i] = newDisk(t)
				}
				scheds[i] = newSched(t, schedName)
			}
			per := devs[0].Capacity()
			if unit == 0 {
				unit = per
			}
			v, err := array.NewVolume(array.VolumeConfig{Level: array.VolStripe, Members: n,
				StripeUnit: unit, PerMember: per})
			if err != nil {
				t.Fatal(err)
			}
			rate := 1600.0
			if devName == "disk" {
				rate = 160
			}
			meanBytes := 4096.0
			if spill {
				// Large requests that regularly spill a strip boundary,
				// exercising the planner's fork-join split.
				meanBytes = 512 * 1024
				rate /= 64
			}
			cfg := workload.RandomConfig{
				Rate: rate, ReadFraction: 0.67, MeanBytes: meanBytes, MaxBytes: 16 * 1024 * meanBytes / 4096,
				SectorSize: devs[0].SectorSize(), Capacity: per * int64(n),
				Count: requests, Seed: seed,
			}
			return sim.RunVolume(nil, sim.VolumeSpec{Volume: v, Devices: devs, Scheds: scheds},
				workload.NewRandom(cfg), opts)
		}
	}
	scns = append(scns,
		scenario{name: "multi_mems_stripe_SPTF", run: multi("mems", 2, "SPTF", 2700, false)},
		scenario{name: "multi_mems_stripe_SPTF_spill", run: multi("mems", 2, "SPTF", 2700, true)},
		scenario{name: "multi_disk_concat_FCFS", run: multi("disk", 2, "FCFS", 0, false)},
	)

	// ── Redundant volumes (fork-join + failover + rebuild) ──────────
	// vol is one redundant-volume scenario: its geometry, member
	// queues, pacing and fault schedule.
	type vol struct {
		name            string
		level           array.VolumeLevel
		members, spares int
		sched           string
		adaptive        bool
		// kills are the scheduled whole-device failures; transient and
		// maxRetries, when transient > 0, add transient positioning
		// errors with that inline retry budget (one requeue).
		kills      []fault.DeviceEvent
		transient  float64
		maxRetries int
		reach      func(sim.Result) error
	}
	volume := func(vc vol) scenario {
		run := func(opts sim.Options) (sim.Result, error) {
			cfg := array.VolumeConfig{
				Level: vc.level, Members: vc.members, Spares: vc.spares,
				StripeUnit: 540, PerMember: 54000,
			}
			v, err := array.NewVolume(cfg)
			if err != nil {
				t.Fatal(err)
			}
			n := cfg.Devices()
			devs := make([]core.Device, n)
			scheds := make([]core.Scheduler, n)
			for i := range devs {
				devs[i] = newMEMS(t)
				scheds[i] = newSched(t, vc.sched)
			}
			src := workload.NewRandom(workload.RandomConfig{
				Rate: 900, ReadFraction: 0.67, MeanBytes: 4096, MaxBytes: 16 * 1024,
				SectorSize: devs[0].SectorSize(), Capacity: cfg.Capacity(),
				Count: requests, Seed: seed,
			})
			return sim.RunVolume(nil, sim.VolumeSpec{
				Volume: v, Devices: devs, Scheds: scheds,
				RebuildChunk: 2700, RebuildFrac: 0.5, AdaptiveRebuild: vc.adaptive,
			}, src, opts)
		}
		scn := scenario{name: vc.name, run: run, reach: vc.reach}
		if len(vc.kills) > 0 || vc.transient > 0 {
			scn.inj = func(t *testing.T) *fault.Injector {
				cfg := fault.InjectorConfig{Seed: 41, DeviceEvents: vc.kills}
				if vc.transient > 0 {
					cfg.TransientRate, cfg.MaxRetries, cfg.MaxRequeues = vc.transient, vc.maxRetries, 1
					cfg.FallbackPenaltyMs = 1
				}
				inj, err := fault.NewInjector(cfg)
				if err != nil {
					t.Fatal(err)
				}
				return inj
			}
		}
		return scn
	}
	kill := []fault.DeviceEvent{{AtMs: 80, Dev: 1}}
	scns = append(scns,
		volume(vol{name: "volume_mirror", level: array.VolMirror, members: 2, spares: 1, sched: "SPTF"}),
		volume(vol{name: "volume_mirror_fail", level: array.VolMirror, members: 2, spares: 1, sched: "SPTF",
			kills: kill}),
		volume(vol{name: "volume_parity_fail", level: array.VolParity, members: 3, spares: 1, sched: "SPTF",
			kills: kill}),
		// Queue-aware pacing under the same failure: pins the adaptive
		// pacing's trajectory (pace changes shift chunk timing and the
		// trace) without touching the fixed-pacing goldens above.
		volume(vol{name: "volume_parity_fail_adaptive", level: array.VolParity, members: 3, spares: 1,
			sched: "SPTF", adaptive: true, kills: kill}),
		// Transient errors on FCFS member queues around the kill, with
		// no inline retry: a member op that errs goes back to its own
		// queue through core.Requeuer, and fails its parent on a second
		// error.
		volume(vol{name: "volume_parity_fail_transient", level: array.VolParity, members: 3, spares: 1,
			sched: "FCFS", kills: kill, transient: 0.05, maxRetries: 0,
			reach: func(res sim.Result) error {
				if res.Requeues == 0 {
					return fmt.Errorf("no requeues: the requeue path is not reached")
				}
				return nil
			}}),
		// The surviving mirror member dies mid-rebuild: the dead queue's
		// drain fails parents whose data is gone, stale plans re-resolve
		// onto the half-rebuilt spare, and the volume loses data.
		volume(vol{name: "volume_mirror_second_fail", level: array.VolMirror, members: 2, spares: 1,
			sched: "SPTF", kills: []fault.DeviceEvent{{AtMs: 80, Dev: 1}, {AtMs: 175, Dev: 0}},
			reach: func(res sim.Result) error {
				if !res.DataLoss || res.Volume.LostRequests == 0 || res.FailedRequests == 0 {
					return fmt.Errorf("dataloss %v, lost %d, failed %d: the second failure lost nothing",
						res.DataLoss, res.Volume.LostRequests, res.FailedRequests)
				}
				return nil
			}}),
	)

	_ = warmup
	return scns
}

// TestEquivalence locks the engine to the pre-refactor loops: for each
// scenario the bare and probed fingerprints must match the committed
// golden byte-for-byte.
func TestEquivalence(t *testing.T) {
	const warmup = 40
	for _, scn := range equivalenceScenarios(t) {
		t.Run(scn.name, func(t *testing.T) {
			execute := func(probed bool) string {
				opts := sim.Options{Warmup: warmup}
				if scn.inj != nil {
					opts.Injector = scn.inj(t)
				}
				var trace bytes.Buffer
				var jp *sim.JSONLProbe
				if probed {
					jp = sim.NewJSONLProbe(&trace)
					opts.Probe = sim.MultiProbe{sim.NewPhaseCollector(), jp}
				}
				res, err := scn.run(opts)
				if !probed && scn.reach != nil && err == nil {
					if rerr := scn.reach(res); rerr != nil {
						t.Error(rerr)
					}
				}
				if jp != nil {
					if ferr := jp.Flush(); ferr != nil {
						t.Fatal(ferr)
					}
				}
				return fingerprint(res, err, trace.Bytes())
			}
			got := "── bare ──\n" + execute(false) + "── probed ──\n" + execute(true)

			path := filepath.Join("testdata", "equivalence", scn.name+".golden")
			if *updateGolden {
				if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("missing golden (run with -update-golden to capture): %v", err)
			}
			if got != string(want) {
				t.Errorf("fingerprint diverged from pre-refactor golden\n--- got ---\n%s--- want ---\n%s",
					got, want)
			}
		})
	}
}
