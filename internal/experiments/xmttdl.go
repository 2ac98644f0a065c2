package experiments

import (
	"fmt"
	"sync"

	"memsim/internal/array"
	"memsim/internal/fault"
	"memsim/internal/runner"
)

func init() { register("mttdl", mttdlPlan) }

// DefaultMTTFHours is the per-device exponential MTTF used by the mttdl
// experiment when Params.MTTFHours is zero. It is deliberately
// compressed (real devices quote 10⁵–10⁶ hours) so a Monte-Carlo trial
// spans a tractable number of failure cycles; MTTDL scales as MTTF², so
// the MEMS-vs-disk ratio — the paper's §6 claim — is unaffected by the
// compression.
const DefaultMTTFHours = 1000

// mttdlMaxCycles bounds one trial's healthy→failure→repair cycles. At
// the default MTTF and measured rebuild windows a loss arrives within
// ~10³–10⁴ cycles, so 2²² leaves the censoring probability at e^-300
// territory; it exists so a degenerate window cannot loop forever.
const mttdlMaxCycles = 1 << 22

// mttdlCheckpointEvery is the trial interval between periodic
// checkpoint flushes. Trials are microseconds of CPU, so the interval
// is large — roughly a second of lost work per flush — and the flush
// that matters most (on cancellation) happens regardless.
const mttdlCheckpointEvery = 1 << 20

// mttdlOutcome is one (device, level) job's summary.
type mttdlOutcome struct {
	windowS  float64 // measured rebuild window (MTTR) in seconds
	sumMs    float64 // summed time-to-data-loss across trials
	trials   int
	censored int // trials that hit mttdlMaxCycles without a loss
}

// mttdlState is one job's resumable progress, serialized into the
// checkpoint file: the measured rebuild window plus the renewal chain's
// running sums through the first Trial trials. Because every trial
// draws from its own derived seed sub-stream, completing trials
// [Trial, n) on a resumed run reproduces the uninterrupted totals
// exactly.
type mttdlState struct {
	WindowS  float64 `json:"window_s"`
	Trial    int     `json:"trial"`
	SumMs    float64 `json:"sum_ms"`
	Censored int     `json:"censored"`
}

// mttdlHours is the trial-mean time to data loss in hours.
func (o mttdlOutcome) mttdlHours() float64 {
	if o.trials == 0 {
		return 0
	}
	return o.sumMs / float64(o.trials) / 3.6e6
}

// mttdlPlan (extension) closes the §6 availability argument
// quantitatively: how long does a redundant volume survive when
// whole-device failures arrive from an exponential lifetime model? Each
// (device, level) job first measures the volume's real rebuild window —
// an actual RunVolume member kill and online rebuild at throttle 0.3,
// foreground traffic competing in the queues — then Monte-Carlo samples
// the two-state renewal process: draw the first member death, and the
// volume dies if the next death among the survivors lands inside the
// measured window, else the spare covers and the cycle repeats. Trials
// share per-trial seeds across device types (common random numbers), so
// the MEMS/disk MTTDL ratio concentrates tightly around the
// rebuild-window ratio (~3.7–4×) instead of drowning in lifetime
// variance.
func mttdlPlan(p Params) *Plan {
	mttfHours := p.MTTFHours
	if mttfHours <= 0 {
		mttfHours = DefaultMTTFHours
	}
	mttfMs := mttfHours * 3600 * 1000
	trials := p.Trials
	if trials < 1 {
		trials = 1
	}

	levels := []struct {
		name string
		cfg  array.VolumeConfig
	}{
		{"mirror", rebuildMirrorCfg()},
		{"parity", rebuildParityCfg()},
	}
	devices := rebuildDevices()

	// The checkpoint opens lazily and once, shared by all four jobs (the
	// store itself is concurrency-safe). Binding the full Params set in
	// makes resuming under different flags an error instead of a silently
	// different answer.
	var (
		ckOnce sync.Once
		ck     *runner.Checkpoint
		ckErr  error
	)
	openCheckpoint := func() (*runner.Checkpoint, error) {
		if p.Checkpoint == "" {
			return nil, nil
		}
		ckOnce.Do(func() {
			ck, ckErr = runner.OpenCheckpoint(p.Checkpoint, "mttdl", p)
		})
		return ck, ckErr
	}

	grid := make([][]*runner.Job, len(levels))
	var jobs []*runner.Job
	for li, lv := range levels {
		grid[li] = make([]*runner.Job, len(devices))
		for di, dev := range devices {
			j := &runner.Job{
				Label: fmt.Sprintf("mttdl %s %s", dev.name, lv.name),
				Seed:  p.Seed,
			}
			j.Body = func(job *runner.Job) any {
				ckpt, err := openCheckpoint()
				if err != nil {
					return err
				}
				save := func(st mttdlState) error {
					if ckpt == nil {
						return nil
					}
					return ckpt.Save(job.Label, &st)
				}
				var st mttdlState
				if ckpt == nil || !ckpt.Load(job.Label, &st) {
					// Fresh start: the vulnerability window is measured, not
					// assumed — one real failover run under foreground load at
					// throttle 0.3 (the rebuild artifact's middle operating
					// point). An interruption here has nothing worth saving.
					w := rebuildRun(job.SimContext(), lv.cfg, dev.mk, dev.rate, 0.3, false, p.MemberSched, p.FaultRate, p)
					if cerr := job.Ctx().Err(); cerr != nil {
						return cerr
					}
					st = mttdlState{WindowS: w.mttrS}
				}
				out := mttdlOutcome{windowS: st.WindowS, trials: trials}
				windowMs := st.WindowS * 1000
				if windowMs <= 0 {
					// Rebuild never completed (degenerate sizing): without a
					// window the renewal chain is meaningless — report the
					// run rather than spinning every trial to the cycle cap.
					out.trials = 0
					return out
				}
				for i := st.Trial; i < trials; i++ {
					if i&1023 == 0 && job.Ctx().Err() != nil {
						// Cancelled mid-chain: persist the completed trials so
						// the next run resumes instead of restarting, then fail
						// the job with the cancellation cause.
						if serr := save(st); serr != nil {
							return serr
						}
						return job.Ctx().Err()
					}
					// The trial label omits the device, so MEMS and disk
					// draw identical lifetimes and differ only in window.
					seed := runner.DeriveSeed(p.Seed, fmt.Sprintf("mttdl %s trial %d", lv.name, i))
					s := fault.NewLifetimeSampler(mttfMs, seed)
					t, lost := fault.TimeToDataLoss(s, lv.cfg.Members, windowMs, mttdlMaxCycles)
					st.SumMs += t
					if !lost {
						st.Censored++
					}
					st.Trial = i + 1
					if st.Trial%mttdlCheckpointEvery == 0 {
						if serr := save(st); serr != nil {
							return serr
						}
					}
				}
				if serr := save(st); serr != nil {
					return serr
				}
				out.sumMs, out.censored = st.SumMs, st.Censored
				return out
			}
			grid[li][di] = j
			jobs = append(jobs, j)
		}
	}

	return &Plan{
		Jobs: jobs,
		Assemble: func() []Table {
			t := Table{
				ID: "mttdl",
				Title: fmt.Sprintf("Monte-Carlo MTTDL, per-device MTTF %g h (compressed), %d trials, window measured at throttle 0.3",
					mttfHours, trials),
				Columns: []string{"volume", "MEMS window(s)", "disk window(s)",
					"MEMS MTTDL(h)", "disk MTTDL(h)", "MEMS/disk", "censored"},
			}
			for li, lv := range levels {
				m := grid[li][0].Value().(mttdlOutcome)
				d := grid[li][1].Value().(mttdlOutcome)
				ratio := 0.0
				if d.mttdlHours() > 0 {
					ratio = m.mttdlHours() / d.mttdlHours()
				}
				t.AddRow(lv.name, f2(m.windowS), f2(d.windowS),
					f2(m.mttdlHours()), f2(d.mttdlHours()), f2(ratio),
					fmt.Sprintf("%d", m.censored+d.censored))
			}
			return []Table{t}
		},
	}
}
