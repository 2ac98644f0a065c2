package experiments

func init() { register("fig5", fig5Plan) }

// diskRates sweeps the Atlas-10K-class disk from light load to beyond
// FCFS saturation (mean service ≈ 8.4 ms ⇒ FCFS saturates near
// 120 req/s; the seek-reducing schedulers carry further, as in Fig. 5).
var diskRates = []float64{20, 40, 60, 80, 100, 120, 140, 160, 180}

// fig5Plan reproduces Fig. 5: the four scheduling algorithms on the Atlas
// 10K under the random workload — (a) average response time, (b) squared
// coefficient of variation.
func fig5Plan(p Params) *Plan {
	return sweepPlan("fig5", "Atlas 10K", diskFactory, diskRates, p)
}
