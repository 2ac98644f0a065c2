package experiments

func init() { register("fig6", fig6Plan) }

// memsRates sweeps the MEMS device. Mean random 4 KB service is
// ≈ 0.8 ms, so FCFS saturates near 1250 req/s while the seek-aware
// schedulers carry into the 1500–2500 req/s region the paper plots.
var memsRates = []float64{250, 500, 750, 1000, 1250, 1500, 1750, 2000, 2250, 2500}

// fig6Plan reproduces Fig. 6: the scheduling algorithms on the MEMS-based
// storage device under the random workload.
func fig6Plan(p Params) *Plan {
	return sweepPlan("fig6", "MEMS device", memsFactory(1), memsRates, p)
}
