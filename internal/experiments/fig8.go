package experiments

import "fmt"

func init() { register("fig8", fig8Plan) }

// fig8Plan reproduces Fig. 8: the settling-time sensitivity study. The
// random workload is re-run on the MEMS device with zero and with two
// settling time constants (the default elsewhere is one). With two
// constants, X seeks dominate and SSTF_LBN closely approximates SPTF;
// with zero, the Y dimension matters and SPTF pulls away (§4.4).
func fig8Plan(p Params) *Plan {
	var plans []*Plan
	for _, k := range []float64{0, 2} {
		prefix := fmt.Sprintf("fig8-settle%g", k)
		device := fmt.Sprintf("MEMS device, %g settling time constants", k)
		plans = append(plans, sweepPlan(prefix, device, memsFactory(k), memsRates, p))
	}
	return mergePlans(plans...)
}
