package eval

import (
	"fmt"
	"time"

	"repro/internal/stats"
)

// Figure8FaultIntensitySweep sweeps the composite fault plan's intensity at
// a finer grain than Table 8 and plots, per scheme, the median time from
// attack start to first correct alert. Trials where the scheme never
// detected contribute the horizon-minus-attack bound instead of being
// dropped — silently excluding misses would make a degrading scheme look
// faster as it fails more often.
//
// Expected shape: every curve rises with intensity (lost sightings and lost
// probes both delay the first confirmation); the single-sighting passive
// schemes rise gently, while probe-verified schemes rise faster once
// verification rounds start timing out under burst loss.
func Figure8FaultIntensitySweep(trialsPerPoint int) *Figure {
	f := &Figure{
		ID:     "Figure 8",
		Title:  fmt.Sprintf("Median time-to-detect vs fault intensity (%d trials/point)", trialsPerPoint),
		XLabel: "fault_intensity",
		YLabel: "median_time_to_detect_ms",
		XFmt:   "%.2f",
		YFmt:   "%.1f",
	}
	intensities := []float64{0, 0.25, 0.5, 0.75, 1.0}
	attackAt := 60 * time.Second
	horizon := 120 * time.Second
	var cfgs []trialConfig
	for _, scheme := range DetectionSchemes() {
		for _, x := range intensities {
			for seed := int64(1); seed <= int64(trialsPerPoint); seed++ {
				cfgs = append(cfgs, trialConfig{
					scheme:    scheme,
					seed:      seed + 9000, // distinct seed space from Table 8
					intensity: x,
					hosts:     8,
					churns:    noChurn,
					attackAt:  attackAt,
					horizon:   horizon,
				})
			}
		}
	}
	results := Map(cfgs, runTrial)
	cell := 0
	for _, scheme := range DetectionSchemes() {
		for _, x := range intensities {
			var ttd []float64
			for _, res := range results[cell*trialsPerPoint : (cell+1)*trialsPerPoint] {
				// A miss is censored at the observation bound: the attack
				// ran from attackAt (plus up to 5s of phase) to the horizon
				// without a correct alert.
				ttd = append(ttd, res.latencyOr(horizon-attackAt).Seconds()*1000)
			}
			cell++
			f.AddPoint(scheme, x, stats.Quantile(ttd, 0.5))
		}
	}
	return f
}
