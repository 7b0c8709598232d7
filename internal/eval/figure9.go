package eval

import (
	"fmt"
	"time"

	"repro/internal/schemes/registry"
	"repro/internal/stats"
)

// Figure9CampusScaling sweeps the campus population from hundreds to a
// million stations and plots, per size, the median detection latency of
// the per-LAN arpwatch deployment alongside the fabric throughput the
// sharded engine sustained. Latency staying flat while throughput grows
// with the population is the deployment-cost argument made quantitative:
// a per-LAN vantage keeps working at campus scale because each appliance
// still watches one segment, no matter how many segments exist.
func Figure9CampusScaling(sizes []int, trialsPerPoint, workers int, horizon time.Duration) *Figure {
	f := &Figure{
		ID: "Figure 9",
		Title: fmt.Sprintf("Campus scaling: detection latency and fabric throughput vs population (%d trials/point, %v horizon)",
			trialsPerPoint, horizon),
		XLabel: "hosts",
		YLabel: "latency_ms | frames_per_sim_sec",
		XFmt:   "%.0f",
		YFmt:   "%.1f",
	}
	var cfgs []trialConfig
	for _, size := range sizes {
		for seed := int64(1); seed <= int64(trialsPerPoint); seed++ {
			cfgs = append(cfgs, trialConfig{
				scheme:  registry.NameArpwatch,
				campus:  true,
				hosts:   size,
				seed:    seed + 11000, // distinct seed space from the flat-LAN trials
				workers: workers,
				horizon: horizon,
			})
		}
	}
	results := Map(cfgs, runTrial)
	for si, size := range sizes {
		var latencies, rates []float64
		for _, res := range results[si*trialsPerPoint : (si+1)*trialsPerPoint] {
			// A miss is censored at the observation bound, from the drawn
			// attack start.
			latencies = append(latencies, res.latencyOr(horizon-res.attackAt).Seconds()*1000)
			rates = append(rates, float64(res.frames)/horizon.Seconds())
		}
		f.AddPoint("arpwatch_latency_ms", float64(size), stats.Quantile(latencies, 0.5))
		f.AddPoint("fabric_frames_per_sec", float64(size), stats.Quantile(rates, 0.5))
	}
	return f
}
