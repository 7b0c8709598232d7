package eval

import (
	"fmt"
	"time"

	"repro/internal/faults"
	"repro/internal/schemes/registry"
	"repro/internal/stats"
)

// figure10Deployment is one compared deployment: a single detection scheme
// or the best Table 9 defense-in-depth stack.
type figure10Deployment struct {
	label  string
	scheme string
	stack  registry.Stack
}

// figure10Deployments lists the deployments Figure 10 stress-tests: every
// detection scheme from the Table 3 comparison plus the strongest Table 9
// composition (switch enforcement backed by a passive monitor).
func figure10Deployments() []figure10Deployment {
	var out []figure10Deployment
	for _, s := range DetectionSchemes() {
		out = append(out, figure10Deployment{label: s, scheme: s})
	}
	best := table9Stacks()[0] // dai+arpwatch+port-security
	out = append(out, figure10Deployment{label: best.Label(), stack: best})
	return out
}

// figure10FaultPlan is the adverse-conditions script every Figure 10 trial
// runs under, expressed in the same hierarchical fault grammar scenarios
// use: a bursty-loss window across the attacked segment's access links, a
// backbone partition that cuts the attacked LAN off from every peer while
// the MITM is live, and a campus-wide router CAM flush during recovery.
func figure10FaultPlan() *faults.Plan {
	return &faults.Plan{Events: []faults.Event{
		{Type: faults.TypeGilbertElliott, AtSeconds: 5, DurationSeconds: 20,
			PGoodBad: 0.05, PBadGood: 0.2, LossBad: 0.6, LinkAt: "lan:0/link:*"},
		{Type: faults.TypeTrunkPartition, AtSeconds: 12, DurationSeconds: 10,
			Trunk: "trunk:0-*"},
		{Type: faults.TypeRouterFlush, AtSeconds: 20, Lan: "lan:*"},
	}}
}

// Figure10FaultedCampus sweeps the campus population from hundreds to a
// million stations and plots, per deployment, the median detection latency
// under a fixed adversity script: a lossy access segment, a backbone
// partition isolating the attacked LAN, and a campus-wide router flush.
// Figure 9 argued the per-LAN vantage scales; this figure argues it also
// degrades gracefully — detection is a segment-local property, so cutting
// the backbone or flushing the routed core must not blind it.
func Figure10FaultedCampus(sizes []int, trialsPerPoint, workers int, horizon time.Duration) *Figure {
	f := &Figure{
		ID: "Figure 10",
		Title: fmt.Sprintf("Faulted campus: detection latency per deployment vs population (%d trials/point, %v horizon; lossy LAN 0 + backbone partition + router flush)",
			trialsPerPoint, horizon),
		XLabel: "hosts",
		YLabel: "latency_ms",
		XFmt:   "%.0f",
		YFmt:   "%.1f",
	}
	deployments := figure10Deployments()
	var cfgs []campusTrialConfig
	for _, d := range deployments {
		for _, size := range sizes {
			for seed := int64(1); seed <= int64(trialsPerPoint); seed++ {
				cfgs = append(cfgs, campusTrialConfig{
					scheme:          d.scheme,
					stack:           d.stack,
					faulted:         true,
					size:            size,
					seed:            seed + 12000, // distinct seed space from Figure 9
					workers:         workers,
					horizon:         horizon,
					stopAtDetection: true, // only latency is plotted
				})
			}
		}
	}
	scope := Scope{Experiment: "figure10", Params: fmt.Sprintf("horizon=%v", horizon)}
	results := CachedMap(scope, cfgs, runCampusTrial)
	cell := 0
	for _, d := range deployments {
		for _, size := range sizes {
			var latencies []float64
			for _, res := range results[cell*trialsPerPoint : (cell+1)*trialsPerPoint] {
				latencies = append(latencies, res.latency.Seconds()*1000)
			}
			cell++
			f.AddPoint(d.label, float64(size), stats.Quantile(latencies, 0.5))
		}
	}
	return f
}
