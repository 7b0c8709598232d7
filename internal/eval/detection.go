package eval

import (
	"fmt"
	"time"

	"repro/internal/schemes/registry"
	"repro/internal/stats"
)

// DetectionSchemes lists the detection deployments Table 3 and Figure 1
// compare.
func DetectionSchemes() []string {
	return []string{
		registry.NameArpwatch,
		registry.NameSnortLike,
		registry.NameActiveProbe,
		registry.NameMiddleware,
		registry.NameHybridGuard,
	}
}

// Table3Detection measures detection quality per scheme over `trials`
// seeded scenarios: true-positive rate, false positives per churn event,
// and detection-latency quantiles.
//
// Expected shape: arpwatch detects (the binding was known) but pays ~1 FP
// per churn event; the probing schemes keep FPs near zero; middleware and
// the hybrid guard detect with probe-window latency.
func Table3Detection(trials int) *Table {
	t := &Table{
		ID:      "Table 3",
		Title:   fmt.Sprintf("Detection quality under churn + MITM (%d trials, 8 hosts, 4 churn events)", trials),
		Columns: []string{"scheme", "TPR", "FP/churn", "latency p50", "latency p95"},
		Notes: []string{
			"TPR: trials with ≥1 alert naming the attacked binding after attack start",
			"FP/churn: alerts naming benignly readdressed IPs, per churn event",
		},
	}
	// One flat (scheme × seed) grid keeps the pool saturated even when
	// trials < workers; each scheme aggregates its own slice segment.
	var cfgs []trialConfig
	for _, scheme := range DetectionSchemes() {
		for seed := int64(1); seed <= int64(trials); seed++ {
			cfgs = append(cfgs, trialConfig{
				scheme:   scheme,
				seed:     seed,
				hosts:    8,
				churns:   4,
				attackAt: 60 * time.Second,
				horizon:  120 * time.Second,
			})
		}
	}
	results := Map(cfgs, runTrial)
	for si, scheme := range DetectionSchemes() {
		var detected, fps, churns int
		var latencies []float64
		for _, res := range results[si*trials : (si+1)*trials] {
			if res.detected {
				detected++
				latencies = append(latencies, res.latency.Seconds()*1000)
			}
			fps += res.churnAlerts
			churns += res.churns
		}
		tpr := stats.NewProportion(detected, trials)
		fpPerChurn := 0.0
		if churns > 0 {
			fpPerChurn = float64(fps) / float64(churns)
		}
		t.AddRow(scheme,
			fmt.Sprintf("%.2f", tpr.P),
			fmt.Sprintf("%.2f", fpPerChurn),
			latencyCell(latencies, 0.5),
			latencyCell(latencies, 0.95),
		)
	}
	return t
}

// latencyCell renders one latency-quantile cell. A scheme that never
// detected has no latency distribution; it gets n/a rather than a quantile
// of nothing.
func latencyCell(latencies []float64, q float64) string {
	if len(latencies) == 0 {
		return "n/a"
	}
	return fmt.Sprintf("%.1fms", stats.Quantile(latencies, q))
}

// Figure1LatencyCDF collects detection latencies per scheme across trials
// and renders their empirical CDFs.
func Figure1LatencyCDF(trials int) *Figure {
	f := &Figure{
		ID:     "Figure 1",
		Title:  fmt.Sprintf("Detection latency CDF per scheme (%d trials)", trials),
		XLabel: "latency_ms",
		YLabel: "P(latency ≤ x)",
		XFmt:   "%.2f",
		YFmt:   "%.3f",
	}
	var cfgs []trialConfig
	for _, scheme := range DetectionSchemes() {
		for seed := int64(1); seed <= int64(trials); seed++ {
			cfgs = append(cfgs, trialConfig{
				scheme:   scheme,
				seed:     seed + 1000, // distinct seed space from Table 3
				hosts:    8,
				churns:   2,
				attackAt: 60 * time.Second,
				horizon:  120 * time.Second,
				stop:     stopAtDecision, // only latency is plotted
			})
		}
	}
	results := Map(cfgs, runTrial)
	for si, scheme := range DetectionSchemes() {
		var latencies []float64
		for _, res := range results[si*trials : (si+1)*trials] {
			if res.detected {
				latencies = append(latencies, res.latency.Seconds()*1000)
			}
		}
		for _, pt := range stats.CDF(latencies) {
			f.AddPoint(scheme, pt.X, pt.P)
		}
	}
	return f
}

// Figure4ChurnFalsePositives sweeps the benign churn rate and reports false
// positives per hour for the passive monitor versus the verifying schemes.
//
// Expected shape: arpwatch FPs grow linearly with churn; active-probe and
// the hybrid guard stay flat near zero because the new owner confirms its
// own binding.
func Figure4ChurnFalsePositives(trialsPerPoint int) *Figure {
	f := &Figure{
		ID:     "Figure 4",
		Title:  "False positives vs binding churn rate (no attack present)",
		XLabel: "churn_events_per_hour",
		YLabel: "false_alerts_per_hour",
		XFmt:   "%.0f",
		YFmt:   "%.2f",
	}
	horizon := 10 * time.Minute
	schemesSwept := []string{"arpwatch", "active-probe", "hybrid-guard"}
	churnRates := []int{0, 1, 2, 4, 8, 16}
	var cfgs []trialConfig
	for _, scheme := range schemesSwept {
		for _, churnsPerRun := range churnRates {
			hosts := churnsPerRun + 4
			if hosts < 8 {
				hosts = 8
			}
			for seed := int64(1); seed <= int64(trialsPerPoint); seed++ {
				cfgs = append(cfgs, trialConfig{
					scheme:   scheme,
					seed:     seed + 5000,
					hosts:    hosts,
					churns:   churnsPerRun,
					attackAt: horizon + time.Hour, // never: churn only
					horizon:  horizon,
				})
			}
		}
	}
	results := Map(cfgs, runTrial)
	cell := 0
	for _, scheme := range schemesSwept {
		for _, churnsPerRun := range churnRates {
			totalFPs := 0
			for _, res := range results[cell*trialsPerPoint : (cell+1)*trialsPerPoint] {
				totalFPs += res.churnAlerts
			}
			cell++
			perHourChurn := float64(churnsPerRun) / horizon.Hours()
			perHourFP := float64(totalFPs) / float64(trialsPerPoint) / horizon.Hours()
			f.AddPoint(scheme, perHourChurn, perHourFP)
		}
	}
	return f
}
