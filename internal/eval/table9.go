package eval

import (
	"fmt"
	"math"
	"time"

	"repro/internal/schemes/registry"
	"repro/internal/stats"
)

// table9Stacks are the representative defense-in-depth deployments: one per
// composition argument in the related work — switch enforcement backed by a
// passive monitor, passive monitoring backed by active verification, and a
// signature NIDS layered with rate anomaly detection plus host hardening.
// The cryptographic protocol replacements are deliberately absent: their
// key generation draws real entropy, which would break the byte-identical
// reproducibility this table guarantees at any parallelism.
func table9Stacks() []registry.Stack {
	mk := func(names ...string) registry.Stack {
		var st registry.Stack
		for _, n := range names {
			st.Schemes = append(st.Schemes, registry.Selection{Name: n})
		}
		return st
	}
	return []registry.Stack{
		mk(registry.NameDAI, registry.NameArpwatch, registry.NamePortSecurity),
		mk(registry.NameArpwatch, registry.NameActiveProbe),
		mk(registry.NameSnortLike, registry.NameFloodDetect, registry.NameMiddleware),
	}
}

// stackRowStats aggregates one deployment's trials.
type stackRowStats struct {
	tpr        float64
	fpPerChurn float64
	latencies  []float64
	alerts     float64 // forwarded alerts per trial
	suppressed float64 // correlator-collapsed alerts per trial
}

// better reports whether a beats b for "best single member": higher TPR,
// then fewer FPs, then lower median latency. Stack order breaks exact ties
// (the earlier member keeps the title).
func (a stackRowStats) better(b stackRowStats) bool {
	if a.tpr != b.tpr {
		return a.tpr > b.tpr
	}
	if a.fpPerChurn != b.fpPerChurn {
		return a.fpPerChurn < b.fpPerChurn
	}
	return a.medianLatency() < b.medianLatency()
}

// medianLatency returns the p50 in ms, +Inf when nothing was detected.
func (s stackRowStats) medianLatency() float64 {
	if len(s.latencies) == 0 {
		return math.Inf(1)
	}
	return stats.Quantile(s.latencies, 0.5)
}

// Table9Stacks measures composable defense-in-depth: each representative
// stack on the standard churn + MITM workload, against its best single
// member deployed alone — through the same correlation layer, so the
// comparison isolates composition, not plumbing.
//
// Expected shape (the layered-deployment argument): a stack's coverage is
// the union of its members' — the switch-inline layers keep detecting when
// the monitor's vantage fails and vice versa — while correlation keeps the
// operator's pager load near the best member's, with the redundancy showing
// up as suppressed duplicates instead of extra pages.
func Table9Stacks(trials int) *Table {
	t := &Table{
		ID: "Table 9",
		Title: fmt.Sprintf(
			"Defense-in-depth stacks vs best single member (%d trials, 8 hosts, 4 churn events)", trials),
		Columns: []string{"deployment", "vantage", "TPR", "FP/churn", "latency p50", "alerts/trial", "suppressed/trial"},
		Notes: []string{
			"single members run as one-scheme stacks through the same alert correlator — composition is the only variable",
			"suppressed: same-(IP, kind) alerts collapsed within the 5s correlation window; cross-vantage redundancy, not pager load",
		},
	}

	// Every deployment under test: each stack plus each of its members as a
	// single-element stack, deduplicated.
	composites := table9Stacks()
	var deployments []registry.Stack
	seen := make(map[string]int)
	addDeployment := func(st registry.Stack) {
		if _, ok := seen[st.Label()]; !ok {
			seen[st.Label()] = len(deployments)
			deployments = append(deployments, st)
		}
	}
	for _, st := range composites {
		addDeployment(st)
		for _, sel := range st.Schemes {
			addDeployment(registry.Stack{Schemes: []registry.Selection{sel}})
		}
	}

	// One flat (deployment × seed) grid, like Table 3, so the worker pool
	// stays saturated and output is identical at any -parallel width.
	var cfgs []trialConfig
	for _, st := range deployments {
		for seed := int64(1); seed <= int64(trials); seed++ {
			cfgs = append(cfgs, trialConfig{
				stack:    st,
				seed:     seed + 9000, // distinct seed space from Tables 3/7/8
				hosts:    8,
				churns:   4,
				attackAt: 60 * time.Second,
				horizon:  120 * time.Second,
			})
		}
	}
	results := Map(cfgs, runTrial)

	rowStats := make([]stackRowStats, len(deployments))
	for di := range deployments {
		var row stackRowStats
		var detected, fps, churns, alerts, suppressed int
		for _, res := range results[di*trials : (di+1)*trials] {
			if res.detected {
				detected++
				row.latencies = append(row.latencies, res.latency.Seconds()*1000)
			}
			fps += res.churnAlerts
			churns += res.churns
			alerts += res.alerts
			suppressed += res.suppressed
		}
		row.tpr = stats.NewProportion(detected, trials).P
		if churns > 0 {
			row.fpPerChurn = float64(fps) / float64(churns)
		}
		row.alerts = float64(alerts) / float64(trials)
		row.suppressed = float64(suppressed) / float64(trials)
		rowStats[di] = row
	}

	addRow := func(label, vantage string, s stackRowStats) {
		t.AddRow(label, vantage,
			fmt.Sprintf("%.2f", s.tpr),
			fmt.Sprintf("%.2f", s.fpPerChurn),
			latencyCell(s.latencies, 0.5),
			fmt.Sprintf("%.1f", s.alerts),
			fmt.Sprintf("%.1f", s.suppressed),
		)
	}
	for _, st := range composites {
		addRow(st.Label(), "composite", rowStats[seen[st.Label()]])

		best := st.Schemes[0].Name
		bestStats := rowStats[seen[best]]
		for _, sel := range st.Schemes[1:] {
			if s := rowStats[seen[sel.Name]]; s.better(bestStats) {
				best, bestStats = sel.Name, s
			}
		}
		f, _ := registry.Lookup(best)
		addRow("  best single: "+best, string(f.Deployment.Vantage), bestStats)
	}
	return t
}
