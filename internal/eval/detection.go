package eval

import (
	"fmt"
	"time"

	"repro/internal/ethaddr"
	"repro/internal/labnet"
	"repro/internal/netsim"
	"repro/internal/schemes"
	"repro/internal/schemes/registry"
	_ "repro/internal/schemes/registry/all" // link every scheme factory
	"repro/internal/stack"
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

// trialResult is one detection trial's outcome.
type trialResult struct {
	detected   bool
	latency    time.Duration // first attack alert − attack start
	fpAlerts   int           // alerts attributable to benign churn
	churns     int
	alerts     int // alerts delivered to the (outer) sink
	suppressed int // alerts the stack correlator collapsed (stack trials)
}

// detectionTrialConfig parameterizes one trial.
type detectionTrialConfig struct {
	scheme   string
	stack    registry.Stack // non-empty: deploy a stack instead of scheme
	seed     int64
	hosts    int
	churns   int           // benign readdressing events before/after attack
	attackAt time.Duration // MITM start
	horizon  time.Duration
	// stopAtDetection ends the run at the alert that decides detected and
	// latency. Only for callers that use nothing else: the alert and
	// false-positive counts then cover the run up to that alert.
	stopAtDetection bool
}

// runDetectionTrial runs one seeded scenario: benign churn plus a periodic
// gateway-poisoning MITM, one detection scheme deployed, and returns what
// the scheme reported.
func runDetectionTrial(cfg detectionTrialConfig) trialResult {
	l := newAttackLAN(cfg.seed, cfg.hosts, 200*time.Microsecond)
	defer l.Recycle()
	sink := schemes.NewSink()
	gw, victim := l.Gateway(), l.Victim()
	// Randomize the attack's phase relative to probe windows and refresh
	// timers so latency distributions have genuine spread.
	attackAt := cfg.attackAt + time.Duration(l.Sched.Rand().Int63n(int64(5*time.Second)))
	if cfg.attackAt > cfg.horizon { // churn-only trials keep "never"
		attackAt = cfg.attackAt
	}

	var si *registry.StackInstance
	if len(cfg.stack.Schemes) > 0 {
		var err error
		if si, err = registry.DeployStack(l.Env(sink, nil), cfg.stack); err != nil {
			panic(fmt.Sprintf("eval: stack rejected: %v", err)) // a bug, not a result
		}
	} else {
		deployDetectionScheme(l, sink, cfg.scheme)
	}

	warmAttackLAN(l)

	// Benign churn: replacement stations take over existing addresses at
	// seeded random instants. Targets are distinct — two replacements
	// claiming one IP would be a genuine conflict, not benign churn.
	churned := make(map[ethaddr.IPv4]bool)
	churnable := append([]*stack.Host(nil), l.Hosts[2:]...) // never the gateway or the victim
	l.Sched.Rand().Shuffle(len(churnable), func(i, j int) {
		churnable[i], churnable[j] = churnable[j], churnable[i]
	})
	churns := cfg.churns
	if churns > len(churnable) {
		churns = len(churnable)
	}
	for i := 0; i < churns; i++ {
		// Churn starts after the cache-seeding transient: a replacement
		// arriving mid-resolution would race the departing host's own
		// replies, which is a conflict, not clean churn.
		at := 10*time.Second + time.Duration(l.Sched.Rand().Int63n(int64(cfg.horizon-20*time.Second)))
		target := churnable[i]
		l.Sched.At(at, func() {
			replaceStation(l, target)
			churned[target.IP()] = true
		})
	}

	launchGatewayMITM(l, attackAt)
	detects := func(a schemes.Alert) bool {
		return (a.IP == gw.IP() || a.IP == victim.IP()) && a.At >= attackAt
	}
	if cfg.stopAtDetection {
		// The sink reports alerts in time order, so the first one detects
		// accepts is the one the scan below picks.
		sink.OnAlert(func(a schemes.Alert) {
			if detects(a) {
				l.Sched.Stop()
			}
		})
	}

	_ = l.Run(cfg.horizon)

	res := trialResult{churns: churns, alerts: sink.Len()}
	if si != nil {
		res.suppressed = si.Correlation().Suppressed
	}
	for _, a := range sink.Alerts() {
		switch {
		case detects(a):
			if !res.detected {
				res.detected = true
				res.latency = a.At - attackAt
			}
		case churned[a.IP]:
			res.fpAlerts++
		}
	}
	return res
}

// detectionParams holds the per-scheme overrides these trials apply over
// the registry defaults: the comparison deploys every scheme cold — no
// operator-seeded bindings — except snort-like, whose configured signatures
// (gateway + victim, its defaults) are the precondition for any coverage.
var detectionParams = map[string]registry.P{
	registry.NameArpwatch:    {"seedGateway": false},
	registry.NameActiveProbe: {"seedGateway": false},
	registry.NameHybridGuard: {"seedGateway": false},
}

// deployDetectionScheme installs one of the compared detection deployments
// on an assembled LAN, reporting into sink. Shared by the Table 3/Figure 1/
// Figure 4 trials and the fault-intensity experiments (Table 8, Figure 8).
func deployDetectionScheme(l *labnet.LAN, sink *schemes.Sink, scheme string) {
	if _, err := registry.Deploy(l.Env(sink, nil), scheme, detectionParams[scheme]); err != nil {
		panic(fmt.Sprintf("eval: deploy %s: %v", scheme, err)) // a bug, not a result
	}
}

// replaceStation swaps a host for a new station with the same IP but a new
// MAC — the observable effect of a device swap or DHCP reassignment.
func replaceStation(l *labnet.LAN, old *stack.Host) {
	old.NIC().SetUp(false)
	nic := netsim.NewNIC(l.Sched, l.Gen.SeqMAC())
	l.Switch.AddPort().Attach(nic)
	replacement := stack.NewHost(l.Sched, old.Name()+"-new", nic, old.IP())
	replacement.SendGratuitous()
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
	var cfgs []detectionTrialConfig
	for _, scheme := range DetectionSchemes() {
		for seed := int64(1); seed <= int64(trials); seed++ {
			cfgs = append(cfgs, detectionTrialConfig{
				scheme:   scheme,
				seed:     seed,
				hosts:    8,
				churns:   4,
				attackAt: 60 * time.Second,
				horizon:  120 * time.Second,
			})
		}
	}
	results := CachedMap(Scope{Experiment: "table3"}, cfgs, runDetectionTrial)
	for si, scheme := range DetectionSchemes() {
		var detected, fps, churns int
		var latencies []float64
		for _, res := range results[si*trials : (si+1)*trials] {
			if res.detected {
				detected++
				latencies = append(latencies, res.latency.Seconds()*1000)
			}
			fps += res.fpAlerts
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
	var cfgs []detectionTrialConfig
	for _, scheme := range DetectionSchemes() {
		for seed := int64(1); seed <= int64(trials); seed++ {
			cfgs = append(cfgs, detectionTrialConfig{
				scheme:   scheme,
				seed:     seed + 1000, // distinct seed space from Table 3
				hosts:    8,
				churns:   2,
				attackAt: 60 * time.Second,
				horizon:  120 * time.Second,
				// Only latency is plotted.
				stopAtDetection: true,
			})
		}
	}
	results := CachedMap(Scope{Experiment: "figure1"}, cfgs, runDetectionTrial)
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
	var cfgs []detectionTrialConfig
	for _, scheme := range schemesSwept {
		for _, churnsPerRun := range churnRates {
			hosts := churnsPerRun + 4
			if hosts < 8 {
				hosts = 8
			}
			for seed := int64(1); seed <= int64(trialsPerPoint); seed++ {
				cfgs = append(cfgs, detectionTrialConfig{
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
	results := CachedMap(Scope{Experiment: "figure4"}, cfgs, runDetectionTrial)
	cell := 0
	for _, scheme := range schemesSwept {
		for _, churnsPerRun := range churnRates {
			totalFPs := 0
			for _, res := range results[cell*trialsPerPoint : (cell+1)*trialsPerPoint] {
				totalFPs += res.fpAlerts
			}
			cell++
			perHourChurn := float64(churnsPerRun) / horizon.Hours()
			perHourFP := float64(totalFPs) / float64(trialsPerPoint) / horizon.Hours()
			f.AddPoint(scheme, perHourChurn, perHourFP)
		}
	}
	return f
}
