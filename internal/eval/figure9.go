package eval

import (
	"fmt"
	"time"

	"repro/internal/faults"
	"repro/internal/labnet"
	"repro/internal/schemes"
	"repro/internal/schemes/registry"
	"repro/internal/stats"
)

// campusTrialConfig parameterizes one campus-scale trial: a routed
// multi-LAN topology with `size` total stations, one deployment on every
// LAN — a detection scheme with its detectionParams overrides, or a stack —
// and a router↔victim MITM in LAN 0, optionally under figure10FaultPlan.
// The config stays free of pointers and funcs: CachedMap keys cells by its
// %+v rendering.
type campusTrialConfig struct {
	scheme  string         // single-scheme deployments
	stack   registry.Stack // non-empty: deploy the stack instead
	faulted bool           // arm figure10FaultPlan
	size    int
	seed    int64
	workers int
	horizon time.Duration
	// stopAtDetection ends the run at the alert that decides detected and
	// latency. Only for callers that use nothing else: frames and faults
	// then cover the run up to that alert, not the horizon.
	stopAtDetection bool
}

// campusTrialResult is one campus trial's outcome.
type campusTrialResult struct {
	hosts    int
	detected bool
	latency  time.Duration
	frames   uint64 // frames the whole fabric carried to the horizon
	faults   uint64 // fault events the plan demonstrably injected
}

// runCampusTrial assembles a campus sized for cfg.size hosts, installs the
// deployment on every LAN, arms the standard LAN-0 gateway MITM and, when
// faulted, the fault plan, and reports the correlated first-detection
// latency plus fabric throughput.
//
// With cfg.stopAtDetection the engine stops at the round barrier after the
// first alert the post-run scan would pick. LAN 0's sink reports in time
// order, so that alert is already the scan's answer when it is reported.
func runCampusTrial(cfg campusTrialConfig) campusTrialResult {
	lans, perLAN := labnet.SizeCampus(cfg.size)
	fanout := perLAN / 256
	if fanout < 4 {
		fanout = 4
	}
	campusCfg := labnet.CampusConfig{
		Seed:        cfg.seed,
		LANs:        lans,
		HostsPerLAN: perLAN,
		Workers:     cfg.workers,
		// Background load proportional to the population, so throughput
		// measures the fabric actually working at that scale.
		BackgroundFanout: fanout,
		WithAttacker:     true,
	}
	stacked := len(cfg.stack.Schemes) > 0
	if stacked {
		opts, err := registry.StackHostOptions(cfg.stack)
		if err != nil {
			panic(fmt.Sprintf("eval: stack host options: %v", err)) // a bug, not a result
		}
		campusCfg.HostOptions = opts
	}
	c := labnet.NewCampus(campusCfg)
	defer c.Recycle()
	for _, site := range c.Sites() {
		var err error
		if stacked {
			_, err = registry.DeployStack(site.Env(), cfg.stack)
		} else {
			_, err = registry.Deploy(site.Env(), cfg.scheme, detectionParams[cfg.scheme])
		}
		if err != nil {
			panic(fmt.Sprintf("eval: campus deploy on lan %d: %v", site.Index, err)) // a bug, not a result
		}
	}

	lan0 := c.LANs[0]
	atk, victim := lan0.Attacker, lan0.Victim()
	gwIP, gwMAC := lan0.Router.IP(), lan0.Router.MAC()
	// Same phase randomization as the flat-LAN trials: the attack lands at
	// a seeded random offset within a 5s window — under faults, inside the
	// impairment window and just before the backbone partition.
	attackAt := 10*time.Second + time.Duration(lan0.Sched.Rand().Int63n(int64(5*time.Second)))
	lan0.Sched.At(attackAt, func() {
		atk.PoisonPeriodically(2*time.Second, victim.MAC(), victim.IP(), gwMAC, gwIP)
		atk.RelayBetween(victim.MAC(), victim.IP(), gwMAC, gwIP)
	})
	detects := func(a schemes.Alert) bool {
		return (a.IP == gwIP || a.IP == victim.IP()) && a.At >= attackAt
	}
	if cfg.stopAtDetection {
		lan0.Sink.OnAlert(func(a schemes.Alert) {
			if detects(a) {
				c.Sharded.Stop()
			}
		})
	}

	// Same ordering contract as the scenario engine: faults arm after
	// scheme deployment and attack arming.
	var ctl *faults.Controller
	if cfg.faulted {
		var err error
		if ctl, err = faults.Apply(figure10FaultPlan(), c.FaultEnv()); err != nil {
			panic(fmt.Sprintf("eval: figure 10 fault plan rejected: %v", err)) // a bug, not a result
		}
	}

	_ = c.Run(cfg.horizon)

	res := campusTrialResult{hosts: c.TotalHosts(), frames: c.Frames()}
	if ctl != nil {
		res.faults = ctl.Stats().Total()
	}
	for _, a := range c.MergedAlerts() {
		if a.LAN == 0 && detects(a.Alert) {
			res.detected = true
			res.latency = a.At - attackAt
			break
		}
	}
	if !res.detected {
		// Censored at the observation bound, like every latency experiment.
		res.latency = cfg.horizon - attackAt
	}
	return res
}

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
	var cfgs []campusTrialConfig
	for _, size := range sizes {
		for seed := int64(1); seed <= int64(trialsPerPoint); seed++ {
			cfgs = append(cfgs, campusTrialConfig{
				scheme:  registry.NameArpwatch,
				size:    size,
				seed:    seed + 11000, // distinct seed space from the flat-LAN trials
				workers: workers,
				horizon: horizon,
			})
		}
	}
	scope := Scope{Experiment: "figure9", Params: fmt.Sprintf("horizon=%v", horizon)}
	results := CachedMap(scope, cfgs, runCampusTrial)
	for si, size := range sizes {
		var latencies, rates []float64
		for _, res := range results[si*trialsPerPoint : (si+1)*trialsPerPoint] {
			latencies = append(latencies, res.latency.Seconds()*1000)
			rates = append(rates, float64(res.frames)/horizon.Seconds())
		}
		f.AddPoint("arpwatch_latency_ms", float64(size), stats.Quantile(latencies, 0.5))
		f.AddPoint("fabric_frames_per_sec", float64(size), stats.Quantile(rates, 0.5))
	}
	return f
}
