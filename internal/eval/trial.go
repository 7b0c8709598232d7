package eval

import (
	"fmt"
	"time"

	"repro/internal/ethaddr"
	"repro/internal/faults"
	"repro/internal/labnet"
	"repro/internal/netsim"
	"repro/internal/schemes"
	"repro/internal/schemes/registry"
	_ "repro/internal/schemes/registry/all" // link every scheme factory
	"repro/internal/stack"
	"repro/internal/telemetry"
)

// The gateway↔victim MITM detection trial every scheme comparison runs:
// Tables 3, 8, 9 and 10 and Figures 1, 4, 8, 9 and 10 differ only in the
// trialConfig they pass and in how they aggregate the trialResults.

// stopPolicy says when a trial's run ends before its horizon.
type stopPolicy int

const (
	// stopNever runs every trial to the horizon.
	stopNever stopPolicy = iota
	// stopAtDecision ends the run at the alert that decides detected and
	// latency. Only for callers that use nothing else: alert, frame and
	// fault counts then cover the run up to that alert.
	stopAtDecision
	// stopAttributed traces the trial (flat LAN only), pauses at every
	// deciding alert to attribute the first detection to pipeline stages,
	// and resumes until the attribution succeeds or the horizon is reached.
	stopAttributed
)

// noChurn skips the churn step, and the shuffle it draws, altogether.
const noChurn = -1

// trialConfig parameterizes one trial.
type trialConfig struct {
	scheme string         // a single detection scheme, with its detectionParams overrides
	stack  registry.Stack // non-empty: deploy this stack instead
	seed   int64
	// campus assembles a routed campus sized by labnet.SizeCampus(hosts),
	// instead of a flat LAN of hosts regular stations.
	campus  bool
	hosts   int
	workers int // campus shard worker width
	// churns is the number of benign readdressings on a flat LAN. The
	// churn step shuffles the candidate hosts even for zero; noChurn skips
	// it.
	churns int
	// attackAt opens the 5 s window the MITM's start is drawn from. Zero
	// means 10 s: on the faulted campus that lands the attack inside the
	// impairment window, just before the backbone partition. Past the
	// horizon, the trial is churn only: the draw is made and discarded,
	// and the attack never starts.
	attackAt time.Duration
	horizon  time.Duration
	// intensity arms a fault plan when positive: faultPlanForIntensity on
	// a flat LAN, figure10FaultPlan on a campus.
	intensity float64
	stop      stopPolicy
}

// trialResult is one trial's outcome. Each caller applies its own
// false-positive and censoring rule to it.
type trialResult struct {
	detected bool
	latency  time.Duration // deciding alert − attackAt; 0 when not detected
	attackAt time.Duration // the drawn MITM start
	alerts   int           // alerts every site's sink received
	// strayAlerts counts the alerts that do not detect the attack;
	// churnAlerts those of them naming a benignly readdressed IP.
	strayAlerts int
	churnAlerts int
	suppressed  int    // alerts the stack correlators collapsed
	churns      int    // churn events scheduled
	hosts       int    // campus population
	frames      uint64 // frames the campus fabric carried
	faults      uint64 // fault events the plan demonstrably injected
	// stages and total are the attributed detection's per-stage and
	// end-to-end latency (stopAttributed); stages is nil when nothing
	// attributed.
	stages map[string]time.Duration
	total  time.Duration
}

// latencyOr returns the detection latency, or bound when the trial never
// detected: the censoring a latency plot applies at its observation bound.
func (r trialResult) latencyOr(bound time.Duration) time.Duration {
	if r.detected {
		return r.latency
	}
	return bound
}

// runTrial runs one seeded trial. It deploys the scheme or stack on every
// site, warms a flat LAN and adds its benign churn, launches the periodic
// MITM from site 0's attacker against its victim and gateway (the router on
// a campus, host 0 on a flat LAN), arms the fault plan, runs under the stop
// policy and scans the merged alerts once. An alert detects when it is on
// LAN 0, names the gateway or the victim, and comes at or after attackAt.
//
// The draws from site 0's scheduler RNG come in this order. On a flat LAN:
// the attack phase, warm-up's link jitter, then the churn shuffle and
// instants; a traced trial draws its phase after warm-up instead. On a
// campus: the attack phase alone. Deployment draws nothing
// (TestDeployDrawsNothingWarmUpDraws), so it may come first everywhere.
func runTrial(cfg trialConfig) trialResult {
	stacked := len(cfg.stack.Schemes) > 0
	var hostOpts []stack.Option
	if stacked {
		var err error
		if hostOpts, err = registry.StackHostOptions(cfg.stack); err != nil {
			panic(fmt.Sprintf("eval: stack host options: %v", err)) // a bug, not a result
		}
	}
	traced := !cfg.campus && cfg.stop == stopAttributed
	var (
		top    labnet.Topology
		campus *labnet.Campus
		reg    *telemetry.Registry
	)
	if cfg.campus {
		lans, perLAN := labnet.SizeCampus(cfg.hosts)
		fanout := perLAN / 256
		if fanout < 4 {
			fanout = 4
		}
		campus = labnet.NewCampus(labnet.CampusConfig{
			Seed:        cfg.seed,
			LANs:        lans,
			HostsPerLAN: perLAN,
			Workers:     cfg.workers,
			HostOptions: hostOpts,
			// Background load proportional to the population, so throughput
			// measures the fabric actually working at that scale.
			BackgroundFanout: fanout,
			WithAttacker:     true,
		})
		top = campus
	} else {
		if traced {
			reg = telemetry.New()
		}
		l := newAttackLAN(labnet.Config{
			Seed:        cfg.seed,
			Hosts:       cfg.hosts,
			LinkJitter:  200 * time.Microsecond,
			HostOptions: hostOpts,
			Telemetry:   reg,
			Tracing:     traced,
			// Deep enough that the attack chain is still resident when the
			// run ends: the run pauses at each deciding alert, so the tail
			// of benign traffic cannot evict the spans under analysis.
			TracingLimit: 1 << 16,
		})
		sink := schemes.NewSink()
		if traced {
			// The sink files the alert spans the attribution walks back
			// from (into the recorder the LAN enabled), and a scheme's tap
			// only wraps itself in a "scheme" span when its environment
			// carries the recorder: without that hop every probe window
			// would be charged to the switch.
			sink.Instrument(reg)
		}
		top = &labnet.Single{LAN: l, Sink: sink, Registry: reg}
	}
	defer top.Recycle()

	sites := top.Sites()
	var stacks []*registry.StackInstance
	for _, site := range sites {
		var err error
		if stacked {
			var si *registry.StackInstance
			si, err = registry.DeployStack(site.Env(), cfg.stack)
			stacks = append(stacks, si)
		} else {
			_, err = registry.Deploy(site.Env(), cfg.scheme, detectionParams[cfg.scheme])
		}
		if err != nil {
			panic(fmt.Sprintf("eval: deploy on lan %d: %v", site.Index, err)) // a bug, not a result
		}
	}

	site := sites[0]
	l := site.LAN
	base := cfg.attackAt
	if base == 0 {
		base = 10 * time.Second
	}
	// Randomize the attack's phase relative to probe windows and refresh
	// timers so latency distributions have genuine spread.
	drawPhase := func() time.Duration {
		at := base + time.Duration(l.Sched.Rand().Int63n(int64(5*time.Second)))
		if cfg.attackAt > cfg.horizon {
			return cfg.attackAt
		}
		return at
	}
	var (
		res      trialResult
		attackAt time.Duration
		churned  = make(map[ethaddr.IPv4]bool)
	)
	// Warm-up draws, so the phase draw keeps its side of it: after warm-up
	// for traced trials (Table 10), before it for every other flat trial.
	if !traced {
		attackAt = drawPhase()
	}
	if !cfg.campus {
		warmAttackLAN(l)
		if traced {
			attackAt = drawPhase()
		}
		if cfg.churns != noChurn {
			res.churns = scheduleChurn(l, cfg.churns, cfg.horizon, churned)
		}
	}
	launchGatewayMITM(site, attackAt)

	gwIP, _ := site.Gateway()
	victimIP := l.Victim().IP()
	detects := func(a schemes.Alert) bool {
		return (a.IP == gwIP || a.IP == victimIP) && a.At >= attackAt
	}
	if cfg.stop != stopNever {
		// Site 0's sink reports in time order, so the first alert detects
		// accepts is the one the scan below picks.
		site.Sink.OnAlert(func(a schemes.Alert) {
			if detects(a) {
				top.Stop()
			}
		})
	}

	// Same ordering contract as the scenario engine: faults arm after
	// scheme deployment and attack arming.
	var ctl *faults.Controller
	if plan := cfg.faultPlan(attackAt); plan != nil {
		var err error
		if ctl, err = faults.Apply(plan, top.FaultEnv()); err != nil {
			panic(fmt.Sprintf("eval: fault plan rejected: %v", err)) // a bug, not a result
		}
	}

	for {
		paused := top.Run(cfg.horizon) != nil
		if !traced {
			break
		}
		res.stages, res.total, _ = AttributeFirstDetection(reg.Causal(), attackAt,
			gwIP.String(), victimIP.String())
		if res.stages != nil || !paused {
			break
		}
	}

	alerts := top.MergedAlerts()
	res.attackAt, res.alerts = attackAt, len(alerts)
	for _, a := range alerts {
		switch {
		case a.LAN == 0 && detects(a.Alert):
			if !res.detected {
				res.detected = true
				res.latency = a.At - attackAt
			}
		case churned[a.IP]:
			res.strayAlerts++
			res.churnAlerts++
		default:
			res.strayAlerts++
		}
	}
	for _, si := range stacks {
		res.suppressed += si.Correlation().Suppressed
	}
	if ctl != nil {
		res.faults = ctl.Stats().Total()
	}
	if campus != nil {
		res.hosts, res.frames = campus.TotalHosts(), campus.Frames()
	}
	return res
}

// faultPlan returns the plan the trial arms, nil for a clean network.
func (cfg trialConfig) faultPlan(attackAt time.Duration) *faults.Plan {
	switch {
	case cfg.intensity <= 0:
		return nil
	case cfg.campus:
		return figure10FaultPlan()
	default:
		return faultPlanForIntensity(cfg.intensity, attackAt)
	}
}

// detectionParams holds the per-scheme overrides the trials apply over the
// registry defaults: the comparison deploys every scheme cold — no
// operator-seeded bindings — except snort-like, whose configured signatures
// (gateway + victim, its defaults) are the precondition for any coverage.
var detectionParams = map[string]registry.P{
	registry.NameArpwatch:    {"seedGateway": false},
	registry.NameActiveProbe: {"seedGateway": false},
	registry.NameHybridGuard: {"seedGateway": false},
}

// newAttackLAN builds the standard testbed topology shared by the trials
// and Tables 5–7: cfg.Hosts regular stations (gateway first, conventional
// victim second), one attacker station, and the monitoring appliance on the
// mirror port.
func newAttackLAN(cfg labnet.Config) *labnet.LAN {
	cfg.WithAttacker, cfg.WithMonitor = true, true
	return labnet.New(cfg)
}

// warmAttackLAN installs the standard background workload: every station
// re-announces every 15s (standing in for normal ARP refresh traffic, and
// keeping passive schemes observing bindings), and all caches are mutually
// seeded so the attacked binding is long established before any attack.
// The seeding resolves over the LAN's links, so it draws their jitter from
// the scheduler's RNG.
func warmAttackLAN(l *labnet.LAN) {
	for _, h := range l.Hosts {
		h := h
		l.Sched.Every(15*time.Second, h.SendGratuitous)
	}
	l.SeedMutualCaches()
}

// scheduleChurn schedules up to n benign churn events: replacement stations
// take over existing addresses at seeded random instants, recorded in
// churned as they happen. Targets are distinct — two replacements claiming
// one IP would be a genuine conflict, not benign churn. It returns the
// number scheduled.
func scheduleChurn(l *labnet.LAN, n int, horizon time.Duration, churned map[ethaddr.IPv4]bool) int {
	churnable := append([]*stack.Host(nil), l.Hosts[2:]...) // never the gateway or the victim
	l.Sched.Rand().Shuffle(len(churnable), func(i, j int) {
		churnable[i], churnable[j] = churnable[j], churnable[i]
	})
	if n > len(churnable) {
		n = len(churnable)
	}
	for _, target := range churnable[:n] {
		// Churn starts after the cache-seeding transient: a replacement
		// arriving mid-resolution would race the departing host's own
		// replies, which is a conflict, not clean churn.
		at := 10*time.Second + time.Duration(l.Sched.Rand().Int63n(int64(horizon-20*time.Second)))
		l.Sched.At(at, func() {
			replaceStation(l, target)
			churned[target.IP()] = true
		})
	}
	return n
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

// launchGatewayMITM schedules the standard attack on a site at the given
// instant: periodic bidirectional gateway↔victim poisoning with a relay,
// the man-in-the-middle posture every detection experiment measures
// against.
func launchGatewayMITM(site *labnet.Site, at time.Duration) {
	l, victim := site.LAN, site.LAN.Victim()
	gwIP, gwMAC := site.Gateway()
	l.Sched.At(at, func() {
		l.Attacker.PoisonPeriodically(2*time.Second, victim.MAC(), victim.IP(), gwMAC, gwIP)
		l.Attacker.RelayBetween(victim.MAC(), victim.IP(), gwMAC, gwIP)
	})
}
