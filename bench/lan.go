package main

import (
	"crypto/sha256"
	"fmt"
	"time"

	"repro/internal/ethaddr"
	"repro/internal/labnet"
	"repro/internal/schemes"
	"repro/internal/schemes/registry"
	"repro/internal/stack"
	"repro/internal/telemetry"
	"repro/internal/traffic"
)

// Shape of the lan-128 operation.
const (
	lanHosts    = 128
	lanStack    = "dai+arpwatch+port-security"
	lanAttackAt = 10 * time.Second
	lanHorizon  = 120 * time.Second
)

// lan128 runs one populated flat LAN per operation on the single-threaded
// scheduler: 128 hosts with full-mesh caches and request/response flows,
// the switch-inline plus mirror-port stack and an active prober, and a
// gateway MITM from 10s.
type lan128 struct {
	seeds    [10]int64
	stack    registry.Stack
	hostOpts []stack.Option
	digests  map[int64][32]byte
}

func newLAN128(seed int64, _ string) (workload, error) {
	st, err := registry.ParseStack(lanStack)
	if err != nil {
		return nil, err
	}
	opts, err := registry.StackHostOptions(st)
	if err != nil {
		return nil, err
	}
	return &lan128{seeds: opSeeds(seed), stack: st, hostOpts: opts, digests: map[int64][32]byte{}}, nil
}

func (l *lan128) run(i int, sp *spans) (opResult, error) {
	m := map[string]float64{}
	seed := l.seeds[i%len(l.seeds)]
	out, err := l.simulate(seed, nil, sp, m)
	if err != nil {
		return opResult{}, err
	}
	check := func() error {
		if !out.detected() {
			return fmt.Errorf("seed %d: the gateway MITM raised no alert", seed)
		}
		return checkDigest(l.digests, seed, out.digest())
	}
	return opResult{frames: m["netsim.forwarded"] + m["netsim.flooded"], counts: m, check: check}, nil
}

// countOp repeats operation i with telemetry attached, for the cache,
// retry, queue and probe counters only the instrumented stack exposes.
func (l *lan128) countOp(i int) (map[string]float64, error) {
	reg := telemetry.New()
	if _, err := l.simulate(l.seeds[i%len(l.seeds)], reg, nil, map[string]float64{}); err != nil {
		return nil, err
	}
	m := map[string]float64{}
	snapshotCounts(reg.Snapshot(), m)
	return map[string]float64{
		"stack.cache_hits":      m["stack.cache_hits"],
		"stack.cache_misses":    m["stack.cache_misses"],
		"stack.resolve_retries": m["stack.resolve_retries"],
		"sim.queue_highwater":   m["sim.queue_highwater"],
		"schemes.probes_sent":   m["schemes.probes_sent"],
	}, nil
}

// lanOutcome is what one LAN leaves for its output check: the alerts and
// the counters the result digest covers. Scanning and hashing them is the
// check's work, done outside the timed region.
type lanOutcome struct {
	alerts     []schemes.Alert
	gw, victim ethaddr.IPv4
	counters   []any
}

// detected reports whether an alert after the attack started named the
// gateway or the victim.
func (o *lanOutcome) detected() bool {
	for _, a := range o.alerts {
		if a.At >= lanAttackAt && (a.IP == o.gw || a.IP == o.victim) {
			return true
		}
	}
	return false
}

func (o *lanOutcome) digest() (d [32]byte) {
	h := sha256.New()
	for _, a := range o.alerts {
		fmt.Fprintln(h, a.String())
	}
	fmt.Fprintln(h, o.counters...)
	copy(d[:], h.Sum(nil))
	return d
}

// simulate builds, runs and summarizes one LAN; counts read from public
// Stats() go into m.
func (l *lan128) simulate(seed int64, reg *telemetry.Registry, sp *spans, m map[string]float64) (*lanOutcome, error) {
	var lan *labnet.LAN
	sp.do("labnet.new", func() error {
		lan = labnet.New(labnet.Config{
			Seed: seed, Hosts: lanHosts, WithAttacker: true, WithMonitor: true,
			HostOptions: l.hostOpts, Telemetry: reg,
		})
		return nil
	})
	defer lan.Recycle()
	lan.SeedMutualCaches()
	flows := traffic.Mesh(lan.Sched, lan.Hosts, time.Second, traffic.WithResponse())

	sink := schemes.NewSink()
	env := lan.Env(sink, reg)
	var si *registry.StackInstance
	err := sp.do("registry.deploy", func() (err error) {
		if si, err = registry.DeployStack(env, l.stack); err != nil {
			return err
		}
		_, err = registry.Deploy(env, registry.NameActiveProbe, nil)
		return err
	})
	if err != nil {
		return nil, err
	}

	gw, victim, atk := lan.Gateway(), lan.Victim(), lan.Attacker
	lan.Sched.At(lanAttackAt, func() {
		atk.PoisonPeriodically(2*time.Second, victim.MAC(), victim.IP(), gw.MAC(), gw.IP())
		atk.RelayBetween(victim.MAC(), victim.IP(), gw.MAC(), gw.IP())
	})
	if err := sp.do("sim.run", func() error { return lan.Run(lanHorizon) }); err != nil {
		return nil, err
	}

	sw := lan.Switch.Stats()
	events := lan.Sched.Executed()
	var resolutions uint64
	for _, h := range lan.Hosts {
		st := h.Stats()
		resolutions += st.ResolveOK + st.ResolveFail
	}
	corr := si.Correlation()
	alerts := sink.Alerts()
	probeAlerts := 0
	for _, a := range alerts {
		if a.Scheme == registry.NameActiveProbe {
			probeAlerts++
		}
	}
	m["netsim.forwarded"] = float64(sw.Forwarded)
	m["netsim.flooded"] = float64(sw.Flooded)
	m["netsim.filtered"] = float64(sw.Filtered)
	m["schemes.filter_drops"] = float64(sw.Filtered)
	m["sim.events"] = float64(events)
	m["stack.resolutions"] = float64(resolutions)
	m["labnet.hosts"] = float64(len(lan.Hosts) + 2) // plus attacker and monitor
	alertCounts(m, corr.Forwarded+corr.Suppressed+probeAlerts, corr.Suppressed)

	return &lanOutcome{
		alerts: alerts, gw: gw.IP(), victim: victim.IP(),
		counters: []any{sw.Forwarded, sw.Flooded, sw.Filtered, events, resolutions, corr,
			traffic.TotalStats(flows), lan.PoisonedCount(gw.IP()), atk.Stats()},
	}, nil
}

// checkDigest records the first result digest of a seed and requires every
// later operation with that seed to reproduce it.
func checkDigest(digests map[int64][32]byte, seed int64, d [32]byte) error {
	first, ok := digests[seed]
	if !ok {
		digests[seed] = d
		return nil
	}
	if d != first {
		return fmt.Errorf("seed %d: result digest %x differs from the first run's %x", seed, d[:6], first[:6])
	}
	return nil
}
