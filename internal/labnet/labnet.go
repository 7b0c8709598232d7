// Package labnet assembles ready-made experimental LANs — a switch, a set
// of hosts, an attacker station, and a detector appliance on a mirror port —
// mirroring the physical workbench the detection literature evaluates on
// (attacker PC, victim PCs, home router, monitoring appliance). The
// evaluation harness, the examples, and the integration tests all build
// their scenarios through this package so topology details live in one
// place.
package labnet

import (
	"strconv"
	"sync"
	"time"

	"repro/internal/arppkt"
	"repro/internal/attack"
	"repro/internal/ethaddr"
	"repro/internal/faults"
	"repro/internal/netsim"
	"repro/internal/sim"
	"repro/internal/stack"
	"repro/internal/telemetry"
)

// Config describes the LAN to assemble.
type Config struct {
	// Seed drives every stochastic choice (default 1).
	Seed int64
	// Sched, when non-nil, builds the LAN on this scheduler instead of one
	// from the trial pool — how the campus assembler places each access LAN
	// on its own shard. Externally owned schedulers are never pooled:
	// Recycle leaves them untouched. Seed still drives MAC generation and
	// should match the scheduler's seed for reproducibility.
	Sched *sim.Scheduler
	// Hosts is the number of regular stations (default 4). Host 0 plays
	// the gateway in gateway-centric scenarios.
	Hosts int
	// RouterGateway drops the gateway-station convention: host 0 becomes a
	// plain "host0" at .1 and the subnet's .254 gateway address is left for
	// a netsim.RouterIface to claim. Campus LANs set this — their gateway
	// is the router fabric, not a peer station.
	RouterGateway bool
	// Policy is applied to every host's ARP cache (default naive).
	Policy stack.Policy
	// CacheTTL overrides the hosts' ARP entry lifetime (default 60s).
	CacheTTL time.Duration
	// Subnet is the LAN prefix (default 192.168.88.0/24, the workbench
	// router's network).
	Subnet ethaddr.Subnet
	// WithAttacker attaches an attacker station (default false; Default
	// sets it).
	WithAttacker bool
	// WithMonitor attaches a promiscuous appliance host on a port that
	// mirrors all traffic (default false; Default sets it).
	WithMonitor bool
	// CAMCapacity bounds the switch CAM table (default 1024).
	CAMCapacity int
	// LinkJitter adds a uniform random delay in [0, LinkJitter) per
	// transmission (default 0, fully deterministic timing).
	LinkJitter time.Duration
	// LinkLoss is the independent per-frame drop probability on every
	// attachment (default 0).
	LinkLoss float64
	// HostOptions is appended to every host's construction options.
	HostOptions []stack.Option
	// Telemetry, when non-nil, instruments the scheduler, the switch, and
	// every assembled host (including the monitor) against this registry.
	Telemetry *telemetry.Registry
	// Tracing enables causal span tracing (attack frame → cache overwrite →
	// alert trees). It requires Telemetry; the recorder is attached to the
	// scheduler before the fabric is assembled so every NIC, link, switch,
	// cache, and attacker picks it up at construction. Off by default: the
	// disabled path costs one nil check per hop and zero allocations.
	Tracing bool
	// TracingLimit bounds the recorder's span ring (causal.DefaultLimit
	// when zero) — the flight-recorder depth of "recent spans".
	TracingLimit int
}

// schedPool recycles schedulers across trials. Each trial builds a fresh
// LAN on a fresh-seeded scheduler; the event population and queue capacity
// a scheduler grows during one trial, and the storage its trial parked on
// it (see release), are exactly what the next trial needs, so
// Reset-and-reuse removes the dominant per-trial setup allocations.
//
// It is a bounded free list, not a sync.Pool: a garbage collection may
// empty a sync.Pool between two trials, and a campus-1e6 trial ran more
// than one, so shards regrew their arenas, transit lists, CAM and caches
// from scratch at random. schedPoolMax covers the 64 shards of a campus
// trial on each of the evaluation's two workers; a scheduler released into
// a full pool is left to the collector.
var schedPool struct {
	mu   sync.Mutex
	free []*sim.Scheduler
}

const schedPoolMax = 128

// acquireScheduler takes a recycled scheduler from the pool (reset for the
// seed) or constructs a new one.
func acquireScheduler(seed int64) *sim.Scheduler {
	schedPool.mu.Lock()
	var s *sim.Scheduler
	if n := len(schedPool.free); n > 0 {
		s = schedPool.free[n-1]
		schedPool.free[n-1] = nil
		schedPool.free = schedPool.free[:n-1]
	}
	schedPool.mu.Unlock()
	if s == nil {
		return sim.NewScheduler(seed)
	}
	s.Reset(seed)
	return s
}

// Recycle returns the LAN's scheduler to the trial pool. Call it (typically
// deferred) once the trial is finished with the LAN and every component
// built on it — afterwards the scheduler may restart at any moment under a
// different seed, and the LAN's hosts and switch must not be used.
func (l *LAN) Recycle() {
	if l.Sched == nil || l.external {
		return
	}
	l.release()
}

// release parks the LAN's reusable storage on its scheduler — the
// switch's CAM and every host's ARP cache, monitor included — and releases
// the scheduler.
func (l *LAN) release() {
	l.Switch.Recycle()
	for _, h := range l.Hosts {
		h.Recycle()
	}
	if l.Monitor != nil {
		l.Monitor.Recycle()
	}
	releaseScheduler(l.Sched)
	l.Sched = nil
}

// releaseScheduler resets a finished trial's scheduler and returns it to
// the pool. The trial's ARP frames and datagrams all came from the
// scheduler's arenas and nothing the trial returned can reference them
// (alerts, latencies and traces carry values, not frame pointers), so they
// are reclaimed wholesale and the next trial rewrites the same slabs.
// Resetting here, not only on reuse, drops every pending event's callback
// and task, so a pooled scheduler never keeps the finished topology
// reachable.
func releaseScheduler(s *sim.Scheduler) {
	if a, ok := s.Scratch(sim.ScratchFrames).(*arppkt.Arena); ok {
		a.Reset()
	}
	if a, ok := s.Scratch(sim.ScratchDatagrams).(*netsim.DatagramArena); ok {
		a.Reset()
	}
	s.Reset(0)
	schedPool.mu.Lock()
	if len(schedPool.free) < schedPoolMax {
		schedPool.free = append(schedPool.free, s)
	}
	schedPool.mu.Unlock()
}

// LAN is the assembled environment.
type LAN struct {
	Sched    *sim.Scheduler
	Switch   *netsim.Switch
	Subnet   ethaddr.Subnet
	Hosts    []*stack.Host
	Ports    []*netsim.Port // port of each host, same index
	Links    []*netsim.Link // link of each host, same index
	Attacker *attack.Attacker
	AtkPort  *netsim.Port
	AtkLink  *netsim.Link
	// Monitor is the appliance host on the mirror port (promiscuous). Its
	// traffic reaches the LAN normally, so active schemes can probe.
	Monitor     *stack.Host
	MonitorPort *netsim.Port
	MonitorLink *netsim.Link
	Gen         *ethaddr.Gen
	// external marks a caller-owned scheduler (Config.Sched); Recycle must
	// not pool it.
	external bool
}

// linkLatency is every attachment's one-way delay.
const linkLatency = 50 * time.Microsecond

// New assembles a LAN per cfg.
func New(cfg Config) *LAN {
	if cfg.Seed == 0 {
		cfg.Seed = 1
	}
	if cfg.Hosts == 0 {
		cfg.Hosts = 4
	}
	if cfg.Policy == (stack.Policy{}) {
		cfg.Policy = stack.PolicyNaive
	}
	if cfg.Subnet == (ethaddr.Subnet{}) {
		cfg.Subnet = ethaddr.MustParseSubnet("192.168.88.0/24")
	}
	if cfg.CAMCapacity == 0 {
		cfg.CAMCapacity = 1024
	}
	if cfg.CacheTTL == 0 {
		cfg.CacheTTL = 60 * time.Second
	}

	s := cfg.Sched
	if s == nil {
		s = acquireScheduler(cfg.Seed)
	}
	if cfg.Telemetry != nil {
		s.Instrument(cfg.Telemetry)
		if cfg.Tracing {
			// Attach the recorder before any fabric component exists:
			// NICs, links, the switch, caches, and the attacker all cache
			// causal.Of(scheduler) at construction time.
			s.SetTraceRecorder(cfg.Telemetry.EnableCausal(s, cfg.TracingLimit))
		}
	}
	sw := netsim.NewSwitch(s, netsim.WithCAMCapacity(cfg.CAMCapacity))
	l := &LAN{
		Sched:    s,
		Switch:   sw,
		Subnet:   cfg.Subnet,
		Gen:      ethaddr.NewGen(cfg.Seed),
		external: cfg.Sched != nil,
	}
	if cfg.Telemetry != nil {
		sw.Instrument(cfg.Telemetry)
	}

	opts := append([]stack.Option{
		stack.WithPolicy(cfg.Policy),
		stack.WithCacheTTL(cfg.CacheTTL),
		// Full-mesh seeding fills every cache with Hosts-1 peers (+ the
		// attacker and monitor); size the slot arrays once up front.
		stack.WithCacheCapacity(cfg.Hosts + 2),
	}, cfg.HostOptions...)

	link := []netsim.LinkOption{netsim.WithLatency(linkLatency)}
	if cfg.LinkJitter > 0 {
		link = append(link, netsim.WithJitter(cfg.LinkJitter))
	}
	if cfg.LinkLoss > 0 {
		link = append(link, netsim.WithLoss(cfg.LinkLoss))
	}

	for i := 0; i < cfg.Hosts; i++ {
		// Not fmt.Sprintf: its printer pool empties at a GC, so a trial's
		// allocation count would vary from run to run.
		var buf [16]byte
		name := string(strconv.AppendInt(append(buf[:0], "host"...), int64(i), 10))
		ip := cfg.Subnet.Host(i + 1)
		if i == 0 && !cfg.RouterGateway {
			name = "gateway"
			ip = cfg.Subnet.Host(254)
		}
		nic := netsim.NewNIC(s, l.Gen.SeqMAC())
		port := sw.AddPort()
		hostLink := port.Attach(nic, link...)
		h := stack.NewHost(s, name, nic, ip, opts...)
		if cfg.Telemetry != nil {
			h.Instrument(cfg.Telemetry)
		}
		l.Hosts = append(l.Hosts, h)
		l.Ports = append(l.Ports, port)
		l.Links = append(l.Links, hostLink)
	}

	if cfg.WithAttacker {
		nic := netsim.NewNIC(s, l.Gen.SeqMAC())
		l.AtkPort = sw.AddPort()
		l.AtkLink = l.AtkPort.Attach(nic, link...)
		l.Attacker = attack.New(s, nic, cfg.Subnet.Host(66))
	}

	if cfg.WithMonitor {
		nic := netsim.NewNIC(s, l.Gen.SeqMAC())
		l.MonitorPort = sw.AddPort()
		l.MonitorLink = l.MonitorPort.Attach(nic, link...)
		l.Monitor = stack.NewHost(s, "monitor", nic, cfg.Subnet.Host(250), opts...)
		if cfg.Telemetry != nil {
			l.Monitor.Instrument(cfg.Telemetry)
		}
		nic.SetPromiscuous(true)
		sw.MirrorAllTo(l.MonitorPort)
	}
	return l
}

// Default assembles the standard four-host attack workbench.
func Default() *LAN { return New(Config{WithAttacker: true, WithMonitor: true}) }

// Gateway returns host 0, the station playing the router.
func (l *LAN) Gateway() *stack.Host { return l.Hosts[0] }

// Victim returns host 1, the conventional poisoning target.
func (l *LAN) Victim() *stack.Host { return l.Hosts[1] }

// Run drains the simulation until horizon.
func (l *LAN) Run(horizon time.Duration) error { return l.Sched.RunUntil(horizon) }

// SeedMutualCaches performs a full resolution mesh so every host knows
// every other before an experiment begins (many detection schemes need a
// pre-attack truth to compare against).
func (l *LAN) SeedMutualCaches() {
	for _, h := range l.Hosts {
		for _, peer := range l.Hosts {
			if h != peer {
				h.Resolve(peer.IP(), nil)
			}
		}
	}
}

// FaultEnv assembles the fault-injection environment for this LAN as the
// one-site topology "lan 0": link target i is host i's attachment (0 =
// gateway), with the monitor's link appended last when present, so faults
// degrade both the stations and the detector's own vantage point. The
// attacker's link is deliberately excluded — the attack is the
// experiments' ground truth, and degrading it would conflate "scheme got
// worse" with "attack got weaker". Callers add Registry and DHCP servers
// themselves.
func (l *LAN) FaultEnv() faults.Env {
	links := make([]*netsim.Link, len(l.Links), len(l.Links)+1)
	copy(links, l.Links)
	if l.MonitorLink != nil {
		links = append(links, l.MonitorLink)
	}
	return faults.Env{
		Sched: l.Sched,
		Sites: []faults.SiteEnv{{Sched: l.Sched, Links: links, Switch: l.Switch, Hosts: l.Hosts}},
	}
}

// PoisonedCount returns how many hosts currently bind ip to the attacker's
// MAC — the evaluation's ground-truth measure of attack success.
func (l *LAN) PoisonedCount(ip ethaddr.IPv4) int {
	if l.Attacker == nil {
		return 0
	}
	return l.boundTo(ip, l.Attacker.MAC())
}

// boundTo returns how many hosts currently bind ip to mac.
func (l *LAN) boundTo(ip ethaddr.IPv4, mac ethaddr.MAC) int {
	n := 0
	for _, h := range l.Hosts {
		if got, ok := h.Cache().Lookup(ip); ok && got == mac {
			n++
		}
	}
	return n
}
