// Campus assembly: N access LANs behind a routed backbone, one LAN per
// shard of a sim.ShardedScheduler. Each LAN carries a handful of full
// stack.Host stations (the ones schemes, attackers, and probes interact
// with) plus a StationBank — a flyweight representing the LAN's bulk
// population in O(1) memory — so 10⁵–10⁶ hosts fit comfortably while the
// ARP traffic they generate, and their poisonability, stay real.
package labnet

import (
	"fmt"
	"math/rand"
	"time"

	"repro/internal/arppkt"
	"repro/internal/ethaddr"
	"repro/internal/faults"
	"repro/internal/frame"
	"repro/internal/ipv4pkt"
	"repro/internal/netsim"
	"repro/internal/schemes"
	"repro/internal/sim"
	"repro/internal/stack"
	"repro/internal/telemetry"
)

// CampusConfig describes the campus to assemble.
type CampusConfig struct {
	// Seed drives every stochastic choice; each LAN derives its own
	// decorrelated stream via sim.ShardSeed (default 1).
	Seed int64
	// LANs is the number of access LANs — and shards (default 4, max 250
	// from the 10.<lan>.0.0/16 addressing plan).
	LANs int
	// HostsPerLAN is the total station count per LAN, active + bank
	// (default 16).
	HostsPerLAN int
	// ActiveHostsPerLAN is how many of those are full stack.Host stations
	// (default 4, clamped to HostsPerLAN).
	ActiveHostsPerLAN int
	// TrunkLatency is the backbone one-way delay — the sharded engine's
	// lookahead bound (default 1ms).
	TrunkLatency time.Duration
	// Workers sets the shard worker pool width, clamped to [1, LANs].
	// Zero (the default) keeps the engine's single worker, so every shard
	// runs on one goroutine; output is identical at any width. Wider sets
	// keep each LAN on one worker from window to window, and their workers
	// spin briefly between windows only while the width is at most
	// GOMAXPROCS (see sim.ShardedScheduler.SetWorkers).
	Workers int
	// Policy and HostOptions mirror Config and apply to every LAN.
	Policy      stack.Policy
	HostOptions []stack.Option
	// WithAttacker attaches an attacker station to exactly one LAN — the
	// evaluation convention: one compromised machine inside one segment.
	WithAttacker bool
	// AttackerLAN selects which segment hosts that station (default 0).
	AttackerLAN int
	// LANHostOptions appends per-LAN construction-time host options after
	// the shared HostOptions — how construction-only schemes (secure-arp
	// variants) deploy onto a subset of segments.
	LANHostOptions map[int][]stack.Option
	// BackgroundPeriod is the bank traffic tick (default 1s, 0 keeps the
	// default; negative disables background traffic).
	BackgroundPeriod time.Duration
	// BackgroundFanout is how many bank stations speak per tick (default 4).
	BackgroundFanout int
	// Telemetry, when non-nil, instruments LAN 0 and the sharded engine.
	// Only one LAN is instrumented because telemetry registries are not
	// goroutine-safe and shards run concurrently.
	Telemetry *telemetry.Registry
}

// CampusLAN is one access LAN of the campus: a full labnet LAN plus its
// router interface, flyweight bank, and per-LAN alert sink.
type CampusLAN struct {
	*LAN
	Index  int
	Router *netsim.RouterIface
	Bank   *StationBank
	// Sink collects this LAN's alerts; per-LAN because sinks are not
	// goroutine-safe across shards. MergedAlerts correlates them.
	Sink *schemes.Sink
}

// CampusTrunk is one backbone edge: the unidirectional trunk carrying
// LAN From's router traffic toward LAN To. Fault plans address it as
// "trunk:<from>-<to>".
type CampusTrunk struct {
	From, To int
	Trunk    *netsim.Trunk
}

// Campus is the assembled multi-LAN topology.
type Campus struct {
	Sharded *sim.ShardedScheduler
	LANs    []*CampusLAN
	// Trunks lists the backbone edges in deterministic (From, To) order —
	// the trunk-partition fault targets.
	Trunks []CampusTrunk
	cfg    CampusConfig
}

// CampusSubnet returns LAN i's prefix under the 10.<lan>.0.0/16 plan.
func CampusSubnet(i int) ethaddr.Subnet {
	return ethaddr.Subnet{Base: ethaddr.IPv4{10, byte(i), 0, 0}, Bits: 16}
}

// SizeCampus picks a (LANs, HostsPerLAN) split for a total host budget:
// LANs grow with the population up to 64 backbone ports, hosts-per-LAN
// absorb the rest.
func SizeCampus(totalHosts int) (lans, hostsPerLAN int) {
	if totalHosts < 1 {
		totalHosts = 1
	}
	lans = (totalHosts + 1023) / 1024
	if lans < 2 {
		lans = 2
	}
	if lans > 64 {
		lans = 64
	}
	hostsPerLAN = (totalHosts + lans - 1) / lans
	if hostsPerLAN < 1 {
		hostsPerLAN = 1
	}
	return lans, hostsPerLAN
}

// campusCAMCapacity bounds each access LAN's CAM table: room for every
// speaking station (actives, router, attacker) and the bank MACs the
// background traffic rotates through.
const campusCAMCapacity = 4096

// NewCampus assembles the campus per cfg.
func NewCampus(cfg CampusConfig) *Campus {
	if cfg.Seed == 0 {
		cfg.Seed = 1
	}
	if cfg.LANs == 0 {
		cfg.LANs = 4
	}
	if cfg.LANs > 250 {
		panic(fmt.Sprintf("labnet: %d LANs exceeds the 10.<lan>.0.0/16 addressing plan", cfg.LANs))
	}
	if cfg.HostsPerLAN == 0 {
		cfg.HostsPerLAN = 16
	}
	if cfg.ActiveHostsPerLAN == 0 {
		cfg.ActiveHostsPerLAN = 4
	}
	if cfg.ActiveHostsPerLAN > cfg.HostsPerLAN {
		cfg.ActiveHostsPerLAN = cfg.HostsPerLAN
	}
	if cfg.TrunkLatency == 0 {
		cfg.TrunkLatency = time.Millisecond
	}
	if cfg.BackgroundPeriod == 0 {
		cfg.BackgroundPeriod = time.Second
	}
	if cfg.BackgroundFanout == 0 {
		cfg.BackgroundFanout = 4
	}
	if cfg.AttackerLAN < 0 || cfg.AttackerLAN >= cfg.LANs {
		panic(fmt.Sprintf("labnet: attacker LAN %d outside [0, %d)", cfg.AttackerLAN, cfg.LANs))
	}
	// Shard schedulers come from the trial pool (Recycle returns them), so
	// repeat campus builds — a -trials 10 regen builds ~110 across figure9
	// and figure10 — reuse the slab and queue capacity grown by the first.
	shards := make([]*sim.Scheduler, cfg.LANs)
	for i := range shards {
		shards[i] = acquireScheduler(sim.ShardSeed(cfg.Seed, i))
	}
	ss := sim.NewShardedOf(shards)
	if cfg.Workers > 0 {
		ss.SetWorkers(cfg.Workers)
	}
	if cfg.Telemetry != nil {
		ss.Instrument(cfg.Telemetry)
	}
	c := &Campus{Sharded: ss, cfg: cfg}

	for i := 0; i < cfg.LANs; i++ {
		sh := ss.Shard(i)
		lanSeed := sim.ShardSeed(cfg.Seed, i)
		var reg *telemetry.Registry
		if i == 0 {
			reg = cfg.Telemetry
		}
		hostOpts := cfg.HostOptions
		if extra := cfg.LANHostOptions[i]; len(extra) > 0 {
			hostOpts = append(append([]stack.Option(nil), cfg.HostOptions...), extra...)
		}
		lan := New(Config{
			Seed:          lanSeed,
			Sched:         sh,
			Hosts:         cfg.ActiveHostsPerLAN,
			RouterGateway: true,
			Policy:        cfg.Policy,
			Subnet:        CampusSubnet(i),
			WithAttacker:  cfg.WithAttacker && i == cfg.AttackerLAN,
			WithMonitor:   true,
			CAMCapacity:   campusCAMCapacity,
			HostOptions:   hostOpts,
			Telemetry:     reg,
		})
		rtrNIC := netsim.NewNIC(sh, lan.Gen.SeqMAC())
		lan.Switch.AddPort().Attach(rtrNIC)
		rtr := netsim.NewRouterIface(sh, fmt.Sprintf("rtr%d", i), rtrNIC,
			lan.Subnet.Host(254), lan.Subnet)
		cl := &CampusLAN{LAN: lan, Index: i, Router: rtr, Sink: schemes.NewSink()}
		bulk := cfg.HostsPerLAN - cfg.ActiveHostsPerLAN
		if bulk > 0 {
			cl.Bank = newStationBank(cl, bulk, rtr.MAC())
		}
		c.LANs = append(c.LANs, cl)
	}

	// Full trunk mesh: every interface routes every remote subnet directly.
	// The trunks live in one slice that Trunks and the routes point into.
	edges := cfg.LANs * (cfg.LANs - 1)
	trunks := make([]netsim.Trunk, 0, edges)
	c.Trunks = make([]CampusTrunk, 0, edges)
	for i := 0; i < cfg.LANs; i++ {
		c.LANs[i].Router.ReserveRoutes(cfg.LANs - 1)
		for j := 0; j < cfg.LANs; j++ {
			if i == j {
				continue
			}
			trunks = append(trunks, netsim.NewTrunk(ss.Link(i, j, cfg.TrunkLatency), c.LANs[j].Router))
			trunk := &trunks[len(trunks)-1]
			c.LANs[i].Router.AddRoute(c.LANs[j].Subnet, trunk)
			c.Trunks = append(c.Trunks, CampusTrunk{From: i, To: j, Trunk: trunk})
		}
	}

	if cfg.BackgroundPeriod > 0 {
		for _, cl := range c.LANs {
			if cl.Bank != nil {
				cl.Bank.startBackground(c, cfg.BackgroundPeriod, cfg.BackgroundFanout)
			}
		}
	}
	return c
}

// TotalHosts returns the campus population (active + bank stations).
func (c *Campus) TotalHosts() int {
	n := 0
	for _, cl := range c.LANs {
		n += len(cl.Hosts)
		if cl.Bank != nil {
			n += cl.Bank.Size()
		}
	}
	return n
}

// Run drains the campus to the horizon across all shards.
func (c *Campus) Run(horizon time.Duration) error { return c.Sharded.RunUntil(horizon) }

// Stop ends the current Run at the next round barrier.
func (c *Campus) Stop() { c.Sharded.Stop() }

// Sites renders the campus as the deployment plane's ordered site list:
// one per LAN, each carrying its router, sink, and (site 0 only) the
// telemetry registry. The attacker's identity rides along to every remote
// segment so inline schemes can whitelist the genuine binding when its
// traffic crosses the backbone.
func (c *Campus) Sites() []*Site {
	out := make([]*Site, len(c.LANs))
	for i, cl := range c.LANs {
		s := &Site{Index: i, LAN: cl.LAN, Router: cl.Router, Sink: cl.Sink}
		if i == 0 {
			s.Telemetry = c.cfg.Telemetry
		}
		if c.cfg.WithAttacker {
			atk := c.LANs[c.cfg.AttackerLAN].Attacker
			s.attackerMAC = atk.MAC()
			s.attackerIP = atk.IP()
			s.remoteAttacker = true
		}
		out[i] = s
	}
	return out
}

// FaultEnv renders the campus for faults.Apply: one site view per LAN
// (each armed on its own shard) and one trunk view per backbone edge
// (armed on the sending LAN's shard, which owns the partition flag).
func (c *Campus) FaultEnv() faults.Env {
	env := faults.Env{
		Sched: c.LANs[0].Sched, Registry: c.cfg.Telemetry,
		Trunks: make([]faults.TrunkEnv, 0, len(c.Trunks)),
	}
	for _, s := range c.Sites() {
		env.Sites = append(env.Sites, s.faultView())
	}
	for _, t := range c.Trunks {
		env.Trunks = append(env.Trunks, faults.TrunkEnv{
			From: t.From, To: t.To, Sched: c.LANs[t.From].Sched, Trunk: t.Trunk,
		})
	}
	return env
}

// MergedAlerts correlates the per-LAN sinks into one deterministically
// ordered stream: by time, then LAN index, then per-sink arrival order.
func (c *Campus) MergedAlerts() []SiteAlert { return mergeAlerts(c.Sites()) }

// PoisonedCount returns how many campus stations — active hosts, bank
// stations, and router interfaces — currently bind ip to mac.
func (c *Campus) PoisonedCount(ip ethaddr.IPv4, mac ethaddr.MAC) int {
	n := 0
	for _, cl := range c.LANs {
		n += cl.boundTo(ip, mac)
		if cl.Bank != nil && ip == cl.Router.IP() {
			n += cl.Bank.PoisonedCount(mac)
		}
		if got, ok := cl.Router.Lookup(ip); ok && got == mac {
			n++
		}
	}
	return n
}

// Frames returns the total frames the campus fabric has carried (forwarded
// + flooded across every switch) — figure9's throughput numerator.
func (c *Campus) Frames() uint64 {
	var n uint64
	for _, cl := range c.LANs {
		st := cl.Switch.Stats()
		n += st.Forwarded + st.Flooded
	}
	return n
}

// Recycle parks every LAN's reusable storage — its router's tables
// included — on its shard scheduler and returns the schedulers to the
// trial pool. The campus is dead afterwards.
func (c *Campus) Recycle() {
	for _, cl := range c.LANs {
		if cl.Sched != nil {
			cl.Router.Recycle()
			cl.release()
		}
	}
}

// StationBank is the flyweight bulk population of one LAN: size stations
// share a single promiscuous NIC, deriving per-station MACs and IPs from
// their index instead of holding per-station structs. State is O(active
// overrides), not O(size): one bank-wide gateway binding models the shared
// fate of naive caches (a broadcast gratuitous repoints every station at
// once — the paper's mass-poisoning scenario), and a lazy override map
// carries the stations an attacker unicast-poisoned individually.
type StationBank struct {
	lan       *CampusLAN
	sched     *sim.Scheduler
	nic       *netsim.NIC
	size      int
	gwIP      ethaddr.IPv4
	gwMAC     ethaddr.MAC // every station's gateway binding, unless overridden
	trueGW    ethaddr.MAC
	rng       *rand.Rand
	stats     BankStats
	overrides map[int]ethaddr.MAC
	arps      *arppkt.Arena         // ARP replies and announcements
	dgrams    *netsim.DatagramArena // background datagrams
}

// BankStats counts the bank's traffic.
type BankStats struct {
	Sent        uint64 // frames the bank put on the wire
	Delivered   uint64 // UDP datagrams delivered to a bank station
	ARPAnswered uint64 // who-has requests the bank answered
	Repointed   uint64 // bank-wide gateway rebinds (broadcast claims)
}

// bankIPBase offsets bank station IPs past the active hosts, the router,
// the attacker (.66), and the monitor (.250): station i lives at
// subnet.Host(bankIPBase+i), so a /16 holds ~64k of them.
const bankIPBase = 1024

func newStationBank(cl *CampusLAN, size int, gwMAC ethaddr.MAC) *StationBank {
	sh := cl.Sched
	b := &StationBank{
		lan:       cl,
		sched:     sh,
		nic:       netsim.NewNIC(sh, bankMAC(cl.Index, 0xFFFFFF)), // NIC's own MAC: reserved index
		size:      size,
		gwIP:      cl.Subnet.Host(254),
		gwMAC:     gwMAC,
		trueGW:    gwMAC,
		rng:       sh.DeriveRand(fmt.Sprintf("bank%d", cl.Index)),
		overrides: make(map[int]ethaddr.MAC),
		arps:      arppkt.ArenaOf(sh),
		dgrams:    netsim.DatagramArenaOf(sh),
	}
	cl.Switch.AddPort().Attach(b.nic)
	b.nic.SetPromiscuous(true)
	b.nic.SetHandler(b.handleFrame)
	return b
}

// bankMAC derives station i's locally administered MAC from (lan, index).
func bankMAC(lan, i int) ethaddr.MAC {
	return ethaddr.MAC{0x02, 0xB4, byte(lan), byte(i >> 16), byte(i >> 8), byte(i)}
}

// Size returns the station population.
func (b *StationBank) Size() int { return b.size }

// Stats returns a copy of the traffic counters.
func (b *StationBank) Stats() BankStats { return b.stats }

// MAC returns station i's hardware address.
func (b *StationBank) MAC(i int) ethaddr.MAC { return bankMAC(b.lan.Index, i) }

// IP returns station i's address.
func (b *StationBank) IP(i int) ethaddr.IPv4 { return b.lan.Subnet.Host(bankIPBase + i) }

// stationFor maps a bank IP back to its station index.
func (b *StationBank) stationFor(ip ethaddr.IPv4) (int, bool) {
	if !b.lan.Subnet.Contains(ip) {
		return 0, false
	}
	base := b.lan.Subnet.Host(bankIPBase)
	idx := int(ip[2]-base[2])<<8 + int(ip[3]) - int(base[3])
	if idx < 0 || idx >= b.size {
		return 0, false
	}
	return idx, true
}

// stationForMAC maps a bank MAC back to its station index.
func (b *StationBank) stationForMAC(mac ethaddr.MAC) (int, bool) {
	if mac[0] != 0x02 || mac[1] != 0xB4 || int(mac[2]) != b.lan.Index {
		return 0, false
	}
	idx := int(mac[3])<<16 | int(mac[4])<<8 | int(mac[5])
	if idx >= b.size {
		return 0, false
	}
	return idx, true
}

// GatewayMAC returns station i's effective gateway binding.
func (b *StationBank) GatewayMAC(i int) ethaddr.MAC {
	if m, ok := b.overrides[i]; ok {
		return m
	}
	return b.gwMAC
}

// PoisonedCount returns how many stations currently bind the gateway to mac.
func (b *StationBank) PoisonedCount(mac ethaddr.MAC) int {
	n := 0
	for _, m := range b.overrides {
		if m == mac {
			n++
		}
	}
	if b.gwMAC == mac {
		n += b.size - len(b.overrides)
	}
	return n
}

// handleFrame is the bank's shared receive path.
func (b *StationBank) handleFrame(f *frame.Frame) {
	switch f.Type {
	case frame.TypeARP:
		b.handleARP(f)
	case frame.TypeIPv4:
		if _, ok := b.stationForMAC(f.Dst); !ok && !f.Dst.IsBroadcast() {
			return
		}
		var pkt ipv4pkt.Packet
		if ipv4pkt.DecodeInto(&pkt, f.Payload) != nil || pkt.Proto != ipv4pkt.ProtoUDP {
			return
		}
		if _, ok := b.stationFor(pkt.Dst); ok {
			b.stats.Delivered++
		}
	}
}

// handleARP mimics a naive cache for the gateway binding and answers
// who-has for the bank's range.
func (b *StationBank) handleARP(f *frame.Frame) {
	p, err := arppkt.DecodeFrame(f)
	if err != nil {
		return
	}
	// Claims — replies and gratuitous announcements, not plain who-has
	// requests (whose sender happens to be the router resolving a station).
	// Broadcast claims rebind the whole bank (shared-fate naive caches);
	// unicast claims poison only the targeted station. Like a host cache,
	// the bank never binds a broadcast, multicast or zero MAC.
	if p.Op == arppkt.OpReply || p.IsGratuitous() {
		if sip, smac := p.Binding(); sip == b.gwIP && smac.IsUnicast() {
			if f.Dst.IsBroadcast() {
				if smac != b.gwMAC {
					b.gwMAC = smac
					clear(b.overrides)
					b.stats.Repointed++
				}
			} else if idx, ok := b.stationForMAC(f.Dst); ok {
				b.overrides[idx] = smac
			}
		}
	}
	if p.Op != arppkt.OpRequest || p.IsGratuitous() {
		return
	}
	if idx, ok := b.stationFor(p.TargetIP); ok {
		b.stats.ARPAnswered++
		reply := arppkt.NewReply(b.MAC(idx), p.TargetIP, p.SenderMAC, p.SenderIP)
		b.send(b.arps.NewFrame(reply, b.MAC(idx), p.SenderMAC))
	}
}

func (b *StationBank) send(f *frame.Frame) {
	b.stats.Sent++
	b.nic.Send(f)
}

// startBackground runs the bank's traffic generator: every period, fanout
// sampled stations send a UDP datagram toward the gateway binding — the
// flows a gateway MITM intercepts — plus one cross-LAN flow to a remote
// bank and one gratuitous self-announcement keeping the fabric's CAM and
// ARP state warm.
func (b *StationBank) startBackground(c *Campus, period time.Duration, fanout int) {
	remote := c.LANs[(b.lan.Index+1)%len(c.LANs)]
	b.sched.Every(period, func() {
		for k := 0; k < fanout; k++ {
			i := b.rng.Intn(b.size)
			b.sendUDP(i, b.gwIP, b.GatewayMAC(i))
		}
		if remote != b.lan && remote.Bank != nil {
			i := b.rng.Intn(b.size)
			dst := remote.Bank.IP(b.rng.Intn(remote.Bank.Size()))
			b.sendUDP(i, dst, b.GatewayMAC(i))
		}
		i := b.rng.Intn(b.size)
		g := arppkt.NewGratuitousReply(b.MAC(i), b.IP(i))
		b.send(b.arps.NewFrame(g, b.MAC(i), ethaddr.BroadcastMAC))
	})
}

// sendUDP emits one background datagram from station i via the MAC it
// believes is the gateway (or directly, for on-LAN destinations the bank
// treats the same way — the interception measurement only cares about the
// frame's next hop).
func (b *StationBank) sendUDP(i int, dst ethaddr.IPv4, via ethaddr.MAC) {
	f := b.dgrams.Frame(via, b.MAC(i))
	u := ipv4pkt.UDP{SrcPort: 40000, DstPort: 40000, Payload: bankPayload[:]}
	p := ipv4pkt.Packet{TTL: 64, Proto: ipv4pkt.ProtoUDP, Src: b.IP(i), Dst: dst,
		Payload: u.AppendEncode(f.Payload[ipv4pkt.HeaderLen:ipv4pkt.HeaderLen])}
	// The UDP datagram already sits behind the header's room, so appending
	// the packet at the front of the frame's wire room writes the header
	// and copies the datagram onto itself.
	f.Payload = p.AppendEncode(f.Payload)
	b.send(f)
}

// bankPayload is the fixed background datagram body.
var bankPayload = [8]byte{'b', 'g', 't', 'r', 'a', 'f', 'f', 'c'}

// HostEquivalent reports the per-station cost the memory gate prices: the
// bank adds no per-station state beyond overrides actually in use.
func (b *StationBank) HostEquivalent() int { return b.size }
