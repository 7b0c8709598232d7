package faults

import (
	"fmt"

	"repro/internal/dhcp"
	"repro/internal/netsim"
	"repro/internal/sim"
	"repro/internal/stack"
	"repro/internal/telemetry"
)

// Env is the set of simulation objects a plan may target, assembled by the
// caller (labnet.LAN.FaultEnv or labnet.Campus.FaultEnv for the standard
// workbenches). Only a scheduler and one site are mandatory; an event
// targeting an absent object is an Apply-time error, never a silent no-op.
//
// Every topology is a list of sites: a flat LAN is the single site "lan 0",
// so a plan names its link 3 "lan:0/link:3", and a routed campus is one
// site per LAN (each with its own shard scheduler) plus the trunks between
// them.
type Env struct {
	// Sched arms the topology-wide events (dhcp-outage).
	Sched *sim.Scheduler
	// DHCP servers all go dark together during a dhcp-outage window.
	DHCP []*dhcp.Server
	// Registry, when non-nil, receives per-fault-type injection counters
	// ("faults_injected_total") and a structured event per window edge.
	// Registries are not goroutine-safe, so on a sharded topology only
	// events landing on site 0's time domain touch it.
	Registry *telemetry.Registry

	// Sites exposes the topology segment by segment. Every event callback
	// for a site's objects is armed on that site's own scheduler, so
	// injection stays race-free and byte-identical at any shard-worker
	// width.
	Sites []SiteEnv
	// Trunks are the backbone edges, targets for trunk-partition.
	Trunks []TrunkEnv
}

// SiteEnv is one segment's targetable view.
type SiteEnv struct {
	// Sched is the shard that owns this segment's time domain.
	Sched *sim.Scheduler
	// Links are the fault-targetable attachments, in a caller-defined,
	// deterministic order: Links[i] is link target i.
	Links []*netsim.Link
	// Switch receives cam-flush events.
	Switch *netsim.Switch
	// Hosts receive host-churn events: Hosts[i] is host target i.
	Hosts []*stack.Host
	// Router is the segment's edge router, the router-flush target; nil on
	// flat topologies.
	Router *netsim.RouterIface
}

// TrunkEnv is one backbone edge. Partition state is owned by the sending
// LAN's shard (netsim.Trunk.SetDown), so callbacks are armed on Sched — the
// source site's scheduler.
type TrunkEnv struct {
	From, To int
	Sched    *sim.Scheduler
	Trunk    *netsim.Trunk
}

// Stats counts what a plan actually injected during a run.
type Stats struct {
	BurstDropped    uint64 `json:"burstDropped"`    // frames eaten by Gilbert-Elliott loss
	Duplicated      uint64 `json:"duplicated"`      // extra frame copies delivered
	Reordered       uint64 `json:"reordered"`       // frames delayed out of order
	LinkFlaps       uint64 `json:"linkFlaps"`       // flap windows opened
	FlapDropped     uint64 `json:"flapDropped"`     // frames offered to a downed link
	HostChurns      uint64 `json:"hostChurns"`      // host power-cycle windows opened
	CAMFlushes      uint64 `json:"camFlushes"`      // switch station tables cleared
	DHCPOutages     uint64 `json:"dhcpOutages"`     // DHCP outage windows opened
	DHCPDropped     uint64 `json:"dhcpDropped"`     // client messages servers ignored while down
	TrunkPartitions uint64 `json:"trunkPartitions"` // backbone partition windows opened
	TrunkDropped    uint64 `json:"trunkDropped"`    // frames offered to a partitioned trunk
	RouterFlushes   uint64 `json:"routerFlushes"`   // edge-router ARP tables cleared
}

// Total returns the number of injected fault effects of every kind.
func (s Stats) Total() uint64 {
	return s.BurstDropped + s.Duplicated + s.Reordered + s.LinkFlaps +
		s.FlapDropped + s.HostChurns + s.CAMFlushes + s.DHCPOutages + s.DHCPDropped +
		s.TrunkPartitions + s.TrunkDropped + s.RouterFlushes
}

// add accumulates another site's counters into s.
func (s *Stats) add(o Stats) {
	s.BurstDropped += o.BurstDropped
	s.Duplicated += o.Duplicated
	s.Reordered += o.Reordered
	s.LinkFlaps += o.LinkFlaps
	s.FlapDropped += o.FlapDropped
	s.HostChurns += o.HostChurns
	s.CAMFlushes += o.CAMFlushes
	s.DHCPOutages += o.DHCPOutages
	s.DHCPDropped += o.DHCPDropped
	s.TrunkPartitions += o.TrunkPartitions
	s.TrunkDropped += o.TrunkDropped
	s.RouterFlushes += o.RouterFlushes
}

// siteLink addresses one link inside one site.
type siteLink struct{ site, link int }

// siteHost addresses one station inside one site.
type siteHost struct{ site, host int }

// Controller owns an armed plan's runtime state: the per-link impairment
// chains and the injection counters. Counters are kept per site — each is
// touched only from its own site's time domain — so a sharded campus run
// injects race-free; Stats merges them and must be called only while the
// topology is quiescent (before Run or after it returns).
type Controller struct {
	env    Env
	sites  []SiteEnv
	chains map[siteLink]*chain
	stats  []Stats

	events  *telemetry.EventLog
	mByType map[string]*telemetry.Counter
}

// Stats returns a snapshot of everything the plan injected so far,
// including the frames its flapped links, partitioned trunks, and downed
// DHCP servers swallowed.
func (c *Controller) Stats() Stats {
	var out Stats
	for i := range c.stats {
		out.add(c.stats[i])
	}
	for _, s := range c.sites {
		for _, l := range s.Links {
			out.FlapDropped += l.Stats().DownDropped
		}
	}
	for _, t := range c.env.Trunks {
		out.TrunkDropped += t.Trunk.Stats().PartitionDropped
	}
	for _, sv := range c.env.DHCP {
		out.DHCPDropped += sv.Stats().DroppedWhileDown
	}
	return out
}

// counter returns (and lazily registers) the injection counter for one
// fault type. Nil when the environment carries no registry — the *Counter
// methods are nil-safe no-ops.
func (c *Controller) counter(faultType string) *telemetry.Counter {
	if c.env.Registry == nil {
		return nil
	}
	if m, ok := c.mByType[faultType]; ok {
		return m
	}
	m := c.env.Registry.Counter("faults_injected_total", telemetry.L("type", faultType))
	c.mByType[faultType] = m
	return m
}

// count bumps the injection counter for one fault type, but only from site
// 0's time domain: telemetry registries are not goroutine-safe, and on a
// sharded campus only LAN 0 is instrumented.
func (c *Controller) count(site int, faultType string) {
	if site != 0 {
		return
	}
	c.counter(faultType).Inc()
}

// warnf and infof log a structured fault event, gated to site 0's time
// domain for the same reason as count.
func (c *Controller) warnf(site int, format string, args ...any) {
	if site != 0 {
		return
	}
	c.events.Warnf("faults", format, args...)
}

func (c *Controller) infof(site int, format string, args ...any) {
	if site != 0 {
		return
	}
	c.events.Infof("faults", format, args...)
}

// chainFor returns the impairment chain for one site's link, creating it on
// first use. The chain attaches to the link only while it has active
// injectors.
func (c *Controller) chainFor(t siteLink) *chain {
	if ch, ok := c.chains[t]; ok {
		return ch
	}
	ch := &chain{link: c.sites[t.site].Links[t.link]}
	c.chains[t] = ch
	return ch
}

// Apply validates the plan against env and arms every event on the
// owning site's scheduler. It returns the controller that tracks what the
// plan injects. Apply itself draws no randomness and schedules only
// activation callbacks, so an empty plan leaves the run untouched.
func Apply(p *Plan, env Env) (*Controller, error) {
	if env.Sched == nil {
		return nil, fmt.Errorf("faults: environment has no scheduler")
	}
	if len(env.Sites) == 0 {
		return nil, fmt.Errorf("faults: environment has no sites")
	}
	for i, s := range env.Sites {
		if s.Sched == nil {
			return nil, fmt.Errorf("faults: site %d has no scheduler", i)
		}
	}
	ctl := &Controller{
		env:     env,
		sites:   env.Sites,
		chains:  make(map[siteLink]*chain),
		stats:   make([]Stats, len(env.Sites)),
		mByType: make(map[string]*telemetry.Counter),
	}
	if env.Registry != nil {
		ctl.events = env.Registry.Events()
	}
	for i := range p.Events {
		e := &p.Events[i]
		if err := e.validate(i); err != nil {
			return nil, err
		}
		if err := ctl.arm(i, e); err != nil {
			return nil, err
		}
	}
	return ctl, nil
}

// lanTargets resolves an event's Lan selector to site indices. The filter
// keeps only sites carrying the flushed object; what is the human name for
// that object in error messages.
func (c *Controller) lanTargets(i int, e *Event, what string, has func(SiteEnv) bool) ([]int, error) {
	sel := lanAddr(wildcard)
	if e.Lan != "" {
		sel, _ = parseLanAddr(e.Lan) // validated
	}
	if sel != wildcard {
		if int(sel) >= len(c.sites) {
			return nil, fmt.Errorf("fault event %d (%s): lan %d out of range [0, %d)",
				i, e.Type, sel, len(c.sites))
		}
		if !has(c.sites[sel]) {
			return nil, fmt.Errorf("fault event %d (%s): lan %d has no %s", i, e.Type, sel, what)
		}
		return []int{int(sel)}, nil
	}
	var out []int
	for si, s := range c.sites {
		if has(s) {
			out = append(out, si)
		}
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("fault event %d (%s): environment has no %s", i, e.Type, what)
	}
	return out, nil
}

// linkTargets resolves an event's link selector against the environment.
func (c *Controller) linkTargets(i int, e *Event) ([]siteLink, error) {
	fail := func(format string, args ...any) error {
		return fmt.Errorf("fault event %d (%s): %s", i, e.Type, fmt.Sprintf(format, args...))
	}
	addr := linkAddr{lan: wildcard, link: wildcard}
	if e.LinkAt != "" {
		addr, _ = parseLinkAddr(e.LinkAt) // validated
	}
	siteIdx := make([]int, 0, len(c.sites))
	if addr.lan == wildcard {
		for si := range c.sites {
			siteIdx = append(siteIdx, si)
		}
	} else {
		if addr.lan >= len(c.sites) {
			return nil, fail("lan %d out of range [0, %d)", addr.lan, len(c.sites))
		}
		siteIdx = append(siteIdx, addr.lan)
	}
	var out []siteLink
	for _, si := range siteIdx {
		links := c.sites[si].Links
		if addr.link == wildcard {
			for j := range links {
				out = append(out, siteLink{site: si, link: j})
			}
			continue
		}
		if addr.link >= len(links) {
			return nil, fail("lan %d link %d out of range [0, %d)", si, addr.link, len(links))
		}
		out = append(out, siteLink{site: si, link: addr.link})
	}
	if len(out) == 0 {
		return nil, fail("environment has no links")
	}
	return out, nil
}

// hostTargets resolves an event's station selector (host-churn).
func (c *Controller) hostTargets(i int, e *Event) ([]siteHost, error) {
	addr, _ := parseHostAddr(e.HostAt) // validated; validate guarantees one selector
	siteIdx := make([]int, 0, len(c.sites))
	if addr.lan == wildcard {
		for si := range c.sites {
			siteIdx = append(siteIdx, si)
		}
	} else {
		if addr.lan >= len(c.sites) {
			return nil, fmt.Errorf("fault event %d (%s): lan %d out of range [0, %d)",
				i, e.Type, addr.lan, len(c.sites))
		}
		siteIdx = append(siteIdx, addr.lan)
	}
	var out []siteHost
	for _, si := range siteIdx {
		if addr.host >= len(c.sites[si].Hosts) {
			return nil, fmt.Errorf("fault event %d (%s): lan %d host %d out of range [0, %d)",
				i, e.Type, si, addr.host, len(c.sites[si].Hosts))
		}
		out = append(out, siteHost{site: si, host: addr.host})
	}
	return out, nil
}

// trunkTargets resolves a trunk-partition selector against the backbone.
func (c *Controller) trunkTargets(i int, e *Event) ([]int, error) {
	if len(c.env.Trunks) == 0 {
		return nil, fmt.Errorf("fault event %d (%s): environment has no trunks (trunk faults need a routed campus topology)",
			i, e.Type)
	}
	addr := trunkAddr{from: wildcard, to: wildcard}
	if e.Trunk != "" {
		addr, _ = parseTrunkAddr(e.Trunk) // validated
	}
	var out []int
	for ti, t := range c.env.Trunks {
		if addr.from != wildcard && t.From != addr.from {
			continue
		}
		if addr.to != wildcard && t.To != addr.to {
			continue
		}
		out = append(out, ti)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("fault event %d (%s): no trunk matches %q (edges run lan 0..%d pairwise)",
			i, e.Type, e.Trunk, len(c.sites)-1)
	}
	return out, nil
}

// arm schedules one validated event.
func (c *Controller) arm(i int, e *Event) error {
	switch e.Type {
	case TypeGilbertElliott, TypeDuplicate, TypeReorder:
		return c.armImpairment(i, e)
	case TypeLinkFlap:
		return c.armFlap(i, e)
	case TypeHostChurn:
		return c.armChurn(i, e)
	case TypeCAMFlush:
		return c.armCAMFlush(i, e)
	case TypeRouterFlush:
		return c.armRouterFlush(i, e)
	case TypeTrunkPartition:
		return c.armTrunkPartition(i, e)
	case TypeDHCPOutage:
		if len(c.env.DHCP) == 0 {
			return fmt.Errorf("fault event %d (dhcp-outage): environment has no DHCP server", i)
		}
		c.env.Sched.At(e.at(), func() {
			for _, sv := range c.env.DHCP {
				sv.SetDown(true)
			}
			c.stats[0].DHCPOutages++
			c.count(0, TypeDHCPOutage)
			c.warnf(0, "dhcp-outage: %d server(s) down", len(c.env.DHCP))
		})
		if end, ok := e.window(); ok {
			c.env.Sched.At(end, func() {
				for _, sv := range c.env.DHCP {
					sv.SetDown(false)
				}
				c.infof(0, "dhcp-outage: service restored")
			})
		}
		return nil
	}
	return fmt.Errorf("fault event %d: unknown type %q", i, e.Type) // unreachable after validate
}

// armImpairment builds one injector per target link — each with its own
// derived random stream, drawn from the owning site's scheduler so streams
// stay decorrelated across shards — and schedules its activation window.
func (c *Controller) armImpairment(i int, e *Event) error {
	targets, err := c.linkTargets(i, e)
	if err != nil {
		return err
	}
	stream := fmt.Sprintf("faults/event%d/%s", i, e.Type)
	for _, t := range targets {
		t := t
		sched := c.sites[t.site].Sched
		st := &c.stats[t.site]
		var inj injector
		switch e.Type {
		case TypeGilbertElliott:
			inj = &gilbertElliott{
				rng:      sched.DeriveRand(stream),
				pGoodBad: e.PGoodBad, pBadGood: e.PBadGood,
				lossGood: e.LossGood, lossBad: e.LossBad,
				onDrop: func() {
					st.BurstDropped++
					c.count(t.site, TypeGilbertElliott)
				},
			}
		case TypeDuplicate:
			inj = &duplicator{
				rng:      sched.DeriveRand(stream),
				prob:     e.Prob,
				maxDelay: e.maxDelay(),
				onInject: func() {
					st.Duplicated++
					c.count(t.site, TypeDuplicate)
				},
			}
		case TypeReorder:
			inj = &reorderer{
				rng:      sched.DeriveRand(stream),
				prob:     e.Prob,
				maxDelay: e.maxDelay(),
				onInject: func() {
					st.Reordered++
					c.count(t.site, TypeReorder)
				},
			}
		}
		sched.At(e.at(), func() {
			c.chainFor(t).add(inj)
			c.warnf(t.site, "%s: window opens on link %d", e.Type, t.link)
		})
		if end, ok := e.window(); ok {
			sched.At(end, func() {
				c.chainFor(t).remove(inj)
				c.infof(t.site, "%s: window closes on link %d", e.Type, t.link)
			})
		}
	}
	return nil
}

// armFlap schedules an administrative down/up cycle on the target links.
func (c *Controller) armFlap(i int, e *Event) error {
	targets, err := c.linkTargets(i, e)
	if err != nil {
		return err
	}
	end, _ := e.window() // validate guarantees a positive duration
	for _, t := range targets {
		t := t
		sched := c.sites[t.site].Sched
		link := c.sites[t.site].Links[t.link]
		st := &c.stats[t.site]
		sched.At(e.at(), func() {
			link.SetDown(true)
			st.LinkFlaps++
			c.count(t.site, TypeLinkFlap)
			c.warnf(t.site, "link-flap: link %d down", t.link)
		})
		sched.At(end, func() {
			link.SetDown(false)
			c.infof(t.site, "link-flap: link %d up", t.link)
		})
	}
	return nil
}

// armChurn schedules a host power-cycle: NIC down for the window, then NIC
// up plus a stack restart (cache wiped, binding re-announced).
func (c *Controller) armChurn(i int, e *Event) error {
	targets, err := c.hostTargets(i, e)
	if err != nil {
		return err
	}
	end, _ := e.window() // validate guarantees a positive duration
	for _, t := range targets {
		t := t
		sched := c.sites[t.site].Sched
		h := c.sites[t.site].Hosts[t.host]
		st := &c.stats[t.site]
		sched.At(e.at(), func() {
			h.NIC().SetUp(false)
			st.HostChurns++
			c.count(t.site, TypeHostChurn)
			c.warnf(t.site, "host-churn: %s down", h.Name())
		})
		sched.At(end, func() {
			h.NIC().SetUp(true)
			h.Restart()
			c.infof(t.site, "host-churn: %s back up, cache wiped", h.Name())
		})
	}
	return nil
}

// armCAMFlush clears the target segments' switch station tables.
func (c *Controller) armCAMFlush(i int, e *Event) error {
	targets, err := c.lanTargets(i, e, "switch", func(s SiteEnv) bool { return s.Switch != nil })
	if err != nil {
		return err
	}
	for _, si := range targets {
		si := si
		s := c.sites[si]
		st := &c.stats[si]
		s.Sched.At(e.at(), func() {
			s.Switch.FlushCAM()
			st.CAMFlushes++
			c.count(si, TypeCAMFlush)
			c.warnf(si, "cam-flush: switch station table cleared")
		})
	}
	return nil
}

// armRouterFlush clears the target segments' edge-router ARP tables.
func (c *Controller) armRouterFlush(i int, e *Event) error {
	targets, err := c.lanTargets(i, e, "router (router-flush needs a routed campus topology)",
		func(s SiteEnv) bool { return s.Router != nil })
	if err != nil {
		return err
	}
	for _, si := range targets {
		si := si
		s := c.sites[si]
		st := &c.stats[si]
		s.Sched.At(e.at(), func() {
			s.Router.FlushBindings()
			st.RouterFlushes++
			c.count(si, TypeRouterFlush)
			c.warnf(si, "router-flush: lan %d edge-router ARP table cleared", si)
		})
	}
	return nil
}

// armTrunkPartition takes the selected backbone edges down for the window.
// Each edge's partition flag is owned by the sending LAN's shard, so the
// callbacks land on the trunk's source scheduler.
func (c *Controller) armTrunkPartition(i int, e *Event) error {
	targets, err := c.trunkTargets(i, e)
	if err != nil {
		return err
	}
	end, _ := e.window() // validate guarantees a positive duration
	for _, ti := range targets {
		t := c.env.Trunks[ti]
		site := t.From
		if site < 0 || site >= len(c.stats) {
			site = 0
		}
		st := &c.stats[site]
		t.Sched.At(e.at(), func() {
			t.Trunk.SetDown(true)
			st.TrunkPartitions++
			c.count(site, TypeTrunkPartition)
			c.warnf(site, "trunk-partition: trunk %d-%d down", t.From, t.To)
		})
		t.Sched.At(end, func() {
			t.Trunk.SetDown(false)
			c.infof(site, "trunk-partition: trunk %d-%d restored", t.From, t.To)
		})
	}
	return nil
}
