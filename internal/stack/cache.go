// Package stack implements the simulated host network stack: an ARP cache
// with configurable acceptance policies (the knob the paper's host-based
// prevention schemes turn), a resolver with request retry and packet
// queueing, gratuitous announcements, and enough IP/ICMP/UDP plumbing to run
// workloads, probes, and DHCP on top.
package stack

import (
	"time"

	"repro/internal/arppkt"
	"repro/internal/denseidx"
	"repro/internal/ethaddr"
	"repro/internal/sim"
	"repro/internal/telemetry"
	"repro/internal/telemetry/causal"
)

// Policy controls which ARP messages may create, refresh, or replace cache
// entries. Each flag corresponds to one hardening measure discussed in the
// ARP cache poisoning literature; the presets below combine them into the
// OS-like profiles the attack-matrix experiment sweeps.
type Policy struct {
	// LearnFromRequest permits the sender binding of an ARP *request* to
	// create a new cache entry (RFC 826 says to merge it when the host is
	// the target; permissive stacks merge always).
	LearnFromRequest bool

	// AcceptUnsolicitedReply permits a reply with no outstanding request to
	// create or update an entry. This is the classic poisoning vector;
	// "kernel patch" schemes turn it off.
	AcceptUnsolicitedReply bool

	// OverwriteOnReply permits a (policy-accepted) reply to replace a live
	// entry with a different MAC. Anti-poisoning patches in the
	// "no-overwrite until expiry" family turn it off.
	OverwriteOnReply bool

	// OverwriteOnRequest permits a request's sender binding to replace a
	// live entry with a different MAC.
	OverwriteOnRequest bool

	// AcceptGratuitous permits gratuitous announcements (sender==target IP)
	// to create or update entries even when otherwise unsolicited.
	AcceptGratuitous bool
}

// Preset policies modelling the OS families the paper's analysis contrasts.
var (
	// PolicyNaive accepts everything: the fully permissive stack old
	// desktop systems shipped, vulnerable to every poisoning variant.
	PolicyNaive = Policy{
		LearnFromRequest:       true,
		AcceptUnsolicitedReply: true,
		OverwriteOnReply:       true,
		OverwriteOnRequest:     true,
		AcceptGratuitous:       true,
	}

	// PolicyReplyOnly learns only from replies but still accepts
	// unsolicited ones (a common mid-2000s Windows behaviour).
	PolicyReplyOnly = Policy{
		AcceptUnsolicitedReply: true,
		OverwriteOnReply:       true,
		AcceptGratuitous:       true,
	}

	// PolicySolicitedOnly accepts only replies matching an outstanding
	// request — the classic anti-poisoning kernel patch. Requests from
	// peers still answer resolution (the protocol requires that) but never
	// modify the cache.
	PolicySolicitedOnly = Policy{
		OverwriteOnReply: true,
	}

	// PolicyNoOverwrite learns liberally but refuses to replace a live
	// entry until it expires (the anticap/antidote family).
	PolicyNoOverwrite = Policy{
		LearnFromRequest:       true,
		AcceptUnsolicitedReply: true,
		AcceptGratuitous:       true,
	}
)

// EntryState describes the lifecycle of a cache entry.
type EntryState int

// Entry states.
const (
	StateReachable EntryState = iota + 1
	StateStale
)

// Entry is one IP→MAC association in the cache.
type Entry struct {
	MAC     ethaddr.MAC
	State   EntryState
	Static  bool
	Expires time.Duration // virtual instant after which the entry is a miss
}

// EventKind classifies a cache mutation attempt.
type EventKind int

// Cache event kinds. Rejected events are attempts the policy refused —
// host-resident detectors treat some of them as attack evidence.
const (
	EventCreated EventKind = iota + 1
	EventRefreshed
	EventChanged
	EventRejected
)

// String returns the event kind name.
func (k EventKind) String() string {
	switch k {
	case EventCreated:
		return "created"
	case EventRefreshed:
		return "refreshed"
	case EventChanged:
		return "changed"
	case EventRejected:
		return "rejected"
	default:
		return "unknown"
	}
}

// Event describes one attempted cache mutation, successful or not.
type Event struct {
	At        time.Duration
	Kind      EventKind
	IP        ethaddr.IPv4
	OldMAC    ethaddr.MAC // zero when no prior entry
	NewMAC    ethaddr.MAC
	Op        arppkt.Op
	Solicited bool // a matching request was outstanding
}

// cacheSlot is one IP→Entry binding in the cache's flat table.
type cacheSlot struct {
	ip ethaddr.IPv4
	e  Entry
}

// Cache is a policy-guarded ARP cache. Bindings live in a dense slice —
// appended on insert, swap-removed on Delete, compacted on Flush — that
// Len, Snapshot, and Flush iterate allocation-free, and a denseidx.Index
// beside it finds a binding's slot in one probe. Every broadcast ARP frame reaches
// every host's Update, so the lookup must not grow with the entry count: a
// 128-host mesh holds ~130 bindings per host. Slot order is an
// implementation artifact and never observable (Snapshot returns a map).
type Cache struct {
	sched   *sim.Scheduler
	policy  Policy
	ttl     time.Duration
	slots   []cacheSlot
	index   denseidx.Index // IP → position in slots
	onEvent func(Event)
	rec     *causal.Recorder // causal tracing; nil (no-op) when disabled

	// Telemetry handles; nil (no-op) unless Instrument is called.
	mHits       *telemetry.Counter
	mMisses     *telemetry.Counter
	mCreated    *telemetry.Counter
	mRefreshed  *telemetry.Counter
	mOverwrites *telemetry.Counter
	mRejects    *telemetry.Counter
}

// NewCache creates a cache. TTL is the entry lifetime (default on hosts is
// typically 60s–20min; experiments set it explicitly).
func NewCache(s *sim.Scheduler, policy Policy, ttl time.Duration) *Cache {
	return newCache(s, policy, ttl, 8)
}

// newCache creates a cache. When a recycled cache parked its storage on
// the scheduler, the new cache takes that slot array and index over, empty,
// whatever their size: a campus host learns dozens of bank announcements
// per trial, and starting from the last trial's storage skips regrowing
// both from eight slots. Otherwise both are pre-sized for capacity entries
// (a full-mesh LAN would grow them through repeated doublings; see
// WithCacheCapacity).
func newCache(s *sim.Scheduler, policy Policy, ttl time.Duration, capacity int) *Cache {
	c := &Cache{
		sched:  s,
		policy: policy,
		ttl:    ttl,
		rec:    causal.Of(s),
	}
	if p, ok := s.Scratch(sim.ScratchCaches).(*cachePark); ok && len(p.parked) > 0 {
		n := len(p.parked) - 1
		c.slots, c.index = p.parked[n].slots, p.parked[n].index
		p.parked[n] = cacheStorage{}
		p.parked = p.parked[:n]
		return c
	}
	capacity = max(capacity, 8)
	c.slots = make([]cacheSlot, 0, capacity)
	c.index.Init(capacity)
	return c
}

// cachePark is the stack's slot on a scheduler (sim.ScratchCaches): the
// emptied storage of the caches recycled there, for the next trial's
// caches. Slots and index cells hold only addresses and times, so a parked
// cache keeps nothing of its old topology reachable.
type cachePark struct {
	parked []cacheStorage
}

// cacheStorage is one parked cache's slot array (empty, its capacity kept)
// and index (cleared, its size kept).
type cacheStorage struct {
	slots []cacheSlot
	index denseidx.Index
}

// The park's bounds: a flat 128-host LAN recycles 129 caches, and a cache
// that grew past maxParkedSlots (a flooded or capacity-sweep trial) is left
// to the collector rather than pinned for every later trial.
const (
	maxParkedCaches = 256
	maxParkedSlots  = 4096
)

// recycle parks the cache's storage on its scheduler; the cache must not
// be used afterwards, and a second call does nothing.
func (c *Cache) recycle() {
	if c.slots == nil {
		return
	}
	p, ok := c.sched.Scratch(sim.ScratchCaches).(*cachePark)
	if !ok {
		p = &cachePark{}
		c.sched.SetScratch(sim.ScratchCaches, p)
	}
	if len(p.parked) < maxParkedCaches && cap(c.slots) <= maxParkedSlots {
		c.index.Clear()
		p.parked = append(p.parked, cacheStorage{slots: c.slots[:0], index: c.index})
	}
	c.slots, c.index = nil, denseidx.Index{}
}

// ipKey is an address's key in the cache and resolver indexes.
func ipKey(ip ethaddr.IPv4) uint64 { return uint64(ip.Uint32()) }

// slot returns the binding for ip, or nil when absent.
func (c *Cache) slot(ip ethaddr.IPv4) *cacheSlot {
	if i := c.index.Get(ipKey(ip)); i >= 0 {
		return &c.slots[i]
	}
	return nil
}

// insert appends a binding for an ip known to be absent.
func (c *Cache) insert(ip ethaddr.IPv4, e Entry) {
	c.index.Set(ipKey(ip), len(c.slots))
	c.slots = append(c.slots, cacheSlot{ip: ip, e: e})
}

// put stores e under ip, reusing the existing slot when present.
func (c *Cache) put(ip ethaddr.IPv4, e Entry) {
	if s := c.slot(ip); s != nil {
		s.e = e
		return
	}
	c.insert(ip, e)
}

// OnEvent installs an observer invoked for every mutation attempt. The
// middleware scheme and the evaluation harness both hook here.
func (c *Cache) OnEvent(fn func(Event)) { c.onEvent = fn }

// Instrument attaches the cache to a telemetry registry, counting lookup
// hits/misses and mutation outcomes (creates, refreshes, overwrites,
// policy rejects), labelled by owner so per-host attribution survives
// aggregation. Host.Instrument calls this with the host's name.
func (c *Cache) Instrument(reg *telemetry.Registry, labels ...telemetry.Label) {
	c.mHits = reg.Counter("stack_cache_hits_total", labels...)
	c.mMisses = reg.Counter("stack_cache_misses_total", labels...)
	c.mCreated = reg.Counter("stack_cache_created_total", labels...)
	c.mRefreshed = reg.Counter("stack_cache_refreshed_total", labels...)
	c.mOverwrites = reg.Counter("stack_cache_overwrites_total", labels...)
	c.mRejects = reg.Counter("stack_cache_policy_rejects_total", labels...)
}

// Policy returns the active policy.
func (c *Cache) Policy() Policy { return c.policy }

// Lookup returns the live binding for ip, treating expired entries as
// misses. Static entries never expire.
func (c *Cache) Lookup(ip ethaddr.IPv4) (ethaddr.MAC, bool) {
	s := c.slot(ip)
	if s == nil {
		c.mMisses.Inc()
		return ethaddr.MAC{}, false
	}
	if !s.e.Static && s.e.Expires <= c.sched.Now() {
		c.mMisses.Inc()
		return ethaddr.MAC{}, false
	}
	c.mHits.Inc()
	return s.e.MAC, true
}

// Get returns the raw entry (including expired ones) for inspection.
func (c *Cache) Get(ip ethaddr.IPv4) (Entry, bool) {
	if s := c.slot(ip); s != nil {
		return s.e, true
	}
	return Entry{}, false
}

// Len returns the number of live entries.
func (c *Cache) Len() int {
	now := c.sched.Now()
	n := 0
	for i := range c.slots {
		if e := &c.slots[i].e; e.Static || e.Expires > now {
			n++
		}
	}
	return n
}

// Snapshot returns a copy of the live entries, for detectors and reports.
func (c *Cache) Snapshot() map[ethaddr.IPv4]Entry {
	now := c.sched.Now()
	out := make(map[ethaddr.IPv4]Entry, len(c.slots))
	for i := range c.slots {
		s := &c.slots[i]
		if s.e.Static || s.e.Expires > now {
			out[s.ip] = s.e
		}
	}
	return out
}

// SetStatic installs an immutable binding; dynamic traffic can never alter
// it. This is the static-ARP prevention scheme's primitive.
func (c *Cache) SetStatic(ip ethaddr.IPv4, mac ethaddr.MAC) {
	c.put(ip, Entry{MAC: mac, State: StateReachable, Static: true})
}

// Delete removes a binding (administrative action).
func (c *Cache) Delete(ip ethaddr.IPv4) {
	i := c.index.Del(ipKey(ip))
	if i < 0 {
		return
	}
	last := len(c.slots) - 1
	if i != last {
		c.slots[i] = c.slots[last]
		c.index.Set(ipKey(c.slots[i].ip), i)
	}
	c.slots = c.slots[:last]
}

// Flush removes all dynamic bindings, keeping static ones.
func (c *Cache) Flush() {
	c.index.Clear()
	kept := c.slots[:0]
	for i := range c.slots {
		if c.slots[i].e.Static {
			c.index.Set(ipKey(c.slots[i].ip), len(kept))
			kept = append(kept, c.slots[i])
		}
	}
	c.slots = kept
}

// emit reports a mutation attempt to the observer and, when tracing is
// enabled, records it as an instantaneous causal span — the "victim cache
// overwrite" hop of an attack trace. With neither attached, the common
// case, it builds no Event: it is small enough to inline, so Update pays
// one branch per mutation.
func (c *Cache) emit(kind EventKind, ip ethaddr.IPv4, oldMAC, newMAC ethaddr.MAC, op arppkt.Op, solicited bool) {
	if c.rec != nil || c.onEvent != nil {
		c.report(kind, ip, oldMAC, newMAC, op, solicited)
	}
}

// report hands one mutation attempt to the recorder and the observer.
func (c *Cache) report(kind EventKind, ip ethaddr.IPv4, oldMAC, newMAC ethaddr.MAC, op arppkt.Op, solicited bool) {
	if c.rec != nil {
		c.rec.Begin("cache", kind.String()).
			Attr("ip", ip.String()).
			Attr("old", oldMAC.String()).
			Attr("new", newMAC.String()).
			End()
	}
	if c.onEvent == nil {
		return
	}
	c.onEvent(Event{
		At:        c.sched.Now(),
		Kind:      kind,
		IP:        ip,
		OldMAC:    oldMAC,
		NewMAC:    newMAC,
		Op:        op,
		Solicited: solicited,
	})
}

// Update applies the sender binding of an ARP packet under the policy.
// solicited reports whether the host had an outstanding request for the
// sender IP. It returns the resulting event kind.
func (c *Cache) Update(p *arppkt.Packet, solicited bool) EventKind {
	ip, mac := p.Binding()
	if ip.IsZero() || !mac.IsUnicast() { // probes and garbage never bind
		return EventRejected
	}

	prior := c.slot(ip)
	now := c.sched.Now()
	live := prior != nil && (prior.e.Static || prior.e.Expires > now)

	// Static entries are immutable, full stop.
	if live && prior.e.Static {
		if prior.e.MAC != mac {
			c.mRejects.Inc()
			c.emit(EventRejected, ip, prior.e.MAC, mac, p.Op, solicited)
		}
		return EventRejected
	}

	admitted := c.admit(p, solicited)
	if !admitted {
		var old ethaddr.MAC
		if live {
			old = prior.e.MAC
		}
		c.mRejects.Inc()
		c.emit(EventRejected, ip, old, mac, p.Op, solicited)
		return EventRejected
	}

	switch {
	case !live:
		e := Entry{MAC: mac, State: StateReachable, Expires: now + c.ttl}
		if prior != nil {
			prior.e = e // reclaim the expired slot
		} else {
			c.insert(ip, e)
		}
		c.mCreated.Inc()
		c.emit(EventCreated, ip, ethaddr.MAC{}, mac, p.Op, solicited)
		return EventCreated
	case prior.e.MAC == mac:
		prior.e.Expires = now + c.ttl
		prior.e.State = StateReachable
		c.mRefreshed.Inc()
		c.emit(EventRefreshed, ip, prior.e.MAC, mac, p.Op, solicited)
		return EventRefreshed
	default:
		if !c.mayOverwrite(p) {
			c.mRejects.Inc()
			c.emit(EventRejected, ip, prior.e.MAC, mac, p.Op, solicited)
			return EventRejected
		}
		old := prior.e.MAC
		prior.e = Entry{MAC: mac, State: StateReachable, Expires: now + c.ttl}
		c.mOverwrites.Inc()
		c.emit(EventChanged, ip, old, mac, p.Op, solicited)
		return EventChanged
	}
}

// usesSolicited reports whether Update reads its solicited argument for a
// packet of this op: admit consults it only for a reply, and an OnEvent
// observer sees it as Event.Solicited. A caller may pass false without
// looking it up when this is false.
func (c *Cache) usesSolicited(op arppkt.Op) bool {
	return op != arppkt.OpRequest || c.onEvent != nil
}

// admit decides whether the packet class may touch the cache at all.
func (c *Cache) admit(p *arppkt.Packet, solicited bool) bool {
	if p.IsGratuitous() {
		return c.policy.AcceptGratuitous
	}
	if p.Op == arppkt.OpRequest {
		return c.policy.LearnFromRequest
	}
	// Reply.
	if solicited {
		return true
	}
	return c.policy.AcceptUnsolicitedReply
}

// mayOverwrite decides whether the packet class may replace a live binding
// that points at a different MAC.
func (c *Cache) mayOverwrite(p *arppkt.Packet) bool {
	if p.Op == arppkt.OpRequest || (p.IsGratuitous() && p.Op != arppkt.OpReply) {
		return c.policy.OverwriteOnRequest
	}
	return c.policy.OverwriteOnReply
}
