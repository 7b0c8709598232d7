package netsim

import (
	"strconv"
	"time"

	"repro/internal/denseidx"
	"repro/internal/ethaddr"
	"repro/internal/frame"
	"repro/internal/sim"
	"repro/internal/telemetry"
	"repro/internal/telemetry/causal"
)

// camKey scopes learned stations per VLAN: the same MAC may legitimately
// appear in two VLANs (a router-on-a-stick), and isolation requires that a
// station learned in one VLAN is invisible to forwarding in another. The
// VLAN ID above the 48-bit MAC makes one index key.
func camKey(vlan uint16, mac ethaddr.MAC) uint64 {
	return uint64(vlan)<<48 | mac.Uint64()
}

// camEntry is one learned (VLAN, MAC)→port association with an expiry
// instant.
type camEntry struct {
	key     uint64 // camKey(vlan, mac)
	port    int
	expires time.Duration
}

// camTable is a CAM's storage, parked on the scheduler between trials.
type camTable struct {
	entries []camEntry
	index   denseidx.Index
}

// SwitchStats are forwarding-plane counters for one switch.
type SwitchStats struct {
	Forwarded   uint64 // unicast frames sent to a single learned port (a send-only one discards them)
	Flooded     uint64 // frames replicated to all ports (broadcast or CAM miss)
	Filtered    uint64 // frames dropped by the inline filter
	Learned     uint64 // CAM insertions
	LearnMisses uint64 // insertions refused because the CAM was full
	// BytesByType counts ingress octets per protocol.
	BytesByType map[frame.EtherType]uint64
	// BytesOutByType counts egress octets per protocol, including every
	// flooded replica — the true load the fabric carries. Mirror copies
	// and frames a send-only port discards carry none.
	BytesOutByType map[frame.EtherType]uint64
}

// SwitchOption configures a Switch.
type SwitchOption func(*Switch)

// WithCAMCapacity bounds the CAM table (default 1024 entries, the capacity
// of small home routers such as the MikroTik hAP). When the table is full
// the switch stops learning, so frames to unlearned stations flood — the
// fail-open behaviour MAC-flooding attacks exploit.
func WithCAMCapacity(n int) SwitchOption {
	return func(sw *Switch) { sw.camCap = n }
}

// WithCAMEvictRandom makes a full CAM table evict a random victim entry to
// admit a new station, modelling the hash-bucket collisions of real CAM
// hardware. Without it a full table simply refuses to learn. Random
// eviction is what makes sustained MAC flooding displace legitimate
// entries and force fail-open flooding of their traffic.
func WithCAMEvictRandom() SwitchOption {
	return func(sw *Switch) { sw.evictRandom = true }
}

// Switch is a transparent learning bridge with a bounded CAM table, optional
// inline filtering, port mirroring, and taps.
type Switch struct {
	sched *sim.Scheduler
	ports []*Port
	// cam holds the learned entries densely — appended on insert,
	// swap-removed on delete — so eviction victims (expired reclaim,
	// random eviction) are chosen from one deterministic order in every
	// process; camIndex finds an entry's position in one probe.
	cam         []camEntry
	camIndex    denseidx.Index
	camCap      int
	camTTL      time.Duration // CAM aging time, 300 s (the common switch default)
	filter      FilterFunc
	taps        []TapFunc
	mirror      *Port // destination for mirrored traffic, nil when disabled
	evictRandom bool
	stats       SwitchStats // BytesByType/BytesOutByType live in bytesIn/bytesOut
	bytesIn     typeOctets
	bytesOut    typeOctets
	rec         *causal.Recorder // causal tracing; nil (no-op) when disabled
	cache       *transitCache    // scheduler-wide transit recycling store
	plans       []*floodPlan     // cached broadcast fan-out, one per flooded VLAN

	// Telemetry handles; nil (no-op) unless Instrument is called.
	reg            *telemetry.Registry
	mForwarded     *telemetry.Counter
	mFlooded       *telemetry.Counter
	mFiltered      *telemetry.Counter
	mCAMInserts    *telemetry.Counter
	mCAMEvictExp   *telemetry.Counter
	mCAMEvictRand  *telemetry.Counter
	mLearnMisses   *telemetry.Counter
	mFailOpenTrans *telemetry.Counter
	mPortBytes     []*telemetry.Counter // ingress octets, indexed by port id
	failOpen       bool                 // currently refusing to learn (CAM full)
}

// NewSwitch creates a switch with no ports; add them with AddPort.
func NewSwitch(s *sim.Scheduler, opts ...SwitchOption) *Switch {
	sw := &Switch{
		sched:  s,
		rec:    causal.Of(s),
		cache:  cacheOf(s),
		camCap: 1024,
		camTTL: 300 * time.Second,
	}
	for _, opt := range opts {
		opt(sw)
	}
	if n := len(sw.cache.cams); n > 0 {
		t := sw.cache.cams[n-1]
		sw.cache.cams[n-1] = camTable{}
		sw.cache.cams = sw.cache.cams[:n-1]
		sw.cam, sw.camIndex = t.entries, t.index
	} else {
		sw.camIndex.Init(0)
	}
	return sw
}

// Recycle parks the switch's CAM storage on its scheduler, where the next
// switch built on it picks the storage up instead of growing a table from
// scratch. labnet calls it when a trial's world is torn down; the switch
// must not be used afterwards, and a second call does nothing.
func (sw *Switch) Recycle() {
	c := sw.cache
	if c == nil {
		return
	}
	sw.camIndex.Clear()
	c.cams = append(c.cams, camTable{entries: sw.cam[:0], index: sw.camIndex})
	sw.cam, sw.camIndex, sw.cache = nil, denseidx.Index{}, nil
}

// Port is one switch (or hub) interface. A NIC attaches to exactly one port.
type Port struct {
	id   int
	vlan uint16
	// sendOnly: the attachment was made with SendOnly, so a switch
	// delivers nothing out of this port unless it is the mirror port.
	sendOnly bool
	ingress  func(*frame.Frame)
	nic      *NIC          // attached station; nil before Attach
	cache    *transitCache // the switch's; nil on a hub
}

// send transmits a frame out the port toward the attached NIC.
func (p *Port) send(f *frame.Frame) {
	n := p.nic
	n.link.transmit(f, n, nil)
}

// ID returns the port number, stable for the life of the device.
func (p *Port) ID() int { return p.id }

// VLAN returns the port's access VLAN.
func (p *Port) VLAN() uint16 { return p.vlan }

// SetVLAN moves the port to an access VLAN. All ports default to VLAN 1.
// Broadcasts, floods, and learned forwarding stay within a VLAN —
// segmentation bounds a poisoner's blast radius to its own segment.
func (p *Port) SetVLAN(vid uint16) {
	p.vlan = vid
	p.cache.bump()
}

// Attach wires a NIC to this port with the given link characteristics,
// replacing any previous attachment, whose SendOnly setting goes with it.
// It returns the attachment's Link so callers (labnet, fault plans) can
// flap it or install impairments later.
func (p *Port) Attach(n *NIC, opts ...LinkOption) *Link {
	params := defaultLink()
	for _, opt := range opts {
		opt(&params)
	}
	l := &Link{sched: n.sched, params: params, rec: causal.Of(n.sched), cache: cacheOf(n.sched)}
	if params.loss > 0 {
		// The loss stream is assigned in attach order, a construction-time
		// property, so traffic on one link never re-keys another's stream.
		l.lossRng = n.sched.DeriveRand("netsim/link-loss")
	}
	n.port = p
	n.link = l
	p.nic = n
	p.sendOnly = params.sendOnly
	l.cache.bump()
	return l
}

// AddPort creates a new port on the switch, in VLAN 1.
func (sw *Switch) AddPort() *Port {
	p := &Port{id: len(sw.ports), vlan: 1, cache: sw.cache}
	p.ingress = func(f *frame.Frame) { sw.ingress(p.id, f) }
	sw.ports = append(sw.ports, p)
	sw.plans = nil
	if sw.reg != nil {
		sw.mPortBytes = append(sw.mPortBytes,
			sw.reg.Counter("switch_port_bytes_total", telemetry.L("port", strconv.Itoa(p.id))))
	}
	return p
}

// Instrument attaches the forwarding plane to a telemetry registry: CAM
// churn (inserts, expiry reclaims, random evictions, fail-open
// transitions), frames forwarded vs flooded vs filtered, and per-port
// ingress byte counters. Safe to call before or after ports are added.
func (sw *Switch) Instrument(reg *telemetry.Registry) {
	sw.reg = reg
	sw.mForwarded = reg.Counter("switch_frames_forwarded_total")
	sw.mFlooded = reg.Counter("switch_frames_flooded_total")
	sw.mFiltered = reg.Counter("switch_frames_filtered_total")
	sw.mCAMInserts = reg.Counter("switch_cam_inserts_total")
	sw.mCAMEvictExp = reg.Counter("switch_cam_evictions_total", telemetry.L("reason", "expired"))
	sw.mCAMEvictRand = reg.Counter("switch_cam_evictions_total", telemetry.L("reason", "random"))
	sw.mLearnMisses = reg.Counter("switch_learn_misses_total")
	sw.mFailOpenTrans = reg.Counter("switch_failopen_transitions_total")
	sw.mPortBytes = sw.mPortBytes[:0]
	for _, p := range sw.ports {
		sw.mPortBytes = append(sw.mPortBytes,
			reg.Counter("switch_port_bytes_total", telemetry.L("port", strconv.Itoa(p.id))))
	}
}

// AddTap registers an observer for every frame entering the switch,
// regardless of filtering outcome. This models a passive inline tap.
func (sw *Switch) AddTap(fn TapFunc) { sw.taps = append(sw.taps, fn) }

// AddFilter appends an inline filter to the forwarding path. Filters run in
// installation order and drop wins: a frame dropped by an earlier filter
// never reaches later ones, modelling serially cascaded inline enforcement
// (e.g. dynamic ARP inspection behind port security).
func (sw *Switch) AddFilter(f FilterFunc) {
	if f == nil {
		return
	}
	if sw.filter == nil {
		sw.filter = f
		return
	}
	prev := sw.filter
	sw.filter = func(port int, fr *frame.Frame) FilterVerdict {
		if prev(port, fr) == VerdictDrop {
			return VerdictDrop
		}
		return f(port, fr)
	}
}

// MirrorAllTo copies the ingress traffic of every other port to dst, the
// configuration used to feed a detector appliance.
func (sw *Switch) MirrorAllTo(dst *Port) {
	sw.mirror = dst
	sw.plans = nil
}

// Stats returns a copy of the forwarding counters.
func (sw *Switch) Stats() SwitchStats {
	out := sw.stats
	out.BytesByType = sw.bytesIn.toMap()
	out.BytesOutByType = sw.bytesOut.toMap()
	return out
}

// typeOctets counts octets per EtherType. A switch carries a handful of
// types, so a short slice searched in place costs less per frame than a
// map update; Stats builds the maps.
type typeOctets []typeCount

type typeCount struct {
	t frame.EtherType
	n uint64
}

func (c *typeOctets) add(t frame.EtherType, n uint64) {
	for i := range *c {
		if (*c)[i].t == t {
			(*c)[i].n += n
			return
		}
	}
	*c = append(*c, typeCount{t, n})
}

func (c typeOctets) toMap() map[frame.EtherType]uint64 {
	m := make(map[frame.EtherType]uint64, len(c))
	for _, e := range c {
		m[e.t] = e.n
	}
	return m
}

// CAMLen returns the number of live (unexpired) CAM entries.
func (sw *Switch) CAMLen() int {
	now := sw.sched.Now()
	n := 0
	for i := range sw.cam {
		if sw.cam[i].expires > now {
			n++
		}
	}
	return n
}

// FlushCAM clears the table (administrative action).
func (sw *Switch) FlushCAM() {
	sw.cam = sw.cam[:0]
	sw.camIndex.Clear()
}

// camLookup returns the live entry for (vlan, mac), or nil.
func (sw *Switch) camLookup(vlan uint16, mac ethaddr.MAC, now time.Duration) *camEntry {
	if i := sw.camIndex.Get(camKey(vlan, mac)); i >= 0 && sw.cam[i].expires > now {
		return &sw.cam[i]
	}
	return nil
}

// camDelete removes the entry at position i, swap-filling the gap with the
// last entry.
func (sw *Switch) camDelete(i int) {
	sw.camIndex.Del(sw.cam[i].key)
	last := len(sw.cam) - 1
	if i != last {
		sw.cam[i] = sw.cam[last]
		sw.camIndex.Set(sw.cam[i].key, i)
	}
	sw.cam = sw.cam[:last]
}

// ingress handles a frame arriving on port id: tap, filter, learn,
// forward, mirror. The mirror destination receives each frame exactly
// once: the SPAN copy is suppressed when normal forwarding already
// delivers the frame to the mirror port.
func (sw *Switch) ingress(id int, f *frame.Frame) {
	// The ingress span covers the whole forwarding decision, so taps (the
	// detectors' vantage) and egress transmissions hang off it in the trace.
	sp := sw.rec.Begin("switch", "ingress")
	if sp != nil {
		sp.Attr("port", strconv.Itoa(id))
	}
	sw.forward(id, f)
	sp.End()
}

// forward is the forwarding decision itself: tap, filter, learn, forward,
// mirror.
func (sw *Switch) forward(id int, f *frame.Frame) {
	now := sw.sched.Now()
	wire := f.WireLen()
	sw.bytesIn.add(f.Type, uint64(wire))
	if sw.mPortBytes != nil && id < len(sw.mPortBytes) {
		sw.mPortBytes[id].Add(uint64(wire))
	}
	ev := TapEvent{At: now, Port: id, Frame: f, WireLen: wire}
	for _, tap := range sw.taps {
		tap(ev)
	}
	mirrorWanted := sw.mirror != nil && sw.mirror.nic != nil && sw.mirror.id != id

	if sw.filter != nil && sw.filter(id, f) == VerdictDrop {
		sw.stats.Filtered++
		sw.mFiltered.Inc()
		if mirrorWanted { // the monitor still sees what the filter ate
			sw.mirror.send(f)
		}
		return
	}
	vlan := sw.ports[id].vlan
	sw.learn(id, vlan, f.Src, now)

	reachedMirror := false
	switch {
	case f.Dst.IsMulticast(): // includes broadcast
		reachedMirror = sw.flood(id, f)
	default:
		if e := sw.camLookup(vlan, f.Dst, now); e != nil {
			if e.port != id { // else: destination on the ingress segment
				sw.stats.Forwarded++
				sw.mForwarded.Inc()
				sw.egressTo(e.port, f)
				reachedMirror = sw.mirror != nil && e.port == sw.mirror.id
			}
		} else {
			// Unknown unicast: flood within the VLAN. With a flooded CAM
			// this is the fail-open (hub-like) eavesdropping mode.
			reachedMirror = sw.flood(id, f)
		}
	}
	if mirrorWanted && !reachedMirror {
		sw.mirror.send(f)
	}
}

// learn records src on port id, refreshing existing entries. A full table
// first tries to reclaim one expired entry; otherwise learning is refused.
func (sw *Switch) learn(id int, vlan uint16, src ethaddr.MAC, now time.Duration) {
	if !src.IsUnicast() {
		return
	}
	key := camKey(vlan, src)
	if i := sw.camIndex.Get(key); i >= 0 {
		e := &sw.cam[i]
		e.port = id
		e.expires = now + sw.camTTL
		return
	}
	if len(sw.cam) >= sw.camCap {
		reclaimed := false
		for i := range sw.cam { // first expired entry in table order
			if sw.cam[i].expires <= now {
				sw.camDelete(i)
				sw.mCAMEvictExp.Inc()
				reclaimed = true
				break
			}
		}
		if !reclaimed && sw.evictRandom {
			sw.camDelete(sw.sched.Rand().Intn(len(sw.cam)))
			sw.mCAMEvictRand.Inc()
			reclaimed = true
		}
		if !reclaimed {
			sw.stats.LearnMisses++
			sw.mLearnMisses.Inc()
			if !sw.failOpen {
				// First refused insertion since the table last admitted a
				// station: the switch has gone fail-open for unlearned
				// destinations, the state MAC flooding drives it into.
				sw.failOpen = true
				sw.mFailOpenTrans.Inc()
			}
			return
		}
	}
	sw.camIndex.Set(key, len(sw.cam))
	sw.cam = append(sw.cam, camEntry{key: key, port: id, expires: now + sw.camTTL})
	sw.stats.Learned++
	sw.mCAMInserts.Inc()
	sw.failOpen = false
}

// floodPlan is a switch's cached broadcast fan-out for one VLAN: the
// VLAN's egress ports in port order, flattened out of the Port→NIC→Link
// chain so a flood decides batching and schedules delivery from contiguous
// data. It is current while gen equals the scheduler's topology generation
// (transitCache.gen); AddPort and MirrorAllTo drop a switch's plans
// outright. A send-only port is no egress of any plan unless it is the
// mirror port. A plan's slices are never written after it is built, and a
// rebuild allocates fresh ones, so a floodTransit in flight shares nics
// read-only and keeps delivering to the receiver set it was scheduled with.
type floodPlan struct {
	vlan  uint16
	gen   uint64
	nics  []*NIC
	links []*Link
	pipes []floodPipe
	// slot is each port's index in the plan, by port id; -1 when the port
	// is not an egress of this VLAN.
	slot []int
	// mirror is the mirror port's index in the plan, -1 when it is not an
	// egress of this VLAN.
	mirror int
	// uniform: every pipe is plain with one latency, so any subset of the
	// egresses batches at one delay.
	uniform bool
}

// floodPipe is what the batching rule reads of one egress link.
type floodPipe struct {
	latency time.Duration
	// plain: up, no impairment, loss or jitter, untraced. Loss, jitter and
	// tracing are fixed at Attach; the rest change only through setters
	// that bump the topology generation.
	plain bool
}

// floodPlan returns the current plan for vlan, rebuilding a stale one.
func (sw *Switch) floodPlan(vlan uint16) *floodPlan {
	for i, pl := range sw.plans {
		if pl.vlan == vlan {
			if pl.gen != sw.cache.gen {
				pl = sw.buildFloodPlan(vlan)
				sw.plans[i] = pl
			}
			return pl
		}
	}
	pl := sw.buildFloodPlan(vlan)
	sw.plans = append(sw.plans, pl)
	return pl
}

// buildFloodPlan walks the ports once into a fresh plan for vlan.
func (sw *Switch) buildFloodPlan(vlan uint16) *floodPlan {
	n := len(sw.ports)
	pl := &floodPlan{
		vlan:    vlan,
		gen:     sw.cache.gen,
		nics:    make([]*NIC, 0, n),
		links:   make([]*Link, 0, n),
		pipes:   make([]floodPipe, 0, n),
		slot:    make([]int, n),
		mirror:  -1,
		uniform: true,
	}
	for _, p := range sw.ports {
		pl.slot[p.id] = -1
		if p.nic == nil || p.vlan != vlan || (p.sendOnly && p != sw.mirror) {
			continue
		}
		l := p.nic.link
		pipe := floodPipe{
			latency: l.params.latency,
			plain:   !l.down && l.impair == nil && l.lossRng == nil && l.params.jitter == 0 && l.rec == nil,
		}
		if !pipe.plain || (len(pl.pipes) > 0 && pipe != pl.pipes[0]) {
			pl.uniform = false
		}
		i := len(pl.nics)
		pl.slot[p.id] = i
		if sw.mirror != nil && p.id == sw.mirror.id {
			pl.mirror = i
		}
		pl.nics = append(pl.nics, p.nic)
		pl.links = append(pl.links, l)
		pl.pipes = append(pl.pipes, pipe)
	}
	return pl
}

// batchDelay applies the batching rule to every egress but skip: each must
// be a plain pipe, and all must share one latency, which it returns. The
// caller checks that such an egress exists.
func (pl *floodPlan) batchDelay(skip int) (time.Duration, bool) {
	if pl.uniform && len(pl.pipes) > 0 {
		return pl.pipes[0].latency, true
	}
	var d time.Duration
	first := true
	for i := range pl.pipes {
		if i == skip {
			continue
		}
		p := &pl.pipes[i]
		if !p.plain {
			return 0, false
		}
		if !first && p.latency != d {
			return 0, false
		}
		d, first = p.latency, false
	}
	return d, true
}

// flood replicates the frame to every port in the ingress port's VLAN,
// except the ingress port itself, as listed by the VLAN's flood plan. It
// reports whether a copy egressed the mirror port.
//
// When every egress link is a plain pipe — up, no impairment, loss or
// jitter, untraced — with the same delivery delay (the common uniform-LAN
// topology), the replicas collapse into one scheduled floodTransit instead
// of one event per port: one heap push, one pop, one task dispatch for the
// whole fan-out, with the delivery loop walking the shared read-only frame
// across the plan's NICs. The per-port deliveries were consecutive events
// at one instant, so folding them into one task preserves the execution
// order exactly. Otherwise each egress link transmits its own replica,
// which handles the general case.
func (sw *Switch) flood(ingress int, f *frame.Frame) bool {
	sw.stats.Flooded++
	sw.mFlooded.Inc()
	wire := f.WireLen()
	pl := sw.floodPlan(sw.ports[ingress].vlan)
	skip := pl.slot[ingress]
	replicas := len(pl.nics)
	if skip >= 0 {
		replicas--
	}
	if d, ok := pl.batchDelay(skip); ok && replicas > 0 {
		c := sw.cache
		ft := c.flood
		if ft != nil {
			c.flood = ft.next
			ft.next = nil
		} else {
			ft = &floodTransit{cache: c}
		}
		ft.f, ft.nics, ft.skip = f, pl.nics, skip
		for i, l := range pl.links {
			if i != skip {
				l.stats.Delivered++
			}
		}
		sw.sched.AfterTask(d, ft)
	} else {
		for i, l := range pl.links {
			if i != skip {
				l.transmit(f, pl.nics[i], nil)
			}
		}
	}
	sw.bytesOut.add(f.Type, uint64(wire*replicas))
	return pl.mirror >= 0 && pl.mirror != skip
}

// egressTo sends the frame out one port. A send-only port other than the
// mirror port discards it: nothing is scheduled and no egress octets are
// counted.
func (sw *Switch) egressTo(id int, f *frame.Frame) {
	p := sw.ports[id]
	if p.nic != nil && (!p.sendOnly || p == sw.mirror) {
		sw.bytesOut.add(f.Type, uint64(f.WireLen()))
		p.send(f)
	}
}

// Hub is a dumb repeater: every frame entering a port is replicated to all
// other ports. It exists because the paper's threat model begins with shared
// media, where eavesdropping needs no ARP poisoning at all.
type Hub struct {
	sched *sim.Scheduler
	ports []*Port
	taps  []TapFunc
}

// NewHub creates a hub with no ports.
func NewHub(s *sim.Scheduler) *Hub { return &Hub{sched: s} }

// AddPort creates a new port on the hub.
func (h *Hub) AddPort() *Port {
	p := &Port{id: len(h.ports)}
	p.ingress = func(f *frame.Frame) { h.ingress(p.id, f) }
	h.ports = append(h.ports, p)
	return p
}

// AddTap registers an observer for every frame entering the hub.
func (h *Hub) AddTap(fn TapFunc) { h.taps = append(h.taps, fn) }

// ingress repeats the frame out every other port.
func (h *Hub) ingress(id int, f *frame.Frame) {
	ev := TapEvent{At: h.sched.Now(), Port: id, Frame: f, WireLen: f.WireLen()}
	for _, tap := range h.taps {
		tap(ev)
	}
	for _, p := range h.ports {
		if p.id == id || p.nic == nil {
			continue
		}
		p.send(f)
	}
}
