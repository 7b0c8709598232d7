// Package netsim implements the simulated layer-2 fabric: NICs, links with
// latency/jitter/loss, a learning switch with a bounded CAM table (and the
// fail-open flooding behaviour real switches exhibit when it fills), a hub,
// port mirroring for network-based detectors, and inline frame filters for
// switch-resident prevention schemes such as Dynamic ARP Inspection.
//
// Everything is event-driven off a sim.Scheduler and deterministic for a
// given seed.
package netsim

import (
	"math/rand"
	"time"

	"repro/internal/ethaddr"
	"repro/internal/frame"
	"repro/internal/sim"
	"repro/internal/telemetry/causal"
)

// transitCache is the per-scheduler recycling store for transit and
// floodTransit task shells. It lives in the scheduler's scratch slot
// (sim.Scheduler.Scratch), which survives scheduler Reset: experiments
// build thousands of short-lived LANs on pooled schedulers, and homing the
// free lists on the one object that outlives a trial means the next LAN
// starts with a warm list instead of re-carving one. Everything on the
// cache belongs to one single-threaded scheduler, so — unlike a
// process-wide sync.Pool, whose per-Get pin/unpin is an order of magnitude
// more than this pop — the lists need no synchronization at all.
//
// gen is the topology generation that every Switch's cached flood plans
// are checked against. Each setter that changes what a flood reads —
// Port.Attach, Port.SetVLAN, Link.SetDown, Link.SetImpairment — bumps it,
// so one scheduler-wide counter invalidates every plan a change could
// touch without links or ports knowing which switches cached them.
type transitCache struct {
	free    *transit
	flood   *floodTransit
	retries *routerRetry   // router resolution retry shells
	cams    []camTable     // CAM storage parked by Switch.Recycle, reused by NewSwitch
	routers []routerTables // ARP tables parked by RouterIface.Recycle
	gen     uint64
}

// bump advances the topology generation, staling every cached flood plan.
// A nil cache (a hub's port) has no plans to stale.
func (c *transitCache) bump() {
	if c != nil {
		c.gen++
	}
}

// cacheOf returns the scheduler's transit cache, installing one on first
// use. Called at Attach/NewSwitch time only; the hot path reaches the
// cache through the pointer captured there.
func cacheOf(s *sim.Scheduler) *transitCache {
	if c, ok := s.Scratch(sim.ScratchTasks).(*transitCache); ok {
		return c
	}
	c := &transitCache{}
	s.SetScratch(sim.ScratchTasks, c)
	return c
}

// transit is one frame's scheduled traversal of a link, recycled through
// the scheduler's transitCache so the NIC→Link→Switch→NIC hot path
// allocates nothing per hop: instead of capturing the frame and its
// destination into a fresh closure per transmission, the link pops a
// transit off the free list, points it at the frame and the receiving
// side, and hands it to the scheduler as a sim.Task. Exactly one of nic
// and port is set. uses counts scheduled deliveries (a duplication fault
// schedules the same transit twice); the last delivery parks the transit
// back on the list.
type transit struct {
	cache *transitCache // owner; recycle destination
	next  *transit
	nic   *NIC  // deliver toward the attached NIC
	port  *Port // ingress into the switch/hub fabric
	f     *frame.Frame
	sp    *causal.ActiveSpan // open link span; finished at delivery
	uses  int
}

// Run implements sim.Task: finish the link span, deliver the frame, and
// recycle the transit once its last scheduled delivery has run.
func (t *transit) Run() {
	nic, port, f, sp := t.nic, t.port, t.f, t.sp
	if t.uses--; t.uses == 0 {
		// Drop every reference before parking: the cache outlives the
		// trial, so a parked transit must not pin the frame, the span, or
		// the previous LAN's topology.
		t.nic, t.port, t.f, t.sp = nil, nil, nil, nil
		c := t.cache
		t.next = c.free
		c.free = t
	}
	sp.Finish()
	if nic != nil {
		nic.deliver(f)
		return
	}
	port.ingress(f)
}

// floodTransit is one batched broadcast fan-out: a single scheduled task
// that delivers the shared read-only frame to every flood target at once,
// replacing one event per egress port. Switch.flood only builds one when
// every target link is a plain pipe with one common delay, so the single
// delivery instant is exact, and the delivery loop runs in port order —
// the same order the per-port events would have executed in. The targets
// are the switch's flood plan's NIC slice, shared read-only: a plan rebuild
// allocates fresh slices, so a flood in flight keeps the receiver set it
// was scheduled with. Recycled through the scheduler's transitCache.
type floodTransit struct {
	cache *transitCache // owner; recycle destination
	next  *floodTransit
	f     *frame.Frame
	nics  []*NIC // a flood plan's egress NICs; never written
	skip  int    // index in nics of the ingress port, -1 when it is not there
}

// Run implements sim.Task: recycle the shell, then deliver to every
// batched NIC.
func (ft *floodTransit) Run() {
	f, nics, skip := ft.f, ft.nics, ft.skip
	// Drop the references before parking: the cache outlives the trial,
	// so a parked shell must not pin the frame or the previous LAN's NICs.
	ft.f, ft.nics = nil, nil
	c := ft.cache
	ft.next = c.flood
	c.flood = ft
	for i, n := range nics {
		if i != skip {
			n.deliver(f)
		}
	}
}

// TapEvent is one frame observed at a monitoring point (a mirror port or an
// inline tap). Detectors consume streams of these.
type TapEvent struct {
	At      time.Duration
	Port    int // ingress port id on the observed device
	Frame   *frame.Frame
	WireLen int
}

// TapFunc receives tap events. Observers must not retain or mutate the frame
// payload; Clone if needed.
type TapFunc func(TapEvent)

// FilterVerdict is the decision of an inline frame filter.
type FilterVerdict int

// Filter verdicts.
const (
	VerdictAllow FilterVerdict = iota + 1
	VerdictDrop
)

// FilterFunc inspects a frame arriving on a port and decides its fate. It
// runs inline in the forwarding path, exactly where Dynamic ARP Inspection
// sits on a managed switch.
type FilterFunc func(port int, f *frame.Frame) FilterVerdict

// linkParams describe one attachment's transmission characteristics.
type linkParams struct {
	latency time.Duration
	jitter  time.Duration
	loss    float64
	bps     int64 // serialization rate; 0 = infinite (no per-byte delay)
	// sendOnly makes the attachment transmit-only; see SendOnly.
	sendOnly bool
}

// LinkOption configures an attachment created by Port.Attach.
type LinkOption func(*linkParams)

// WithLatency sets the one-way propagation delay (default 50µs, a typical
// switched-LAN figure).
func WithLatency(d time.Duration) LinkOption {
	return func(p *linkParams) { p.latency = d }
}

// WithJitter adds a uniform random delay in [0, d) to each transmission.
func WithJitter(d time.Duration) LinkOption {
	return func(p *linkParams) { p.jitter = d }
}

// WithLoss sets the independent per-frame drop probability.
func WithLoss(prob float64) LinkOption {
	return func(p *linkParams) { p.loss = prob }
}

// WithBandwidth adds serialization delay: each frame takes wirelen·8/bps
// on top of the propagation latency, so a 1514-octet frame on Fast
// Ethernet costs ≈121µs where a minimum frame costs ≈5µs. Zero (the
// default) models an infinitely fast line.
func WithBandwidth(bitsPerSecond int64) LinkOption {
	return func(p *linkParams) { p.bps = bitsPerSecond }
}

// SendOnly makes the attachment transmit-only: the port still carries
// the station's frames into the fabric — learned into the CAM, seen by
// taps, mirrored, counted as ingress — but the fabric never delivers a
// frame back out of it. A switch leaves the port out of every flood and
// discards a unicast frame whose CAM entry points at it without
// scheduling a transit; a hub ignores the option. It models a
// replay injector, a station with no receive side, whose deliveries a NIC
// with no handler would only discard. The switch's mirror port ignores
// the option: it always receives, so the monitor sees every frame it
// would otherwise.
func SendOnly() LinkOption {
	return func(p *linkParams) { p.sendOnly = true }
}

// fixedDelay is a link's delay for a frame of wireLen octets before jitter
// and faults: propagation plus serialization at bps (none when zero).
func fixedDelay(latency time.Duration, bps int64, wireLen int) time.Duration {
	if bps > 0 {
		latency += time.Duration(int64(wireLen) * 8 * int64(time.Second) / bps)
	}
	return latency
}

// defaultLink returns the default attachment parameters.
func defaultLink() linkParams {
	return linkParams{latency: 50 * time.Microsecond}
}

// NICStats are transmit/receive counters for one NIC.
type NICStats struct {
	TxFrames, RxFrames uint64
	TxBytes, RxBytes   uint64
}

// NIC is a simulated network interface. A host stack (or an attacker tool)
// sets a receive handler and transmits frames; address filtering follows
// real NIC semantics, including promiscuous mode for sniffers.
type NIC struct {
	mac         ethaddr.MAC
	sched       *sim.Scheduler
	port        *Port
	link        *Link
	handler     func(*frame.Frame)
	promiscuous bool
	up          bool
	stats       NICStats
	rec         *causal.Recorder // causal tracing; nil (no-op) when disabled
}

// NewNIC creates an interface with the given hardware address. If a causal
// recorder is attached to the scheduler at this point, the NIC's
// transmissions are traced.
func NewNIC(s *sim.Scheduler, mac ethaddr.MAC) *NIC {
	return &NIC{mac: mac, sched: s, up: true, rec: causal.Of(s)}
}

// MAC returns the burned-in hardware address.
func (n *NIC) MAC() ethaddr.MAC { return n.mac }

// SetHandler installs the receive callback invoked for every frame the NIC
// accepts.
func (n *NIC) SetHandler(fn func(*frame.Frame)) { n.handler = fn }

// SetPromiscuous toggles acceptance of frames addressed to other stations.
func (n *NIC) SetPromiscuous(v bool) { n.promiscuous = v }

// SetUp administratively enables or disables the interface.
func (n *NIC) SetUp(v bool) { n.up = v }

// Link returns the attachment's shared link state (nil before Attach).
func (n *NIC) Link() *Link { return n.link }

// Stats returns a copy of the interface counters.
func (n *NIC) Stats() NICStats { return n.stats }

// Send transmits a frame out the attached port. The source address is taken
// from the frame as crafted — spoofing tools depend on that — so the NIC
// does not rewrite it.
func (n *NIC) Send(f *frame.Frame) {
	if n.port == nil || !n.up {
		return
	}
	n.stats.TxFrames++
	n.stats.TxBytes += uint64(f.WireLen())
	// A tx span anchors the frame in the causal graph: a root when nothing
	// is active (ordinary host traffic), a child of the attack or
	// resolution span otherwise. The whole block is gated so the untraced
	// hot path never evaluates the type/address strings.
	if n.rec != nil {
		sp := n.rec.Begin("tx", f.Type.String())
		sp.Attr("src", f.Src.String()).Attr("dst", f.Dst.String())
		n.link.transmit(f, nil, n.port)
		sp.End()
		return
	}
	n.link.transmit(f, nil, n.port)
}

// deliver is the link-side entry point for frames arriving at the NIC.
func (n *NIC) deliver(f *frame.Frame) {
	if !n.up {
		return
	}
	accept := n.promiscuous || f.Dst == n.mac || f.Dst.IsMulticast()
	if !accept {
		return
	}
	n.stats.RxFrames++
	n.stats.RxBytes += uint64(f.WireLen())
	if n.handler != nil {
		n.handler(f)
	}
}

// Verdict is an Impairment's decision for one frame transmission.
type Verdict struct {
	// Drop discards the frame (burst loss).
	Drop bool
	// Delay is added on top of the link's own delays, pushing the frame
	// behind later traffic — bounded reordering.
	Delay time.Duration
	// Duplicate delivers a second copy of the frame, DuplicateDelay after
	// the first copy.
	Duplicate      bool
	DuplicateDelay time.Duration
}

// Impairment is consulted once per frame transmission on a link and decides
// extra treatment beyond the link's static parameters. Implementations live
// in internal/faults; netsim defines only the contract so the forwarding
// path stays ignorant of fault semantics. A nil impairment costs nothing.
type Impairment interface {
	Judge(wireLen int) Verdict
}

// LinkStats counts one attachment's transmission outcomes, both directions
// combined.
type LinkStats struct {
	Delivered    uint64 // frames scheduled for delivery (duplicate copies included)
	LossDropped  uint64 // dropped by the link's static loss probability
	FaultDropped uint64 // dropped by an injected impairment (burst loss)
	DownDropped  uint64 // dropped while the link was administratively down
	Duplicated   uint64 // extra copies injected by a duplication fault
	Reordered    uint64 // frames delayed out of order by a reordering fault
}

// Link is the shared state of one NIC↔port attachment. Both transmission
// directions consult the same Link, so an administrative flap or a
// burst-loss episode hits the pair symmetrically, as on a real cable.
//
// Static random loss draws from a per-link stream derived from the
// scheduler's seed (sim.Scheduler.DeriveRand), never from the shared
// simulation stream: attaching another lossy link, or arming a fault
// injector, cannot perturb the sequence of drops an existing link sees.
type Link struct {
	sched   *sim.Scheduler
	params  linkParams
	lossRng *rand.Rand // non-nil iff the link has static loss; assigned at Attach
	down    bool
	impair  Impairment
	stats   LinkStats
	rec     *causal.Recorder // causal tracing; nil (no-op) when disabled
	cache   *transitCache    // scheduler-wide transit recycling store
}

// SetDown administratively raises or lowers the link. While down, every
// frame offered in either direction is counted and discarded — the
// link-flap fault's hook.
func (l *Link) SetDown(v bool) {
	l.down = v
	l.cache.bump()
}

// Down reports whether the link is administratively down.
func (l *Link) Down() bool { return l.down }

// SetImpairment installs (or, with nil, removes) the link's fault hook.
func (l *Link) SetImpairment(imp Impairment) {
	l.impair = imp
	l.cache.bump()
}

// Stats returns a copy of the link counters.
func (l *Link) Stats() LinkStats { return l.stats }

// transmit schedules delivery of f toward nic (link egress) or port
// (fabric ingress) after the link's delay, honouring the administrative
// state, any installed impairment, serialization rate, jitter, and loss.
// The frame is carried by a pooled transit task, so a transmission costs no
// allocation.
func (l *Link) transmit(f *frame.Frame, nic *NIC, port *Port) {
	// The transit span stays open across the scheduled delay and is finished
	// by the delivery-side task, so its extent is the frame's actual time
	// on the wire; a dropped frame closes it immediately with the reason.
	sp := l.rec.Begin("link", "transit")
	if l.down {
		l.stats.DownDropped++
		sp.Attr("drop", "down").End()
		return
	}
	wireLen := f.WireLen()
	var v Verdict
	if l.impair != nil {
		v = l.impair.Judge(wireLen)
		if v.Drop {
			l.stats.FaultDropped++
			sp.Attr("drop", "fault").End()
			return
		}
	}
	p := &l.params
	if p.loss > 0 && l.lossRng.Float64() < p.loss {
		l.stats.LossDropped++
		sp.Attr("drop", "loss").End()
		return
	}
	d := fixedDelay(p.latency, p.bps, wireLen)
	if p.jitter > 0 {
		d += time.Duration(l.sched.Int63n(int64(p.jitter)))
	}
	if v.Delay > 0 {
		l.stats.Reordered++
		d += v.Delay
	}
	l.stats.Delivered++
	c := l.cache
	t := c.free
	if t != nil {
		c.free = t.next
		t.next = nil
	} else {
		// One allocation per transit, only the first time this scheduler's
		// traffic reaches a new peak. Never carve slabs: a transit still in
		// flight when a trial ends would share its backing array with parked
		// siblings, and the free list would pin its frame and endpoints —
		// the whole finished topology — for the scheduler's pooled life.
		t = &transit{cache: c}
	}
	t.nic, t.port, t.f, t.sp, t.uses = nic, port, f, sp, 1
	l.sched.AfterTask(d, t)
	if v.Duplicate {
		l.stats.Duplicated++
		l.stats.Delivered++
		t.uses = 2
		l.sched.AfterTask(d+v.DuplicateDelay, t)
	}
	sp.Detach()
}
