package stack

import (
	"bytes"
	"strconv"
	"time"

	"repro/internal/arppkt"
	"repro/internal/denseidx"
	"repro/internal/ethaddr"
	"repro/internal/frame"
	"repro/internal/ipv4pkt"
	"repro/internal/netsim"
	"repro/internal/sim"
	"repro/internal/telemetry"
	"repro/internal/telemetry/causal"
)

// Stats counts per-host protocol activity.
type Stats struct {
	ARPTx, ARPRx       uint64
	IPv4Tx, IPv4Rx     uint64
	ResolveOK          uint64
	ResolveFail        uint64
	QueuedDropped      uint64 // IP packets dropped after resolution failure
	EchoSent, EchoRecv uint64
	ConflictsSeen      uint64 // foreign assertions of our own address
	Defenses           uint64 // gratuitous reassertions sent in response
}

// pending tracks one in-flight resolution. It doubles as the retry timer's
// sim.Task (host and ip identify the resolution), so arming a retry stores
// the pending itself instead of allocating a closure per attempt.
type pending struct {
	host      *Host
	ip        ethaddr.IPv4
	queue     []segment
	retries   int
	timer     sim.Timer
	waiters   []func(ethaddr.MAC, bool)
	startedAt time.Duration
	span      *causal.ActiveSpan // nil (no-op) when tracing is off
}

// finish closes the resolution's span with its outcome and the number of
// requests it sent.
func (pd *pending) finish(outcome string, tries int) {
	pd.span.Attr("outcome", outcome).Attr("tries", strconv.Itoa(tries)).Finish()
}

// Run fires one resolution retry; implements sim.Task for the retry timer.
func (pd *pending) Run() {
	h := pd.host
	pd.retries++
	if pd.retries >= h.resolveRetries {
		h.failResolution(pd.ip, pd)
		return
	}
	h.mRetries.Inc()
	h.sendRequest(pd.ip, pd)
}

// segment is the transport part of one outbound datagram, a UDP datagram
// or an ICMP echo, kept unencoded until transmitIPv4 writes it straight
// into the frame's wire bytes.
type segment struct {
	proto            ipv4pkt.Protocol // ProtoUDP or ProtoICMP
	srcPort, dstPort uint16           // UDP
	echoType         uint8            // ICMP echo
	ident, seq       uint16           // ICMP echo
	body             []byte           // the UDP payload or the echo data
}

func udpSegment(srcPort, dstPort uint16, payload []byte) segment {
	return segment{proto: ipv4pkt.ProtoUDP, srcPort: srcPort, dstPort: dstPort, body: payload}
}

func echoSegment(typ uint8, ident, seq uint16, data []byte) segment {
	return segment{proto: ipv4pkt.ProtoICMP, echoType: typ, ident: ident, seq: seq, body: data}
}

// segmentHeaderLen is the header length of both segment kinds.
const segmentHeaderLen = 8

// appendTo appends the segment's segmentHeaderLen+len(body) wire octets
// to b.
func (sg segment) appendTo(b []byte) []byte {
	if sg.proto == ipv4pkt.ProtoUDP {
		u := ipv4pkt.UDP{SrcPort: sg.srcPort, DstPort: sg.dstPort, Payload: sg.body}
		return u.AppendEncode(b)
	}
	e := ipv4pkt.ICMPEcho{Type: sg.echoType, IDent: sg.ident, Seq: sg.seq, Data: sg.body}
	return e.AppendEncode(b)
}

// hostDatagram is one host-sent IPv4 datagram in a single object: the frame
// and the wire bytes its Payload points into, which live and die together
// with the frame (labnet's bankDatagram does the same for station banks).
// The array fits the IPv4 and UDP headers and a hostDatagramBody-octet
// body, the traffic generators' default; a larger datagram takes a
// separate buffer.
type hostDatagram struct {
	frame.Frame
	wire [hostDatagramWire]byte
}

const (
	hostDatagramBody = 64
	hostDatagramWire = ipv4pkt.HeaderLen + segmentHeaderLen + hostDatagramBody
)

// ARPHook can observe or veto an inbound ARP packet before the cache sees
// it. Returning false suppresses normal processing (the packet is dropped as
// far as the cache and responder are concerned). The middleware scheme uses
// this to quarantine-and-verify.
type ARPHook func(p *arppkt.Packet, f *frame.Frame) bool

// Option configures a Host.
type Option func(*Host)

// WithPolicy selects the ARP cache acceptance policy (default PolicyNaive,
// the permissive baseline the attacks target).
func WithPolicy(p Policy) Option {
	return func(h *Host) { h.policy = p }
}

// WithCacheTTL sets the ARP entry lifetime (default 60s).
func WithCacheTTL(d time.Duration) Option {
	return func(h *Host) { h.cacheTTL = d }
}

// WithCacheCapacity pre-sizes the ARP cache — its slot array and the IP
// index beside it — for the expected number of peers. Purely an allocation
// hint: a full-mesh LAN otherwise grows each host's cache through repeated
// doublings of both. A cache that takes over storage a recycled cache
// parked on the scheduler keeps that storage's size instead.
func WithCacheCapacity(n int) Option {
	return func(h *Host) { h.cacheCap = n }
}

// WithResolveRetry sets the request retry count and spacing (default 3
// retries, 1s apart, per common stacks).
func WithResolveRetry(retries int, interval time.Duration) Option {
	return func(h *Host) {
		h.resolveRetries = retries
		h.resolveInterval = interval
	}
}

// WithEchoResponder controls whether the host answers ICMP echo requests
// (default on, as real stacks do). A replay monitor turns it off: it
// reproduces a capture's traffic and must add no frames of its own.
func WithEchoResponder(v bool) Option {
	return func(h *Host) { h.echoResponder = v }
}

// WithAddressDefense makes the host fight back when a foreign station
// claims its address: it re-broadcasts its own gratuitous announcement
// (rate-limited to one per interval), the RFC 5227 "defend" behaviour and
// the essence of the anticap-style host mitigations. Defense turns a
// one-shot poisoning into a reassertion war the attacker must sustain.
func WithAddressDefense(minInterval time.Duration) Option {
	return func(h *Host) {
		h.defend = true
		h.defendInterval = minInterval
	}
}

// Host is a simulated end station: one NIC, an IPv4 identity, an ARP cache,
// and a resolver.
type Host struct {
	name  string
	sched *sim.Scheduler
	rec   *causal.Recorder // causal tracing; nil (no-op) when disabled
	nic   *netsim.NIC
	ip    ethaddr.IPv4
	cache *Cache
	arena *arppkt.Arena

	policy          Policy
	cacheTTL        time.Duration
	cacheCap        int
	resolveRetries  int
	resolveInterval time.Duration
	echoResponder   bool

	pendings       []*pending     // in-flight resolutions in start order; nil = finished
	pendingIndex   denseidx.Index // IP → position in pendings
	arpHook        ARPHook
	onARP          func(*arppkt.Packet, *frame.Frame) // passive observer
	udpPorts       map[uint16]func(src ethaddr.IPv4, srcPort uint16, payload []byte)
	onEcho         map[uint16]func(seq uint16, from ethaddr.IPv4, fromMAC ethaddr.MAC)
	extra          map[frame.EtherType]func(*frame.Frame)
	arpDisabled    bool
	defend         bool
	defendInterval time.Duration
	lastDefense    time.Duration
	defendedOnce   bool
	stats          Stats

	// Telemetry handles; nil (no-op) unless Instrument is called.
	events       *telemetry.EventLog
	mResolveOK   *telemetry.Counter
	mResolveFail *telemetry.Counter
	mRetries     *telemetry.Counter
	mResolveLat  *telemetry.Histogram
	mConflicts   *telemetry.Counter
}

// NewHost creates a host bound to a NIC and address and registers its frame
// handler.
func NewHost(s *sim.Scheduler, name string, nic *netsim.NIC, ip ethaddr.IPv4, opts ...Option) *Host {
	h := &Host{
		name:            name,
		sched:           s,
		rec:             causal.Of(s),
		nic:             nic,
		ip:              ip,
		arena:           arppkt.ArenaOf(s),
		policy:          PolicyNaive,
		cacheTTL:        60 * time.Second,
		resolveRetries:  3,
		resolveInterval: time.Second,
		echoResponder:   true,
		udpPorts:        make(map[uint16]func(ethaddr.IPv4, uint16, []byte)),
		onEcho:          make(map[uint16]func(uint16, ethaddr.IPv4, ethaddr.MAC)),
		extra:           make(map[frame.EtherType]func(*frame.Frame)),
	}
	for _, opt := range opts {
		opt(h)
	}
	h.cache = newCache(s, h.policy, h.cacheTTL, h.cacheCap)
	h.pendingIndex.Init(0)
	nic.SetHandler(h.handleFrame)
	return h
}

// Recycle parks the host's ARP cache storage on its scheduler for the next
// trial's hosts (see newCache). labnet calls it when the trial's world is
// torn down; the host and its cache must not be used afterwards.
func (h *Host) Recycle() { h.cache.recycle() }

// Name returns the host's scenario name.
func (h *Host) Name() string { return h.name }

// IP returns the host's protocol address.
func (h *Host) IP() ethaddr.IPv4 { return h.ip }

// SetIP rebinds the host's protocol address (DHCP assignment).
func (h *Host) SetIP(ip ethaddr.IPv4) { h.ip = ip }

// MAC returns the NIC hardware address.
func (h *Host) MAC() ethaddr.MAC { return h.nic.MAC() }

// NIC exposes the interface, e.g. for promiscuous capture.
func (h *Host) NIC() *netsim.NIC { return h.nic }

// Cache exposes the ARP cache for schemes and assertions.
func (h *Host) Cache() *Cache { return h.cache }

// Stats returns a copy of the host counters.
func (h *Host) Stats() Stats { return h.stats }

// Instrument attaches the host stack to a telemetry registry: cache
// hit/miss and mutation counters, resolver retry/outcome counters, and the
// resolution-latency histogram. All metrics carry a host label so
// multi-host runs stay attributable. (Per-resolution "stack/resolve" spans
// come from the scheduler's causal recorder, not the registry.)
func (h *Host) Instrument(reg *telemetry.Registry) {
	label := telemetry.L("host", h.name)
	h.cache.Instrument(reg, label)
	h.events = reg.Events()
	h.mResolveOK = reg.Counter("stack_resolutions_total", label, telemetry.L("outcome", "ok"))
	h.mResolveFail = reg.Counter("stack_resolutions_total", label, telemetry.L("outcome", "fail"))
	h.mRetries = reg.Counter("stack_resolve_retries_total", label)
	h.mResolveLat = reg.Histogram("stack_resolution_latency_seconds", nil, label)
	h.mConflicts = reg.Counter("stack_address_conflicts_total", label)
}

// SetARPHook installs the inbound ARP interceptor (middleware scheme).
func (h *Host) SetARPHook(fn ARPHook) { h.arpHook = fn }

// OnARP installs a passive observer of inbound ARP packets.
func (h *Host) OnARP(fn func(*arppkt.Packet, *frame.Frame)) { h.onARP = fn }

// HandleUDP registers a datagram handler for a local port.
func (h *Host) HandleUDP(port uint16, fn func(src ethaddr.IPv4, srcPort uint16, payload []byte)) {
	h.udpPorts[port] = fn
}

// Restart models the host coming back from a power cycle: the ARP cache is
// wiped (kernel caches do not survive a reboot), every in-flight resolution
// is abandoned (in start order, so the abandoned spans reach the recorder in
// the same order every run), and the host re-announces its binding. Fault
// plans use this as the host-churn hook; bring the NIC down and up around it
// to model the offline window itself.
func (h *Host) Restart() {
	for _, pd := range h.pendings {
		if pd != nil {
			pd.timer.Stop()
			pd.finish("abandoned", pd.retries+1)
		}
	}
	clear(h.pendings)
	h.pendings = h.pendings[:0]
	h.pendingIndex.Clear()
	h.cache.Flush()
	h.events.Warnf("stack", "%s: restarted (cache wiped)", h.name)
	h.SendGratuitous()
}

// SendGratuitous broadcasts a gratuitous ARP request announcing this host's
// current binding.
func (h *Host) SendGratuitous() {
	p := arppkt.NewGratuitousRequest(h.MAC(), h.ip)
	h.sendARP(p, ethaddr.BroadcastMAC)
}

// sendARP encapsulates and transmits an ARP packet.
func (h *Host) sendARP(p *arppkt.Packet, dst ethaddr.MAC) {
	h.stats.ARPTx++
	h.nic.Send(h.arena.NewFrame(p, h.MAC(), dst))
}

// NewARPFrame wraps p in an ARP frame from this host (src = host MAC)
// using the host's frame arena. Schemes that transmit their own ARP —
// probes, protocol-correct replies — should build frames here rather than
// with arppkt.NewFrame so their traffic shares the recycled backing store.
func (h *Host) NewARPFrame(p *arppkt.Packet, dst ethaddr.MAC) *frame.Frame {
	return h.arena.NewFrame(p, h.MAC(), dst)
}

// Resolve initiates (or joins) resolution of ip and calls done with the
// result when it completes or fails. A cache hit completes synchronously.
func (h *Host) Resolve(ip ethaddr.IPv4, done func(mac ethaddr.MAC, ok bool)) {
	if mac, ok := h.cache.Lookup(ip); ok {
		if done != nil {
			done(mac, true)
		}
		return
	}
	pd := h.ensurePending(ip)
	if done != nil {
		pd.waiters = append(pd.waiters, done)
	}
}

// sendIPv4 transmits seg to dst, resolving first if needed. Datagrams
// queue behind an in-flight resolution and are dropped if it fails,
// exactly as real stacks behave. A queued datagram keeps its own copy of
// the body, so callers may reuse their buffers as soon as a send returns.
func (h *Host) sendIPv4(dst ethaddr.IPv4, seg segment) {
	if mac, ok := h.cache.Lookup(dst); ok {
		h.transmitIPv4(mac, dst, seg)
		return
	}
	pd := h.ensurePending(dst)
	seg.body = bytes.Clone(seg.body)
	pd.queue = append(pd.queue, seg)
}

// SendUDP transmits a UDP datagram. It copies payload, so the caller may
// reuse the buffer once SendUDP returns.
func (h *Host) SendUDP(dst ethaddr.IPv4, srcPort, dstPort uint16, payload []byte) {
	h.sendIPv4(dst, udpSegment(srcPort, dstPort, payload))
}

// SendUDPTo transmits a UDP datagram inside a frame addressed to an explicit
// MAC, bypassing resolution (DHCP handshakes need this before addresses
// exist). Like SendUDP it copies payload.
func (h *Host) SendUDPTo(dstMAC ethaddr.MAC, dst ethaddr.IPv4, srcPort, dstPort uint16, payload []byte) {
	h.transmitIPv4(dstMAC, dst, udpSegment(srcPort, dstPort, payload))
}

// Ping sends an ICMP echo request and registers a reply callback keyed on
// the identifier. The callback fires for every matching reply, so a caller
// sees each station that answers.
func (h *Host) Ping(dst ethaddr.IPv4, ident, seq uint16, reply func(seq uint16, from ethaddr.IPv4, fromMAC ethaddr.MAC)) {
	if reply != nil {
		h.onEcho[ident] = reply
	}
	h.stats.EchoSent++
	h.sendIPv4(dst, echoSegment(ipv4pkt.ICMPEchoRequest, ident, seq, nil))
}

// transmitIPv4 encapsulates seg for dst and sends it to a known MAC. Every
// IPv4 datagram a host sends is built here, in one allocation when it fits
// a hostDatagram.
func (h *Host) transmitIPv4(dstMAC ethaddr.MAC, dst ethaddr.IPv4, seg segment) {
	h.stats.IPv4Tx++
	n := ipv4pkt.HeaderLen + segmentHeaderLen + len(seg.body)
	var f *frame.Frame
	var wire []byte
	if n <= hostDatagramWire {
		d := new(hostDatagram)
		f, wire = &d.Frame, d.wire[:0:n]
	} else {
		f, wire = new(frame.Frame), make([]byte, 0, n)
	}
	// The segment goes behind the header's room, so appending the packet
	// at the front of wire writes the header and copies the segment onto
	// itself.
	p := ipv4pkt.Packet{TTL: 64, Proto: seg.proto, Src: h.ip, Dst: dst,
		Payload: seg.appendTo(wire[ipv4pkt.HeaderLen:ipv4pkt.HeaderLen])}
	*f = frame.Frame{Dst: dstMAC, Src: h.MAC(), Type: frame.TypeIPv4, Payload: p.AppendEncode(wire)}
	h.nic.Send(f)
}

// ensurePending starts a resolution cycle for ip if none is running.
func (h *Host) ensurePending(ip ethaddr.IPv4) *pending {
	if i := h.pendingIndex.Get(ipKey(ip)); i >= 0 {
		return h.pendings[i]
	}
	pd := &pending{host: h, ip: ip, startedAt: h.sched.Now()}
	if h.rec != nil { // don't render ip when tracing is off
		// A detached leaf under the caller's cause: the requests and their
		// replies stay in whatever trace prompted the resolution.
		pd.span = h.rec.Begin("stack", "resolve").Attr("host", h.name).Attr("target", ip.String())
		pd.span.Detach()
	}
	h.pendingIndex.Set(ipKey(ip), len(h.pendings))
	h.pendings = append(h.pendings, pd)
	h.sendRequest(ip, pd)
	return pd
}

// removePending drops the resolution for ip and returns it, or nil when
// none is in flight. Its slot becomes a nil hole, so later resolutions keep
// their positions and the slice its start order. Trailing holes are trimmed
// at once (an empty slice then means nothing is in flight), and the slice
// is compacted once holes outnumber live resolutions, so removal costs
// amortized O(1) however many resolutions a host has open.
func (h *Host) removePending(ip ethaddr.IPv4) *pending {
	i := h.pendingIndex.Del(ipKey(ip))
	if i < 0 {
		return nil
	}
	pd := h.pendings[i]
	h.pendings[i] = nil
	n := len(h.pendings)
	for n > 0 && h.pendings[n-1] == nil {
		n--
	}
	h.pendings = h.pendings[:n]
	if 2*h.pendingIndex.Len() < n {
		live := h.pendings[:0]
		for _, q := range h.pendings {
			if q != nil {
				h.pendingIndex.Set(ipKey(q.ip), len(live))
				live = append(live, q)
			}
		}
		clear(h.pendings[len(live):])
		h.pendings = live
	}
	return pd
}

// sendRequest emits one who-has and arms the retry timer.
func (h *Host) sendRequest(ip ethaddr.IPv4, pd *pending) {
	h.sendARP(arppkt.NewRequest(h.MAC(), h.ip, ip), ethaddr.BroadcastMAC)
	pd.timer = h.sched.AfterTask(h.resolveInterval, pd)
}

// failResolution drops the queue and notifies waiters of failure.
func (h *Host) failResolution(ip ethaddr.IPv4, pd *pending) {
	h.removePending(ip)
	h.stats.ResolveFail++
	h.stats.QueuedDropped += uint64(len(pd.queue))
	h.mResolveFail.Inc()
	// The final retry expired without sending: retries counts every try.
	pd.finish("fail", pd.retries)
	if h.events != nil { // don't box Warnf args for a no-op log
		h.events.Warnf("stack", "%s: resolution of %s failed after %d tries, %d queued packets dropped",
			h.name, ip, pd.retries, len(pd.queue))
	}
	for _, w := range pd.waiters {
		w(ethaddr.MAC{}, false)
	}
}

// completeResolution flushes the queue and notifies waiters of success.
func (h *Host) completeResolution(ip ethaddr.IPv4, mac ethaddr.MAC) {
	pd := h.removePending(ip)
	if pd == nil {
		return
	}
	pd.timer.Stop()
	h.stats.ResolveOK++
	h.mResolveOK.Inc()
	h.mResolveLat.ObserveDuration(h.sched.Now() - pd.startedAt)
	pd.finish("commit", pd.retries+1)
	for _, q := range pd.queue {
		h.transmitIPv4(mac, ip, q)
	}
	for _, w := range pd.waiters {
		w(mac, true)
	}
}

// handleFrame dispatches inbound frames by EtherType.
func (h *Host) handleFrame(f *frame.Frame) {
	switch f.Type {
	case frame.TypeARP:
		h.handleARP(f)
	case frame.TypeIPv4:
		h.handleIPv4(f)
	default:
		// Protocol-replacing schemes (S-ARP, TARP) register handlers for
		// their own EtherTypes; plain hosts ignore them.
		if fn, ok := h.extra[f.Type]; ok {
			fn(f)
		}
	}
}

// HandleEtherType registers a handler for a non-standard EtherType; the
// secured-ARP schemes attach their wire protocols here.
func (h *Host) HandleEtherType(t frame.EtherType, fn func(*frame.Frame)) {
	h.extra[t] = fn
}

// DisableARP turns off plain ARP processing entirely: no cache updates, no
// responses. Protocol-replacing schemes (S-ARP, TARP) call this when they
// convert a host — a converted station that still believed plain ARP would
// remain poisonable, defeating the replacement.
func (h *Host) DisableARP() { h.arpDisabled = true }

// SendFrame transmits a raw frame from this host's NIC (used by scheme
// shims that speak their own EtherType).
func (h *Host) SendFrame(f *frame.Frame) { h.nic.Send(f) }

// handleARP processes one inbound ARP packet under the cache policy and the
// RFC 826 responder rules.
func (h *Host) handleARP(f *frame.Frame) {
	if h.arpDisabled {
		return
	}
	p, err := arppkt.DecodeFrame(f)
	if err != nil {
		return
	}
	h.stats.ARPRx++
	if h.onARP != nil {
		h.onARP(p, f)
	}
	if h.arpHook != nil && !h.arpHook(p, f) {
		return
	}
	h.ProcessARP(p)
}

// ProcessARP applies cache update and responder logic to a decoded packet.
// It is exported so interceptors (middleware) can re-inject packets they
// have verified.
func (h *Host) ProcessARP(p *arppkt.Packet) {
	// Whether a resolution of the sender is in flight is looked up only
	// when the cache reads it; then only a reply completes a resolution
	// below. So a broadcast request, what every host receives from every
	// resolution on its LAN, skips the probe.
	solicited := false
	if len(h.pendings) > 0 && h.cache.usesSolicited(p.Op) {
		solicited = h.pendingIndex.Get(ipKey(p.SenderIP)) >= 0
	}

	// A foreign station asserting our own address is an address conflict
	// (RFC 5227), never a cache update: no stack maps its own IP to
	// another MAC. With defense enabled the host reasserts itself.
	if p.SenderIP == h.ip && p.SenderMAC != h.MAC() {
		h.stats.ConflictsSeen++
		h.mConflicts.Inc()
		if h.events != nil { // don't box Warnf args for a no-op log
			h.events.Warnf("stack", "%s: foreign station %s asserts our address %s",
				h.name, p.SenderMAC, h.ip)
		}
		if h.defend {
			now := h.sched.Now()
			if !h.defendedOnce || now-h.lastDefense >= h.defendInterval {
				h.defendedOnce = true
				h.lastDefense = now
				h.stats.Defenses++
				h.SendGratuitous()
			}
		}
		return
	}

	h.cache.Update(p, solicited)

	// Complete resolution regardless of cache policy outcome: the protocol
	// still answered our question. (Solicited-only policies will have
	// cached it above; others may not, but waiters still learn the MAC.)
	if solicited && p.Op == arppkt.OpReply && p.SenderMAC.IsUnicast() {
		h.completeResolution(p.SenderIP, p.SenderMAC)
	}

	// Answer requests for our address.
	if p.Op == arppkt.OpRequest && p.TargetIP == h.ip && !p.IsGratuitous() && !p.SenderIP.IsZero() {
		h.sendARP(arppkt.NewReply(h.MAC(), h.ip, p.SenderMAC, p.SenderIP), p.SenderMAC)
	}
	// Answer probes for our address (RFC 5227: defend with a reply).
	if p.IsProbe() && p.TargetIP == h.ip {
		h.sendARP(arppkt.NewReply(h.MAC(), h.ip, p.SenderMAC, ethaddr.ZeroIPv4), p.SenderMAC)
	}
}

// handleIPv4 processes one inbound IPv4 packet. It reads the destination
// before anything else: a promiscuous monitor sees every datagram on its
// LAN, and one addressed elsewhere is dropped without verifying its header
// checksum (decoding could only drop it too). The rest parses into a
// stack-held Packet that deliverIPv4 dispatches without a heap copy.
func (h *Host) handleIPv4(f *frame.Frame) {
	if len(f.Payload) < ipv4pkt.HeaderLen {
		return
	}
	if dst := ethaddr.IPv4(f.Payload[16:20]); dst != h.ip && !dst.IsBroadcast() {
		return // not ours
	}
	var pkt ipv4pkt.Packet
	if ipv4pkt.DecodeInto(&pkt, f.Payload) != nil {
		return
	}
	h.deliverIPv4(&pkt, f)
}

// deliverIPv4 dispatches a packet addressed to this host.
func (h *Host) deliverIPv4(pkt *ipv4pkt.Packet, f *frame.Frame) {
	h.stats.IPv4Rx++
	switch pkt.Proto {
	case ipv4pkt.ProtoICMP:
		h.handleICMP(pkt, f)
	case ipv4pkt.ProtoUDP:
		h.handleUDP(pkt)
	}
}

// handleICMP answers echo requests and dispatches echo replies.
func (h *Host) handleICMP(pkt *ipv4pkt.Packet, f *frame.Frame) {
	var echo ipv4pkt.ICMPEcho
	if ipv4pkt.DecodeICMPEchoInto(&echo, pkt.Payload) != nil {
		return
	}
	switch echo.Type {
	case ipv4pkt.ICMPEchoRequest:
		if !h.echoResponder {
			return
		}
		// Reply to the frame's source MAC directly: echo must not trigger
		// another resolution (and real stacks use the cached/frame source).
		h.transmitIPv4(f.Src, pkt.Src, echoSegment(ipv4pkt.ICMPEchoReply, echo.IDent, echo.Seq, echo.Data))
	case ipv4pkt.ICMPEchoReply:
		h.stats.EchoRecv++
		if fn, ok := h.onEcho[echo.IDent]; ok {
			fn(echo.Seq, pkt.Src, f.Src)
		}
	}
}

// handleUDP dispatches datagrams to registered port handlers.
func (h *Host) handleUDP(pkt *ipv4pkt.Packet) {
	var u ipv4pkt.UDP
	if ipv4pkt.DecodeUDPInto(&u, pkt.Payload) != nil {
		return
	}
	if fn, ok := h.udpPorts[u.DstPort]; ok {
		fn(pkt.Src, u.SrcPort, u.Payload)
	}
}
