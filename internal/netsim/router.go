// Router interfaces and inter-LAN trunks: the layer-3 edge of a routed
// campus. Each access LAN gets one RouterIface — a station on the LAN's
// switch that answers ARP for its own address, proxy-ARPs for every
// remote subnet it can reach (so host stacks need no routing table: they
// resolve any off-subnet address and the router answers with its own
// MAC), and forwards IPv4 across Trunks to the other LANs' interfaces.
//
// A Trunk is the only path between LANs, and deliberately so: in a
// sharded campus each LAN lives in its own time domain (sim shard), and
// the trunk's sim.CrossLink latency is exactly the conservative lookahead
// bound that lets the shards run in parallel. Everything that crosses a
// trunk is a freshly encoded byte slice — never a *frame.Frame — so no
// frame or arena memory is ever shared between shards.
package netsim

import (
	"time"

	"repro/internal/ethaddr"
	"repro/internal/frame"
	"repro/internal/ipv4pkt"
	"repro/internal/sim"

	"repro/internal/arppkt"
)

// RouterStats counts one interface's forwarding work.
type RouterStats struct {
	ARPReplies   uint64 // replies for the interface's own address
	ProxyReplies uint64 // proxy-ARP replies for routed subnets
	ForwardedOut uint64 // IPv4 packets sent out a trunk
	DeliveredIn  uint64 // trunk arrivals delivered onto the local LAN
	QueuedAwait  uint64 // arrivals parked awaiting local ARP resolution
	DroppedNoRte uint64 // no route to destination
	DroppedTTL   uint64 // TTL expired in transit
	DroppedARP   uint64 // resolution failed after retries
}

// routeEntry maps a remote subnet to the trunk that reaches it.
type routeEntry struct {
	subnet ethaddr.Subnet
	trunk  *Trunk
}

// awaitingPacket is one trunk arrival queued until the local destination's
// MAC resolves.
type awaitingPacket struct {
	dst ethaddr.IPv4
	buf []byte
}

// RouterIface is one LAN-facing interface of the campus router fabric.
// It owns a NIC attached to the LAN's switch, a private ARP cache for the
// local subnet, and a route table of trunks to the other LANs.
//
// The interface's cache learns from traffic like any ARP speaker — which
// means it can be poisoned like one: an attacker claiming the victim's
// address redirects the victim's inbound cross-LAN traffic too. That is
// deliberate; the router is part of the attack surface the schemes defend.
type RouterIface struct {
	sched   *sim.Scheduler
	nic     *NIC
	name    string
	ip      ethaddr.IPv4
	subnet  ethaddr.Subnet
	arp     map[ethaddr.IPv4]ethaddr.MAC
	pending map[ethaddr.IPv4][]awaitingPacket
	tries   map[ethaddr.IPv4]int
	routes  []routeEntry
	stats   RouterStats
}

// resolveRetry/resolveMax mirror the host stack's resolution pacing: one
// ARP request per second, three tries, then the queued packets drop.
const (
	resolveRetry = time.Second
	resolveMax   = 3
)

// NewRouterIface builds the interface on an attached NIC. ip must be
// inside subnet; by campus convention it is the subnet's .254 gateway
// address, the address every host resolves for off-LAN traffic.
func NewRouterIface(s *sim.Scheduler, name string, nic *NIC, ip ethaddr.IPv4, subnet ethaddr.Subnet) *RouterIface {
	r := &RouterIface{
		sched:   s,
		nic:     nic,
		name:    name,
		ip:      ip,
		subnet:  subnet,
		arp:     make(map[ethaddr.IPv4]ethaddr.MAC),
		pending: make(map[ethaddr.IPv4][]awaitingPacket),
		tries:   make(map[ethaddr.IPv4]int),
	}
	nic.SetHandler(r.handleFrame)
	return r
}

// Name returns the interface name.
func (r *RouterIface) Name() string { return r.name }

// IP returns the interface's address (the LAN's gateway address).
func (r *RouterIface) IP() ethaddr.IPv4 { return r.ip }

// MAC returns the interface's hardware address.
func (r *RouterIface) MAC() ethaddr.MAC { return r.nic.MAC() }

// NIC returns the underlying interface.
func (r *RouterIface) NIC() *NIC { return r.nic }

// Subnet returns the local subnet.
func (r *RouterIface) Subnet() ethaddr.Subnet { return r.subnet }

// Stats returns a copy of the forwarding counters.
func (r *RouterIface) Stats() RouterStats { return r.stats }

// AddRoute announces that subnet is reachable through trunk.
func (r *RouterIface) AddRoute(subnet ethaddr.Subnet, trunk *Trunk) {
	r.routes = append(r.routes, routeEntry{subnet: subnet, trunk: trunk})
}

// Lookup returns the interface's current binding for ip — the router-side
// ground truth the campus poisoning census reads.
func (r *RouterIface) Lookup(ip ethaddr.IPv4) (ethaddr.MAC, bool) {
	mac, ok := r.arp[ip]
	return mac, ok
}

// FlushBindings clears the interface's learned ARP table — the router-side
// analogue of a switch CAM flush, exposed as a campus fault hook. Queued
// packets and in-flight resolutions are left alone: the next delivery simply
// re-resolves, exactly what a real cache wipe causes. Returns how many
// bindings were dropped.
func (r *RouterIface) FlushBindings() int {
	n := len(r.arp)
	for ip := range r.arp {
		delete(r.arp, ip)
	}
	return n
}

// route finds the trunk covering dst, nil when no route matches.
func (r *RouterIface) route(dst ethaddr.IPv4) *Trunk {
	for i := range r.routes {
		if r.routes[i].subnet.Contains(dst) {
			return r.routes[i].trunk
		}
	}
	return nil
}

// handleFrame is the NIC receive path: ARP speaker + IPv4 forwarder.
func (r *RouterIface) handleFrame(f *frame.Frame) {
	switch f.Type {
	case frame.TypeARP:
		r.handleARP(f)
	case frame.TypeIPv4:
		r.handleIPv4(f)
	}
}

// handleARP answers requests for the interface's address, proxy-answers
// for every routed subnet, and learns local sender bindings.
func (r *RouterIface) handleARP(f *frame.Frame) {
	p, err := arppkt.DecodeFrame(f)
	if err != nil {
		return
	}
	// Learn the sender like any ARP speaker (requests, replies and
	// gratuitous announcements alike), flushing any packets queued on it.
	if sip, smac := p.Binding(); !sip.IsZero() && r.subnet.Contains(sip) && smac != r.nic.MAC() {
		r.learn(sip, smac)
	}
	if p.Op != arppkt.OpRequest {
		return
	}
	target := p.TargetIP
	switch {
	case target == r.ip:
		r.stats.ARPReplies++
	case !r.subnet.Contains(target) && r.route(target) != nil:
		// Proxy ARP: the host asked for an off-subnet address this
		// interface can reach; claim it so the host's flat-LAN resolver
		// needs no routing table.
		r.stats.ProxyReplies++
	default:
		return
	}
	reply := arppkt.NewReply(r.nic.MAC(), target, p.SenderMAC, p.SenderIP)
	r.nic.Send(&frame.Frame{
		Dst: p.SenderMAC, Src: r.nic.MAC(), Type: frame.TypeARP,
		Payload: reply.Encode(),
	})
}

// learn records a local binding and flushes packets queued on it.
func (r *RouterIface) learn(ip ethaddr.IPv4, mac ethaddr.MAC) {
	r.arp[ip] = mac
	delete(r.tries, ip)
	queued := r.pending[ip]
	if len(queued) == 0 {
		return
	}
	delete(r.pending, ip)
	for _, q := range queued {
		r.emitLocal(mac, q.buf)
	}
}

// handleIPv4 forwards packets addressed to the interface's MAC. Local
// destinations hairpin back onto the LAN (a host that proxy-resolved a
// local peer — rare but legal); everything else routes out a trunk.
func (r *RouterIface) handleIPv4(f *frame.Frame) {
	if f.Dst != r.nic.MAC() {
		return // broadcast or promiscuous noise; routers forward unicast only
	}
	var pkt ipv4pkt.Packet // stack-held: the re-encode below copies out
	if ipv4pkt.DecodeInto(&pkt, f.Payload) != nil || pkt.Dst == r.ip {
		return // malformed, or addressed to the router itself
	}
	if pkt.TTL <= 1 {
		r.stats.DroppedTTL++
		return
	}
	pkt.TTL--
	if r.subnet.Contains(pkt.Dst) {
		// Re-encoding copies the payload out of the received frame, so the
		// hairpinned bytes are private to this interface.
		r.deliverLocal(pkt.Dst, pkt.Encode())
		return
	}
	trunk := r.route(pkt.Dst)
	if trunk == nil {
		r.stats.DroppedNoRte++
		return
	}
	r.stats.ForwardedOut++
	// Encode() builds a fresh buffer (header + copied payload): the one
	// allocation that buys shard isolation for the bytes crossing the trunk.
	trunk.Send(pkt.Dst, pkt.Encode())
}

// injectFromTrunk is the trunk's delivery callback, running on this
// interface's shard: deliver the routed packet onto the local LAN.
func (r *RouterIface) injectFromTrunk(dst ethaddr.IPv4, buf []byte) {
	r.stats.DeliveredIn++
	r.deliverLocal(dst, buf)
}

// deliverLocal sends an encoded IPv4 packet to a local destination,
// resolving its MAC first when unknown.
func (r *RouterIface) deliverLocal(dst ethaddr.IPv4, buf []byte) {
	if mac, ok := r.arp[dst]; ok {
		r.emitLocal(mac, buf)
		return
	}
	r.stats.QueuedAwait++
	r.pending[dst] = append(r.pending[dst], awaitingPacket{dst: dst, buf: buf})
	if len(r.pending[dst]) == 1 {
		r.resolve(dst)
	}
}

// resolve broadcasts a who-has for dst and re-arms itself until the reply
// lands or the tries run out.
func (r *RouterIface) resolve(dst ethaddr.IPv4) {
	if _, done := r.arp[dst]; done || len(r.pending[dst]) == 0 {
		return
	}
	if r.tries[dst] >= resolveMax {
		r.stats.DroppedARP += uint64(len(r.pending[dst]))
		delete(r.pending, dst)
		delete(r.tries, dst)
		return
	}
	r.tries[dst]++
	req := arppkt.NewRequest(r.nic.MAC(), r.ip, dst)
	r.nic.Send(&frame.Frame{
		Dst: ethaddr.BroadcastMAC, Src: r.nic.MAC(), Type: frame.TypeARP,
		Payload: req.Encode(),
	})
	r.sched.After(resolveRetry, func() { r.resolve(dst) })
}

// emitLocal puts an encoded packet on the wire toward a resolved MAC.
func (r *RouterIface) emitLocal(mac ethaddr.MAC, buf []byte) {
	r.nic.Send(&frame.Frame{
		Dst: mac, Src: r.nic.MAC(), Type: frame.TypeIPv4, Payload: buf,
	})
}

// Trunk is a unidirectional inter-LAN uplink: an edge of the campus
// backbone from one router interface's shard to another's. Send carries
// only freshly encoded bytes, so the two shards share no frame memory.
type Trunk struct {
	cl   *sim.CrossLink
	dst  *RouterIface
	down bool
	stat TrunkStats
}

// TrunkStats counts one trunk edge's fault behavior.
type TrunkStats struct {
	// PartitionDropped counts packets offered to the trunk while it was
	// administratively partitioned.
	PartitionDropped uint64
}

// NewTrunk wires a trunk over a cross-shard link toward dst. The link's
// latency is the backbone's one-way delay — and, being a sim.CrossLink,
// the lookahead bound the sharded engine synchronizes on.
func NewTrunk(cl *sim.CrossLink, dst *RouterIface) *Trunk {
	return &Trunk{cl: cl, dst: dst}
}

// SetDown administratively partitions (or restores) the trunk. The flag is
// owned by the sending shard — it is read only inside Send, which runs in
// the source LAN's time domain — so fault plans toggle it from there. The
// underlying CrossLink stays wired either way: a partitioned trunk still
// bounds the sharded engine's lookahead, it just carries nothing.
func (t *Trunk) SetDown(v bool) { t.down = v }

// Down reports whether the trunk is partitioned.
func (t *Trunk) Down() bool { return t.down }

// Stats returns a copy of the trunk's fault counters.
func (t *Trunk) Stats() TrunkStats { return t.stat }

// Send ships an encoded IPv4 packet for dst across the trunk; it arrives
// at the far interface after the trunk latency. A partitioned trunk eats
// the packet — the backbone edge is simply gone for its duration.
func (t *Trunk) Send(dst ethaddr.IPv4, buf []byte) {
	if t.down {
		t.stat.PartitionDropped++
		return
	}
	dstIface := t.dst
	t.cl.Send(func() { dstIface.injectFromTrunk(dst, buf) })
}
