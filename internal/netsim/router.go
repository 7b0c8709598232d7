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
// bound that lets the shards run in parallel. What crosses a trunk is an
// encoded packet, never a *frame.Frame: the receiving interface copies its
// bytes into a frame of its own, so no frame memory is shared between
// shards.
package netsim

import (
	"slices"
	"time"

	"repro/internal/arppkt"
	"repro/internal/denseidx"
	"repro/internal/ethaddr"
	"repro/internal/frame"
	"repro/internal/ipv4pkt"
	"repro/internal/sim"
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

// RouterIface is one LAN-facing interface of the campus router fabric.
// It owns a NIC attached to the LAN's switch, a private ARP cache for the
// local subnet, and a route table of trunks to the other LANs.
//
// The interface's cache learns from traffic like any ARP speaker — which
// means it can be poisoned like one: an attacker claiming the victim's
// address redirects the victim's inbound cross-LAN traffic too. That is
// deliberate; the router is part of the attack surface the schemes defend.
type RouterIface struct {
	sched  *sim.Scheduler
	nic    *NIC
	name   string
	ip     ethaddr.IPv4
	subnet ethaddr.Subnet
	arps   *arppkt.Arena  // the scheduler's ARP frame arena
	dgrams *DatagramArena // the scheduler's IPv4 frame and trunk packet arena
	cache  *transitCache  // retry shells and parked tables
	routerTables
	routes []routeEntry
	stats  RouterStats
}

// routerTables is an interface's ARP state in the dense-slice layout the
// host cache and the CAM use: each table is a slice in insertion order
// (swap-removed on delete) with a denseidx.Index from address to position.
// Recycle parks the tables on the scheduler for the next interface built
// there, so a campus trial does not regrow them from empty.
type routerTables struct {
	arp       []routerBinding
	arpIndex  denseidx.Index
	pend      []routerPending // in-flight resolutions
	pendIndex denseidx.Index
}

// routerBinding is one learned local binding.
type routerBinding struct {
	ip  ethaddr.IPv4
	mac ethaddr.MAC
}

// routerPending is one in-flight resolution: the who-has requests sent so
// far and the arrivals queued until the binding lands, as arena frames
// whose Dst is set when they are sent. A removed entry's queue storage
// stays in the slice's spare tail for the next resolution.
type routerPending struct {
	ip    ethaddr.IPv4
	tries int
	queue []*frame.Frame
}

// resolveRetry/resolveMax mirror the host stack's resolution pacing: one
// ARP request per second, three tries, then the queued packets drop.
const (
	resolveRetry = time.Second
	resolveMax   = 3
)

// NewRouterIface builds the interface on an attached NIC. ip must be
// inside subnet; by campus convention it is the subnet's .254 gateway
// address, the address every host resolves for off-LAN traffic. Tables
// parked on the scheduler by a recycled interface are taken over.
func NewRouterIface(s *sim.Scheduler, name string, nic *NIC, ip ethaddr.IPv4, subnet ethaddr.Subnet) *RouterIface {
	r := &RouterIface{
		sched:  s,
		nic:    nic,
		name:   name,
		ip:     ip,
		subnet: subnet,
		arps:   arppkt.ArenaOf(s),
		dgrams: DatagramArenaOf(s),
		cache:  cacheOf(s),
	}
	if n := len(r.cache.routers); n > 0 {
		r.routerTables = r.cache.routers[n-1]
		r.cache.routers[n-1] = routerTables{}
		r.cache.routers = r.cache.routers[:n-1]
	} else {
		r.arpIndex.Init(0)
		r.pendIndex.Init(0)
	}
	nic.SetHandler(r.handleFrame)
	return r
}

// maxParkedRouters bounds the router tables one scheduler keeps parked; a
// campus shard builds one interface per trial.
const maxParkedRouters = 4

// Recycle parks the interface's tables, emptied, on its scheduler, where
// the next interface built there takes them over. labnet calls it when a
// campus trial is torn down; the interface must not be used afterwards,
// and a second call does nothing. The parked tables hold no frame and no
// pointer into the old topology.
func (r *RouterIface) Recycle() {
	c := r.cache
	if c == nil {
		return
	}
	if len(c.routers) < maxParkedRouters {
		t := r.routerTables
		t.arp = t.arp[:0]
		t.arpIndex.Clear()
		for i := range t.pend { // spare entries' queues were cleared on drop
			clear(t.pend[i].queue)
			t.pend[i].queue = t.pend[i].queue[:0]
		}
		t.pend = t.pend[:0]
		t.pendIndex.Clear()
		c.routers = append(c.routers, t)
	}
	r.routerTables, r.cache = routerTables{}, nil
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

// ReserveRoutes sizes the route table for n routes, so a mesh's AddRoute
// calls do not regrow it.
func (r *RouterIface) ReserveRoutes(n int) {
	r.routes = slices.Grow(r.routes, n)
}

// AddRoute announces that subnet is reachable through trunk.
func (r *RouterIface) AddRoute(subnet ethaddr.Subnet, trunk *Trunk) {
	r.routes = append(r.routes, routeEntry{subnet: subnet, trunk: trunk})
}

// ipKey is an address's key in the interface's indexes.
func ipKey(ip ethaddr.IPv4) uint64 { return uint64(ip.Uint32()) }

// Lookup returns the interface's current binding for ip — the router-side
// ground truth the campus poisoning census reads.
func (r *RouterIface) Lookup(ip ethaddr.IPv4) (ethaddr.MAC, bool) {
	if i := r.arpIndex.Get(ipKey(ip)); i >= 0 {
		return r.arp[i].mac, true
	}
	return ethaddr.MAC{}, false
}

// FlushBindings clears the interface's learned ARP table — the router-side
// analogue of a switch CAM flush, exposed as a campus fault hook. Queued
// packets and in-flight resolutions are left alone: the next delivery simply
// re-resolves, exactly what a real cache wipe causes. Returns how many
// bindings were dropped.
func (r *RouterIface) FlushBindings() int {
	n := len(r.arp)
	r.arp = r.arp[:0]
	r.arpIndex.Clear()
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
	// Like a host cache, never bind a broadcast, multicast or zero MAC:
	// that would turn the station's routed traffic into floods.
	if sip, smac := p.Binding(); !sip.IsZero() && r.subnet.Contains(sip) && smac.IsUnicast() && smac != r.nic.MAC() {
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
	r.nic.Send(r.arps.NewFrame(reply, r.nic.MAC(), p.SenderMAC))
}

// learn records a local binding and flushes packets queued on it.
func (r *RouterIface) learn(ip ethaddr.IPv4, mac ethaddr.MAC) {
	k := ipKey(ip)
	if i := r.arpIndex.Get(k); i >= 0 {
		r.arp[i].mac = mac
	} else {
		r.arpIndex.Set(k, len(r.arp))
		r.arp = append(r.arp, routerBinding{ip: ip, mac: mac})
	}
	i := r.pendIndex.Get(k)
	if i < 0 {
		return
	}
	for _, f := range r.pend[i].queue {
		r.emitLocal(mac, f)
	}
	r.dropPending(i)
}

// dropPending removes resolution i, keeping its queue's storage in the
// slice's spare tail.
func (t *routerTables) dropPending(i int) {
	q := t.pend[i].queue
	clear(q)
	t.pendIndex.Del(ipKey(t.pend[i].ip))
	last := len(t.pend) - 1
	if i != last {
		t.pend[i] = t.pend[last]
		t.pendIndex.Set(ipKey(t.pend[i].ip), i)
	}
	t.pend[last] = routerPending{queue: q[:0]}
	t.pend = t.pend[:last]
}

// pending returns ip's in-flight resolution, starting one when absent.
func (t *routerTables) pending(ip ethaddr.IPv4) *routerPending {
	k := ipKey(ip)
	if i := t.pendIndex.Get(k); i >= 0 {
		return &t.pend[i]
	}
	n := len(t.pend)
	if n < cap(t.pend) {
		t.pend = t.pend[:n+1] // reuse the spare entry's queue storage
	} else {
		t.pend = append(t.pend, routerPending{})
	}
	p := &t.pend[n]
	p.ip, p.tries, p.queue = ip, 0, p.queue[:0]
	t.pendIndex.Set(k, n)
	return p
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
		out := r.dgrams.Frame(ethaddr.MAC{}, r.nic.MAC())
		out.Payload = pkt.AppendEncode(out.Payload)
		r.deliverLocal(pkt.Dst, out)
		return
	}
	trunk := r.route(pkt.Dst)
	if trunk == nil {
		r.stats.DroppedNoRte++
		return
	}
	r.stats.ForwardedOut++
	trunk.send(r.dgrams, &pkt)
}

// injectFromTrunk is a trunk packet's delivery, running on this
// interface's shard: copy the routed packet into a frame from this shard's
// own arena and deliver it onto the local LAN.
func (r *RouterIface) injectFromTrunk(dst ethaddr.IPv4, buf []byte) {
	r.stats.DeliveredIn++
	f := r.dgrams.Frame(ethaddr.MAC{}, r.nic.MAC())
	f.Payload = append(f.Payload, buf...)
	r.deliverLocal(dst, f)
}

// deliverLocal sends an IPv4 frame (its Dst still unset) to a local
// destination, resolving its MAC first when unknown.
func (r *RouterIface) deliverLocal(dst ethaddr.IPv4, f *frame.Frame) {
	if mac, ok := r.Lookup(dst); ok {
		r.emitLocal(mac, f)
		return
	}
	r.stats.QueuedAwait++
	p := r.pending(dst)
	p.queue = append(p.queue, f)
	if len(p.queue) == 1 && r.resolve(dst) {
		r.retryLater(r.cache.retryShell(r, dst))
	}
}

// resolve broadcasts a who-has for dst and reports whether a retry should
// follow, until the reply lands or the tries run out.
func (r *RouterIface) resolve(dst ethaddr.IPv4) bool {
	k := ipKey(dst)
	i := r.pendIndex.Get(k)
	if i < 0 || r.arpIndex.Get(k) >= 0 {
		return false
	}
	p := &r.pend[i]
	if p.tries >= resolveMax {
		r.stats.DroppedARP += uint64(len(p.queue))
		r.dropPending(i)
		return false
	}
	p.tries++
	req := arppkt.NewRequest(r.nic.MAC(), r.ip, dst)
	r.nic.Send(r.arps.NewFrame(req, r.nic.MAC(), ethaddr.BroadcastMAC))
	return true
}

// retryLater arms t to re-resolve after resolveRetry.
func (r *RouterIface) retryLater(t *routerRetry) { r.sched.AfterTask(resolveRetry, t) }

// routerRetry is one resolution's retry chain: a sim.Task that re-runs
// resolve each resolveRetry until it reports done. A chain outlives its
// resolution's table entry (a reply lands before the next retry fires), so
// the shell is owned by its pending event alone and goes back to the
// scheduler's free list only when it fires for the last time.
type routerRetry struct {
	next *routerRetry
	r    *RouterIface
	ip   ethaddr.IPv4
}

// Run implements sim.Task.
func (t *routerRetry) Run() {
	r := t.r
	if r.resolve(t.ip) {
		r.retryLater(t)
		return
	}
	c := r.cache
	t.r = nil // a parked shell pins no interface
	t.next, c.retries = c.retries, t
}

// retryShell takes a retry shell off the free list, or makes one.
func (c *transitCache) retryShell(r *RouterIface, ip ethaddr.IPv4) *routerRetry {
	t := c.retries
	if t == nil {
		t = &routerRetry{}
	} else {
		c.retries, t.next = t.next, nil
	}
	t.r, t.ip = r, ip
	return t
}

// emitLocal puts an IPv4 frame on the wire toward a resolved MAC.
func (r *RouterIface) emitLocal(mac ethaddr.MAC, f *frame.Frame) {
	f.Dst = mac
	r.nic.Send(f)
}

// Trunk is a unidirectional inter-LAN uplink: an edge of the campus
// backbone from one router interface's shard to another's. It carries
// only encoded packets, so the two shards share no frame memory.
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
// the lookahead bound the sharded engine synchronizes on. The trunk is
// returned by value so a mesh can keep all of its trunks in one slice.
func NewTrunk(cl *sim.CrossLink, dst *RouterIface) Trunk {
	return Trunk{cl: cl, dst: dst}
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

// send ships pkt across the trunk, encoded into a trunk packet from the
// sending shard's arena a; it arrives at the far interface after the trunk
// latency. A partitioned trunk eats the packet — the backbone edge is
// simply gone for its duration.
func (t *Trunk) send(a *DatagramArena, pkt *ipv4pkt.Packet) {
	if t.down {
		t.stat.PartitionDropped++
		return
	}
	t.cl.SendTask(a.packet(t.dst, pkt))
}
