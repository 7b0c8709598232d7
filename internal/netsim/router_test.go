package netsim_test

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"repro/internal/arppkt"
	"repro/internal/ethaddr"
	"repro/internal/frame"
	"repro/internal/ipv4pkt"
	"repro/internal/netsim"
	"repro/internal/sim"
	"repro/internal/stack"
)

// udpFrame hand-crafts a UDP-in-IPv4 frame with an explicit TTL, bypassing
// the host stack's send path.
func udpFrame(srcMAC, dstMAC ethaddr.MAC, src, dst ethaddr.IPv4, sp, dp uint16, payload []byte, ttl uint8) *frame.Frame {
	u := ipv4pkt.UDP{SrcPort: sp, DstPort: dp, Payload: payload}
	p := ipv4pkt.Packet{TTL: ttl, Proto: ipv4pkt.ProtoUDP, Src: src, Dst: dst, Payload: u.Encode()}
	return &frame.Frame{Dst: dstMAC, Src: srcMAC, Type: frame.TypeIPv4, Payload: p.Encode()}
}

// twoLAN wires the minimal routed campus: two shards, each a switch with
// one host and a router interface, trunks both ways over 1ms cross links.
type twoLAN struct {
	ss     *sim.ShardedScheduler
	hosts  [2]*stack.Host
	ifaces [2]*netsim.RouterIface
	trunks [2]netsim.Trunk // trunks[i] leaves LAN i
}

func buildTwoLAN(seed int64, workers int) *twoLAN {
	ss := sim.NewSharded(seed, 2)
	ss.SetWorkers(workers)
	tl := &twoLAN{ss: ss}
	subnets := [2]ethaddr.Subnet{
		ethaddr.MustParseSubnet("10.0.0.0/16"),
		ethaddr.MustParseSubnet("10.1.0.0/16"),
	}
	for i := 0; i < 2; i++ {
		sh := ss.Shard(i)
		gen := ethaddr.NewGen(sim.ShardSeed(seed, i))
		sw := netsim.NewSwitch(sh)

		hostNIC := netsim.NewNIC(sh, gen.SeqMAC())
		sw.AddPort().Attach(hostNIC)
		tl.hosts[i] = stack.NewHost(sh, fmt.Sprintf("h%d", i), hostNIC, subnets[i].Host(1))
		tl.hosts[i].Start()

		rtrNIC := netsim.NewNIC(sh, gen.SeqMAC())
		sw.AddPort().Attach(rtrNIC)
		tl.ifaces[i] = netsim.NewRouterIface(sh, fmt.Sprintf("rtr%d", i), rtrNIC,
			subnets[i].Host(254), subnets[i])
	}
	for i := 0; i < 2; i++ {
		j := 1 - i
		tl.trunks[i] = netsim.NewTrunk(ss.Link(i, j, time.Millisecond), tl.ifaces[j])
		tl.ifaces[i].AddRoute(tl.ifaces[j].Subnet(), &tl.trunks[i])
	}
	return tl
}

// TestRouterCrossLANDelivery: a UDP datagram sent to an off-subnet address
// proxy-resolves to the local router interface, crosses the trunk, and is
// delivered to the remote host with the payload intact.
func TestRouterCrossLANDelivery(t *testing.T) {
	tl := buildTwoLAN(5, 1)
	var got []string
	tl.hosts[1].HandleUDP(9999, func(src ethaddr.IPv4, srcPort uint16, payload []byte) {
		got = append(got, fmt.Sprintf("%s:%d %q @%v", src, srcPort, payload, tl.ss.Shard(1).Now()))
	})
	tl.ss.Shard(0).At(100*time.Millisecond, func() {
		tl.hosts[0].SendUDP(tl.hosts[1].IP(), 1234, 9999, []byte("cross-lan"))
	})
	if err := tl.ss.RunUntil(5 * time.Second); err != nil {
		t.Fatalf("RunUntil: %v", err)
	}
	if len(got) != 1 {
		t.Fatalf("remote host received %d datagrams, want 1", len(got))
	}
	if want := `10.0.0.1:1234 "cross-lan"`; !strings.HasPrefix(got[0], want) {
		t.Fatalf("delivery = %s, want prefix %s", got[0], want)
	}

	s0, s1 := tl.ifaces[0].Stats(), tl.ifaces[1].Stats()
	if s0.ProxyReplies == 0 {
		t.Errorf("LAN0 interface never proxy-replied: %+v", s0)
	}
	if s0.ForwardedOut != 1 {
		t.Errorf("LAN0 ForwardedOut = %d, want 1", s0.ForwardedOut)
	}
	if s1.DeliveredIn != 1 {
		t.Errorf("LAN1 DeliveredIn = %d, want 1", s1.DeliveredIn)
	}
	if s1.QueuedAwait != 1 {
		t.Errorf("LAN1 QueuedAwait = %d, want 1 (first arrival needs resolution)", s1.QueuedAwait)
	}
	if tl.ss.CrossMessages() == 0 {
		t.Error("no messages crossed the shard boundary")
	}

	// The proxy reply seeded h0's cache with the remote IP → router MAC.
	if mac, ok := tl.hosts[0].Cache().Lookup(tl.hosts[1].IP()); !ok || mac != tl.ifaces[0].MAC() {
		t.Errorf("h0 cache for remote IP = %v ok=%v, want router MAC %v", mac, ok, tl.ifaces[0].MAC())
	}
	// Delivery-side resolution learned the local host's real binding.
	if mac, ok := tl.ifaces[1].Lookup(tl.hosts[1].IP()); !ok || mac != tl.hosts[1].MAC() {
		t.Errorf("rtr1 binding for h1 = %v ok=%v, want %v", mac, ok, tl.hosts[1].MAC())
	}
}

// TestRouterTTLExpiry: a packet arriving with TTL 1 is dropped, not
// forwarded.
func TestRouterTTLExpiry(t *testing.T) {
	tl := buildTwoLAN(6, 1)
	delivered := false
	tl.hosts[1].HandleUDP(7, func(ethaddr.IPv4, uint16, []byte) { delivered = true })
	tl.ss.Shard(0).At(50*time.Millisecond, func() {
		// Resolve the router via proxy ARP first, then hand-craft a TTL-1
		// packet through the host's raw IPv4 send path.
		tl.hosts[0].Resolve(tl.hosts[1].IP(), func(mac ethaddr.MAC, ok bool) {
			if !ok {
				t.Error("proxy resolution failed")
				return
			}
			f := udpFrame(tl.hosts[0].MAC(), mac,
				tl.hosts[0].IP(), tl.hosts[1].IP(), 1, 7, []byte("stale"), 1)
			tl.hosts[0].SendFrame(f)
		})
	})
	if err := tl.ss.RunUntil(3 * time.Second); err != nil {
		t.Fatalf("RunUntil: %v", err)
	}
	if delivered {
		t.Fatal("TTL-1 packet crossed the router")
	}
	if s := tl.ifaces[0].Stats(); s.DroppedTTL != 1 {
		t.Fatalf("DroppedTTL = %d, want 1", s.DroppedTTL)
	}
}

// TestRouterNoRoute: packets for a subnet no trunk covers are counted and
// dropped.
func TestRouterNoRoute(t *testing.T) {
	tl := buildTwoLAN(7, 1)
	tl.ss.Shard(0).At(50*time.Millisecond, func() {
		f := udpFrame(tl.hosts[0].MAC(), tl.ifaces[0].MAC(),
			tl.hosts[0].IP(), ethaddr.MustParseIPv4("172.16.0.9"), 1, 7, []byte("lost"), 64)
		tl.hosts[0].SendFrame(f)
	})
	if err := tl.ss.RunUntil(time.Second); err != nil {
		t.Fatalf("RunUntil: %v", err)
	}
	if s := tl.ifaces[0].Stats(); s.DroppedNoRte != 1 {
		t.Fatalf("DroppedNoRte = %d, want 1", s.DroppedNoRte)
	}
}

// TestRouterPoisonable: the interface cache learns from spoofed traffic —
// an attacker claiming the victim's address hijacks inbound routed flows.
func TestRouterPoisonable(t *testing.T) {
	tl := buildTwoLAN(8, 1)
	victim, rtr := tl.hosts[1], tl.ifaces[1]
	evil := ethaddr.MustParseMAC("0e:66:66:66:66:66")
	// Seed the genuine binding, then spoof over it with a gratuitous reply
	// injected straight onto LAN1's wire.
	tl.ss.Shard(1).At(10*time.Millisecond, func() { victim.SendGratuitous() })
	tl.ss.Shard(1).At(20*time.Millisecond, func() {
		g := arppkt.NewGratuitousReply(evil, victim.IP())
		victim.SendFrame(&frame.Frame{
			Dst: ethaddr.BroadcastMAC, Src: evil, Type: frame.TypeARP,
			Payload: g.Encode(),
		})
	})
	if err := tl.ss.RunUntil(time.Second); err != nil {
		t.Fatalf("RunUntil: %v", err)
	}
	if mac, ok := rtr.Lookup(victim.IP()); !ok || mac != evil {
		t.Fatalf("router binding after spoof = %v ok=%v, want attacker %v", mac, ok, evil)
	}
}

// TestRouterIgnoresNonUnicastSender: like a host cache, the interface never
// binds a broadcast, multicast or zero sender MAC. A forged claim with one
// would otherwise turn the station's routed traffic into LAN floods.
func TestRouterIgnoresNonUnicastSender(t *testing.T) {
	tl := buildTwoLAN(8, 1)
	victim, rtr := tl.hosts[1], tl.ifaces[1]
	unbound := rtr.Subnet().Host(77)
	tl.ss.Shard(1).At(10*time.Millisecond, func() { victim.SendGratuitous() })
	for k, bad := range []ethaddr.MAC{ethaddr.BroadcastMAC, ethaddr.MustParseMAC("01:00:5e:00:00:01"), {}} {
		tl.ss.Shard(1).At(time.Duration(20+k)*time.Millisecond, func() {
			for _, ip := range []ethaddr.IPv4{victim.IP(), unbound} {
				g := arppkt.NewGratuitousReply(bad, ip)
				victim.SendFrame(&frame.Frame{
					Dst: ethaddr.BroadcastMAC, Src: victim.MAC(), Type: frame.TypeARP,
					Payload: g.Encode(),
				})
			}
		})
	}
	if err := tl.ss.RunUntil(time.Second); err != nil {
		t.Fatalf("RunUntil: %v", err)
	}
	if mac, ok := rtr.Lookup(victim.IP()); !ok || mac != victim.MAC() {
		t.Fatalf("router binding after non-unicast claims = %v ok=%v, want the victim's %v", mac, ok, victim.MAC())
	}
	if mac, ok := rtr.Lookup(unbound); ok {
		t.Fatalf("router bound %v to non-unicast %v", unbound, mac)
	}
}

// TestRouterWidthParity: the routed two-LAN exchange is byte-identical at
// worker widths 1 and 2.
func TestRouterWidthParity(t *testing.T) {
	run := func(workers int) string {
		tl := buildTwoLAN(5, workers)
		// One log per host: each is written only from its own shard, which
		// may run concurrently with the other at width 2.
		var logs [2]strings.Builder
		for i := 0; i < 2; i++ {
			i := i
			tl.hosts[i].HandleUDP(9999, func(src ethaddr.IPv4, srcPort uint16, payload []byte) {
				fmt.Fprintf(&logs[i], "h%d got %q from %s @%v\n", i, payload, src, tl.ss.Shard(i).Now())
			})
			peer := tl.hosts[1-i]
			h := tl.hosts[i]
			sh := tl.ss.Shard(i)
			n := 0
			sh.Every(time.Duration(90+i*30)*time.Millisecond, func() {
				n++
				h.SendUDP(peer.IP(), 1234, 9999, []byte(fmt.Sprintf("m%d-%d", i, n)))
			})
		}
		if err := tl.ss.RunUntil(3 * time.Second); err != nil {
			t.Fatalf("RunUntil: %v", err)
		}
		return fmt.Sprintf("%s%sstats %+v %+v cross %d\n", logs[0].String(), logs[1].String(),
			tl.ifaces[0].Stats(), tl.ifaces[1].Stats(), tl.ss.CrossMessages())
	}
	want := run(1)
	if !strings.Contains(want, "h1 got") || !strings.Contains(want, "h0 got") {
		t.Fatalf("bidirectional traffic missing:\n%s", want)
	}
	if got := run(2); got != want {
		t.Fatalf("width 2 diverged\nwidth1:\n%s\nwidth2:\n%s", want, got)
	}
}

// TestTrunkPartitionDropsCrossLAN: a partitioned trunk eats everything
// offered to it — counted, not delivered — and restoring it lets traffic
// flow again. The CrossLink stays wired throughout, so the sharded
// engine's lookahead bound is untouched.
func TestTrunkPartitionDropsCrossLAN(t *testing.T) {
	tl := buildTwoLAN(9, 1)
	var got int
	tl.hosts[1].HandleUDP(9999, func(ethaddr.IPv4, uint16, []byte) { got++ })
	send := func() {
		tl.hosts[0].SendUDP(tl.hosts[1].IP(), 1234, 9999, []byte("probe"))
	}
	tl.ss.Shard(0).At(100*time.Millisecond, send) // before the partition
	tl.ss.Shard(0).At(500*time.Millisecond, func() { tl.trunks[0].SetDown(true) })
	tl.ss.Shard(0).At(600*time.Millisecond, send) // into the partition
	tl.ss.Shard(0).At(900*time.Millisecond, func() { tl.trunks[0].SetDown(false) })
	tl.ss.Shard(0).At(time.Second, send) // after restoration
	if err := tl.ss.RunUntil(3 * time.Second); err != nil {
		t.Fatalf("RunUntil: %v", err)
	}
	if got != 2 {
		t.Fatalf("delivered %d datagrams, want 2 (one eaten by the partition)", got)
	}
	if st := tl.trunks[0].Stats(); st.PartitionDropped != 1 {
		t.Fatalf("PartitionDropped = %d, want 1", st.PartitionDropped)
	}
}

// TestRouterFlushBindings: flushing wipes the learned table and reports the
// count; the next delivery re-resolves and repopulates it.
func TestRouterFlushBindings(t *testing.T) {
	tl := buildTwoLAN(10, 1)
	var got int
	tl.hosts[1].HandleUDP(9999, func(ethaddr.IPv4, uint16, []byte) { got++ })
	send := func() {
		tl.hosts[0].SendUDP(tl.hosts[1].IP(), 1234, 9999, []byte("probe"))
	}
	tl.ss.Shard(0).At(100*time.Millisecond, send)
	flushed := -1
	tl.ss.Shard(1).At(2*time.Second, func() { flushed = tl.ifaces[1].FlushBindings() })
	tl.ss.Shard(0).At(3*time.Second, send)
	if err := tl.ss.RunUntil(6 * time.Second); err != nil {
		t.Fatalf("RunUntil: %v", err)
	}
	if flushed < 1 {
		t.Fatalf("FlushBindings dropped %d bindings, want >= 1", flushed)
	}
	if got != 2 {
		t.Fatalf("delivered %d datagrams, want 2 (flush must only force re-resolution)", got)
	}
	if mac, ok := tl.ifaces[1].Lookup(tl.hosts[1].IP()); !ok || mac != tl.hosts[1].MAC() {
		t.Fatalf("binding not relearned after flush: %v ok=%v", mac, ok)
	}
}
