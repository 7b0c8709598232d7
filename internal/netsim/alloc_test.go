package netsim

import (
	"time"

	"testing"

	"repro/internal/ethaddr"
	"repro/internal/frame"
	"repro/internal/ipv4pkt"
	"repro/internal/sim"
)

// Allocation gates for the forwarding hot path (PR 7). The CAM refresh runs
// once per frame per switch hop, and the full NIC→link→switch→link→NIC
// unicast transit is the inner loop of every experiment — both must be
// allocation-free in steady state (pooled transits, pooled scheduler
// events, shared read-only frames).

func TestCAMLearnRefreshAllocFree(t *testing.T) {
	s := sim.NewScheduler(1)
	sw := NewSwitch(s)
	src := ethaddr.MAC{0x02, 0, 0, 0, 0, 1}
	sw.learn(0, 0, src, 0)
	allocs := testing.AllocsPerRun(1000, func() {
		sw.learn(0, 0, src, s.Now())
	})
	if allocs != 0 {
		t.Fatalf("CAM refresh: %v allocs/op, want 0", allocs)
	}
}

func TestUnicastTransitAllocFree(t *testing.T) {
	s := sim.NewScheduler(1)
	sw := NewSwitch(s)
	st := newLAN(t, s, sw, 2)
	for _, station := range st {
		station.nic.SetHandler(func(*frame.Frame) {})
	}
	// Teach the CAM both stations so forwarding is pure unicast, and warm
	// the pools (first transits populate the scheduler free list and the
	// transit pool).
	f01 := uni(st[0].nic.MAC(), st[1].nic.MAC())
	f10 := uni(st[1].nic.MAC(), st[0].nic.MAC())
	st[0].nic.Send(f01)
	st[1].nic.Send(f10)
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(1000, func() {
		st[0].nic.Send(f01)
		if err := s.Run(); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("unicast switch transit: %v allocs/op, want 0", allocs)
	}
}

// TestCAMInsertEvictAllocFree: on a warm, full table, learning a new
// station (random eviction, then insert) and administrative flushes reuse
// the dense entry slice and the index in place.
func TestCAMInsertEvictAllocFree(t *testing.T) {
	s := sim.NewScheduler(1)
	sw := NewSwitch(s, WithCAMCapacity(64), WithCAMEvictRandom())
	mac := func(i int) ethaddr.MAC { return ethaddr.MAC{0x02, 0, 0, 0, byte(i >> 8), byte(i)} }
	for i := 0; i < 256; i++ {
		sw.learn(0, 1, mac(i), 0)
	}
	i := 256
	allocs := testing.AllocsPerRun(1000, func() {
		sw.learn(i%4, 1, mac(i%4096), s.Now())
		i++
		if i%512 == 0 {
			sw.FlushCAM()
		}
	})
	if allocs != 0 {
		t.Fatalf("CAM insert/evict cycle: %v allocs/op, want 0", allocs)
	}
}

// TestRouterTrunkForwardAllocFree pins the routed path's allocations: a
// unicast datagram entering LAN 0's router interface, crossing the trunk
// to LAN 1 and leaving its router toward a resolved station allocates
// nothing beyond the arenas' slab carving (one slab per 64 packets).
// The trunk packet comes from LAN 0's datagram arena and is staged as a
// task, not a closure; LAN 1 copies its bytes into an egress frame from
// its own arena. Decoding into a stack-held Packet keeps the ingress side
// free.
func TestRouterTrunkForwardAllocFree(t *testing.T) {
	ss := sim.NewSharded(1, 2)
	subnets := [2]ethaddr.Subnet{ethaddr.MustParseSubnet("10.0.0.0/16"), ethaddr.MustParseSubnet("10.1.0.0/16")}
	var ifaces [2]*RouterIface
	var hostMAC [2]ethaddr.MAC
	for i := range ifaces {
		sh := ss.Shard(i)
		sw := NewSwitch(sh)
		host := NewNIC(sh, ethaddr.MAC{0x02, 0, 0, 0, byte(i), 1})
		host.SetHandler(func(*frame.Frame) {})
		sw.AddPort().Attach(host)
		hostMAC[i] = host.MAC()
		nic := NewNIC(sh, ethaddr.MAC{0x02, 0, 0, 0, byte(i), 0xfe})
		sw.AddPort().Attach(nic)
		ifaces[i] = NewRouterIface(sh, "rtr", nic, subnets[i].Host(254), subnets[i])
	}
	var trunks [2]Trunk
	for i := range ifaces {
		j := 1 - i
		trunks[i] = NewTrunk(ss.Link(i, j, time.Millisecond), ifaces[j])
		ifaces[i].AddRoute(subnets[j], &trunks[i])
	}
	dst := subnets[1].Host(1)
	ifaces[1].learn(dst, hostMAC[1])
	u := ipv4pkt.UDP{SrcPort: 40000, DstPort: 40000, Payload: []byte("bgtraffc")}
	p := ipv4pkt.Packet{TTL: 64, Proto: ipv4pkt.ProtoUDP, Src: subnets[0].Host(1), Dst: dst, Payload: u.Encode()}
	f := &frame.Frame{Dst: ifaces[0].MAC(), Src: hostMAC[0], Type: frame.TypeIPv4, Payload: p.Encode()}
	forward := func() { ifaces[0].handleIPv4(f) }
	step := func() {
		ss.Shard(0).After(0, forward)
		if err := ss.RunUntil(ss.Shard(0).Now() + 10*time.Millisecond); err != nil {
			t.Fatal(err)
		}
	}
	for k := 0; k < 64; k++ { // warm the event pools, outboxes and CAMs
		step()
	}
	before := ifaces[1].Stats().DeliveredIn
	allocs := testing.AllocsPerRun(200, step)
	if got := ifaces[1].Stats().DeliveredIn - before; got != 201 {
		t.Fatalf("LAN 1 received %d of 201 forwarded packets", got)
	}
	if allocs != 0 {
		t.Fatalf("router forward across a trunk: %v allocs/op, want 0", allocs)
	}
}

// TestRecycledCAMRelearnAllocFree: a switch built on a scheduler after
// another switch was recycled there starts with an empty CAM, and learning
// as many stations as the recycled one held reuses its storage.
func TestRecycledCAMRelearnAllocFree(t *testing.T) {
	s := sim.NewScheduler(1)
	mac := func(i int) ethaddr.MAC { return ethaddr.MAC{0x02, 0, 0, 0, byte(i >> 8), byte(i)} }
	sw := NewSwitch(s)
	for i := 0; i < 500; i++ {
		sw.learn(0, 1, mac(i), 0)
	}
	allocs := testing.AllocsPerRun(20, func() {
		sw.Recycle()
		sw.Recycle() // idempotent
		sw = NewSwitch(s)
		if sw.CAMLen() != 0 || sw.camLookup(1, mac(7), 0) != nil {
			t.Fatal("recycled storage leaked entries into a new switch")
		}
		for i := 0; i < 500; i++ {
			sw.learn(0, 1, mac(i), 0)
		}
	})
	// A NewSwitch with nothing parked allocates the switch and an empty
	// index; with a parked table the index comes for free and refilling it
	// adds nothing.
	s2 := sim.NewScheduler(2)
	fresh := testing.AllocsPerRun(20, func() { _ = NewSwitch(s2) })
	if allocs >= fresh {
		t.Fatalf("rebuilding and refilling a recycled CAM: %v allocs/op, want fewer than a bare NewSwitch (%v)", allocs, fresh)
	}
	if sw.CAMLen() != 500 {
		t.Fatalf("CAMLen %d after relearning, want 500", sw.CAMLen())
	}
}

// TestFloodFanOutAllocFree: on a warm 64-port switch a broadcast, its
// batched fan-out and the delivery to the other 63 stations reuse the
// VLAN's cached flood plan, a pooled floodTransit shell and the scheduler's
// pooled events. Only a plan rebuild allocates.
func TestFloodFanOutAllocFree(t *testing.T) {
	s := sim.NewScheduler(1)
	sw := NewSwitch(s)
	st := newLAN(t, s, sw, 64)
	for _, station := range st {
		station.nic.SetHandler(func(*frame.Frame) {})
	}
	bc := &frame.Frame{Dst: ethaddr.BroadcastMAC, Src: st[0].nic.MAC(), Type: frame.TypeARP, Payload: make([]byte, 28)}
	send := func() {
		st[0].nic.Send(bc)
		if err := s.Run(); err != nil {
			t.Fatal(err)
		}
	}
	send() // build the plan, warm the pools and the CAM
	events := s.Executed()
	allocs := testing.AllocsPerRun(1000, send)
	// AllocsPerRun makes one warm-up call: 1001 sends, each one link
	// transit into the switch and one batched delivery.
	if got := s.Executed() - events; got != 2*1001 {
		t.Fatalf("%d events for 1001 broadcasts, want 2 each (fan-out not batched)", got)
	}
	if got := st[63].nic.Stats().RxFrames; got != 1002 {
		t.Fatalf("last station received %d broadcasts, want 1002", got)
	}
	if allocs != 0 {
		t.Fatalf("broadcast fan-out: %v allocs/op, want 0", allocs)
	}
}

// TestRecycledRouterTablesAllocFree: an interface built on a scheduler
// after another was recycled there starts with empty tables, the parked
// resolution queues hold no frame, and relearning as many bindings as the
// recycled interface held allocates only the interface and its NIC
// handler.
func TestRecycledRouterTablesAllocFree(t *testing.T) {
	s := sim.NewScheduler(1)
	subnet := ethaddr.MustParseSubnet("10.0.0.0/16")
	nic := NewNIC(s, ethaddr.MAC{0x02, 0, 0, 0, 0, 0xfe})
	NewSwitch(s).AddPort().Attach(nic)
	ip := func(i int) ethaddr.IPv4 { return subnet.Host(i + 1) }
	mac := func(i int) ethaddr.MAC { return ethaddr.MAC{0x02, 0, 0, 0, byte(i >> 8), byte(i)} }
	r := NewRouterIface(s, "rtr", nic, subnet.Host(254), subnet)
	for i := 0; i < 8; i++ { // resolutions still pending when the router is recycled
		r.deliverLocal(ip(1000+i), r.dgrams.Frame(ethaddr.MAC{}, nic.MAC()))
	}
	for i := 0; i < 200; i++ {
		r.learn(ip(i), mac(i))
	}
	r.Recycle()
	for _, tb := range cacheOf(s).routers {
		for _, p := range tb.pend[:cap(tb.pend)] {
			for _, f := range p.queue[:cap(p.queue)] {
				if f != nil {
					t.Fatal("parked router tables still hold a queued frame")
				}
			}
		}
	}
	allocs := testing.AllocsPerRun(20, func() {
		r.Recycle() // idempotent
		r = NewRouterIface(s, "rtr", nic, subnet.Host(254), subnet)
		if _, ok := r.Lookup(ip(7)); ok || r.FlushBindings() != 0 || len(r.pend) != 0 {
			t.Fatal("recycled tables leaked state into a new interface")
		}
		for i := 0; i < 200; i++ {
			r.learn(ip(i), mac(i))
		}
		r.Recycle()
	})
	if allocs > 2 {
		t.Fatalf("rebuilding and refilling a recycled interface: %v allocs/op, want at most 2 (the RouterIface and its handler)", allocs)
	}
}
