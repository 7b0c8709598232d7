package stack

import (
	"testing"
	"time"

	"repro/internal/arppkt"
	"repro/internal/ethaddr"
	"repro/internal/frame"
	"repro/internal/ipv4pkt"
	"repro/internal/netsim"
	"repro/internal/sim"
)

// Allocation gates for the cache and resolver hot path. Every ARP packet a
// host receives ends in Cache.Update, so the steady-state refresh, lookups
// of resident entries, and the re-insert of a deleted key must all be
// allocation-free, as must ProcessARP's solicited check against in-flight
// resolutions. (First-ever inserts may grow the slot array and its index;
// that cost is amortized and not gated.)

func TestCacheRefreshAllocFree(t *testing.T) {
	s := sim.NewScheduler(1)
	c := NewCache(s, PolicyNaive, time.Minute)
	p := arppkt.NewReply(
		ethaddr.MAC{0x02, 0, 0, 0, 0, 1}, ethaddr.MustParseIPv4("10.0.0.1"),
		ethaddr.MAC{0x02, 0, 0, 0, 0, 2}, ethaddr.MustParseIPv4("10.0.0.2"),
	)
	c.Update(p, true)
	allocs := testing.AllocsPerRun(1000, func() {
		if kind := c.Update(p, true); kind != EventRefreshed {
			t.Fatalf("kind = %v, want refresh", kind)
		}
	})
	if allocs != 0 {
		t.Fatalf("cache refresh: %v allocs/op, want 0", allocs)
	}
}

// residentCache returns a cache holding n live entries and a reply
// refreshing each of them.
func residentCache(n int) (*Cache, []*arppkt.Packet) {
	c := NewCache(sim.NewScheduler(1), PolicyNaive, time.Minute)
	ps := make([]*arppkt.Packet, n)
	for i := range ps {
		ps[i] = arppkt.NewReply(poolMAC(uint8(i)), poolIP(i), poolMAC(7), poolIP(poolSize-1))
		c.Update(ps[i], true)
	}
	return c, ps
}

// TestCacheInsertAllocFree deletes and re-inserts keys of a 128-entry
// cache: the swap-remove, the index's backward shift, and the append into
// the freed slot must all reuse storage.
func TestCacheInsertAllocFree(t *testing.T) {
	c, ps := residentCache(128)
	i := 0
	allocs := testing.AllocsPerRun(1000, func() {
		p := ps[i%len(ps)]
		i += 37 // visit keys all over the slot array
		ip, _ := p.Binding()
		c.Delete(ip)
		if kind := c.Update(p, true); kind != EventCreated {
			t.Fatalf("kind = %v, want create", kind)
		}
	})
	if allocs != 0 {
		t.Fatalf("cache delete+insert: %v allocs/op, want 0", allocs)
	}
}

func TestCacheResidentUpdateLookupAllocFree(t *testing.T) {
	c, ps := residentCache(256)
	i := 0
	allocs := testing.AllocsPerRun(1000, func() {
		p := ps[i%len(ps)]
		i++
		if kind := c.Update(p, true); kind != EventRefreshed {
			t.Fatalf("kind = %v, want refresh", kind)
		}
		if _, ok := c.Lookup(p.SenderIP); !ok {
			t.Fatalf("lookup of resident %s missed", p.SenderIP)
		}
	})
	if allocs != 0 {
		t.Fatalf("resident update+lookup: %v allocs/op, want 0", allocs)
	}
}

// TestProcessARPWithPendingAllocFree: an inbound broadcast request for a
// third party, processed while the host has resolutions in flight, probes
// the pending index and refreshes the cache without allocating.
func TestProcessARPWithPendingAllocFree(t *testing.T) {
	s := sim.NewScheduler(1)
	h := NewHost(s, "h", netsim.NewNIC(s, ethaddr.MAC{0x02, 0, 0, 0, 0, 1}), ethaddr.IPv4{192, 168, 0, 1})
	for i := 0; i < 16; i++ {
		h.Resolve(poolIP(poolSpread+i), nil) // colliding keys: long probes
	}
	p := arppkt.NewRequest(poolMAC(3), poolIP(3), poolIP(4))
	h.ProcessARP(p)
	allocs := testing.AllocsPerRun(1000, func() { h.ProcessARP(p) })
	if allocs != 0 {
		t.Fatalf("ProcessARP with %d resolutions pending: %v allocs/op, want 0", len(h.pendings), allocs)
	}
}

// TestHandleIPv4NotOursAllocFree: a promiscuous monitor sees every
// background datagram on its LAN; reading the destination of one addressed
// to another host and discarding it must not allocate.
func TestHandleIPv4NotOursAllocFree(t *testing.T) {
	s := sim.NewScheduler(1)
	h := NewHost(s, "mon", netsim.NewNIC(s, ethaddr.MAC{0x02, 0, 0, 0, 0, 1}), ethaddr.IPv4{10, 0, 0, 250})
	h.OnIPv4(func(*ipv4pkt.Packet, *frame.Frame) { t.Fatal("dispatched a packet addressed elsewhere") })
	u := ipv4pkt.UDP{SrcPort: 40000, DstPort: 40000, Payload: []byte("bgtraffc")}
	p := ipv4pkt.Packet{TTL: 64, Proto: ipv4pkt.ProtoUDP, Src: ethaddr.IPv4{10, 0, 4, 1}, Dst: ethaddr.IPv4{10, 0, 0, 254}, Payload: u.Encode()}
	f := &frame.Frame{Dst: ethaddr.MAC{0x02, 0, 0, 0, 0, 0xfe}, Src: ethaddr.MAC{0x02, 0, 0, 0, 4, 1}, Type: frame.TypeIPv4, Payload: p.Encode()}
	allocs := testing.AllocsPerRun(1000, func() { h.handleFrame(f) })
	if allocs != 0 {
		t.Fatalf("handleIPv4 on another host's datagram: %v allocs/op, want 0", allocs)
	}
	if h.Stats().IPv4Rx != 0 {
		t.Fatal("host counted a datagram addressed elsewhere")
	}
}

// TestSendUDPFrameOnlyAllocFree: a 64-octet datagram to a resolved peer,
// sent and delivered into the peer's UDP handler, costs exactly one
// allocation, the object holding the frame and its wire bytes: encoding
// writes straight into it, and the receiver decodes on its stack.
func TestSendUDPFrameOnlyAllocFree(t *testing.T) {
	l := newTestLAN(1)
	a := l.addHost("a", "02:42:ac:00:00:01", "10.0.0.1")
	b := l.addHost("b", "02:42:ac:00:00:02", "10.0.0.2")
	got := 0
	b.HandleUDP(9, func(_ ethaddr.IPv4, _ uint16, payload []byte) { got = len(payload) })
	a.Resolve(b.IP(), nil)
	if err := l.s.Run(); err != nil {
		t.Fatal(err)
	}
	payload := make([]byte, 64)
	allocs := testing.AllocsPerRun(1000, func() {
		a.SendUDP(b.IP(), 9, 9, payload)
		if err := l.s.Run(); err != nil {
			t.Fatal(err)
		}
	})
	if got != len(payload) {
		t.Fatalf("peer received %d payload octets, want %d", got, len(payload))
	}
	if allocs != 1 {
		t.Fatalf("SendUDP of %d octets to a resolved peer: %v allocs/op, want exactly 1", len(payload), allocs)
	}
}

// TestDeliverUDPAllocFree: a datagram addressed to the host, with no OnIPv4
// observer attached, is parsed and dispatched to its port handler without
// allocating.
func TestDeliverUDPAllocFree(t *testing.T) {
	s := sim.NewScheduler(1)
	h := NewHost(s, "h", netsim.NewNIC(s, ethaddr.MAC{0x02, 0, 0, 0, 0, 1}), ethaddr.IPv4{10, 0, 0, 1})
	got := 0
	h.HandleUDP(40000, func(ethaddr.IPv4, uint16, []byte) { got++ })
	u := ipv4pkt.UDP{SrcPort: 40000, DstPort: 40000, Payload: []byte("bgtraffc")}
	p := ipv4pkt.Packet{TTL: 64, Proto: ipv4pkt.ProtoUDP, Src: ethaddr.IPv4{10, 0, 0, 2}, Dst: h.IP(), Payload: u.Encode()}
	f := &frame.Frame{Dst: h.MAC(), Src: ethaddr.MAC{0x02, 0, 0, 0, 0, 2}, Type: frame.TypeIPv4, Payload: p.Encode()}
	allocs := testing.AllocsPerRun(1000, func() { h.handleFrame(f) })
	if allocs != 0 {
		t.Fatalf("UDP delivery to its addressee: %v allocs/op, want 0", allocs)
	}
	if got == 0 || uint64(got) != h.Stats().IPv4Rx {
		t.Fatalf("handler ran %d times for %d datagrams received", got, h.Stats().IPv4Rx)
	}
}

// TestRecycledCacheRefillAllocFree: a cache built on a scheduler after
// another cache was recycled there starts empty, and refilling it with as
// many bindings as the recycled one held reuses its slot array and index:
// only the Cache itself is allocated.
func TestRecycledCacheRefillAllocFree(t *testing.T) {
	s := sim.NewScheduler(1)
	ip := func(i int) ethaddr.IPv4 { return ethaddr.IPv4{10, 0, byte(i >> 8), byte(i)} }
	fill := func(c *Cache) {
		for i := 0; i < 200; i++ {
			c.SetStatic(ip(i), ethaddr.MAC{0x02, 0, 0, 0, byte(i >> 8), byte(i)})
		}
	}
	c := NewCache(s, PolicyNaive, time.Minute)
	fill(c)
	allocs := testing.AllocsPerRun(20, func() {
		c.recycle()
		c.recycle() // idempotent
		c = NewCache(s, PolicyNaive, time.Minute)
		if _, ok := c.Get(ip(7)); ok || c.Len() != 0 || len(c.Snapshot()) != 0 {
			t.Fatal("recycled storage leaked bindings into a new cache")
		}
		fill(c)
	})
	if allocs > 1 {
		t.Fatalf("rebuilding and refilling a recycled cache: %v allocs/op, want at most 1 (the Cache)", allocs)
	}
	if c.Len() != 200 {
		t.Fatalf("Len %d after refilling, want 200", c.Len())
	}
}
