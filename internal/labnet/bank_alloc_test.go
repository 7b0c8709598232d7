package labnet

import (
	"testing"
	"time"

	"repro/internal/frame"
	"repro/internal/ipv4pkt"
)

// The station bank's background datagrams are most of a campus trial's
// frames. Receiving one decodes into a stack-held packet; sending one
// carves a single object, the frame with its wire bytes, from the
// scheduler's datagram arena (at most one heap allocation, and none once
// the arena's slabs are warm).

func TestBankReceiveAllocFree(t *testing.T) {
	c := NewCampus(CampusConfig{Seed: 3, LANs: 2, HostsPerLAN: 64, BackgroundPeriod: -1})
	defer c.Recycle()
	b := c.LANs[0].Bank
	u := ipv4pkt.UDP{SrcPort: 40000, DstPort: 40000, Payload: bankPayload[:]}
	p := ipv4pkt.Packet{TTL: 63, Proto: ipv4pkt.ProtoUDP, Src: c.LANs[1].Bank.IP(2), Dst: b.IP(5), Payload: u.Encode()}
	f := &frame.Frame{Dst: b.MAC(5), Src: c.LANs[0].Router.MAC(), Type: frame.TypeIPv4, Payload: p.Encode()}
	before := b.Stats().Delivered
	allocs := testing.AllocsPerRun(1000, func() { b.handleFrame(f) })
	if allocs != 0 {
		t.Fatalf("bank receive: %v allocs/op, want 0", allocs)
	}
	if b.Stats().Delivered == before {
		t.Fatal("bank did not deliver the datagram")
	}
}

func TestBankSendUDPAllocFree(t *testing.T) {
	c := NewCampus(CampusConfig{Seed: 3, LANs: 2, HostsPerLAN: 64, BackgroundPeriod: -1})
	defer c.Recycle()
	cl := c.LANs[0]
	b := cl.Bank
	send := func() {
		b.sendUDP(7, b.gwIP, b.GatewayMAC(7))
		if err := cl.Sched.RunUntil(cl.Sched.Now() + 10*time.Millisecond); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 64; i++ { // warm the event and transit pools and the CAM
		send()
	}
	allocs := testing.AllocsPerRun(1000, send)
	if allocs > 1 {
		t.Fatalf("bank sendUDP through the LAN: %v allocs/op, want at most 1 (the datagram)", allocs)
	}
}
