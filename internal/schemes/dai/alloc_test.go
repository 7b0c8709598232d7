package dai

import (
	"testing"

	"repro/internal/ethaddr"
	"repro/internal/frame"
	"repro/internal/ipv4pkt"
	"repro/internal/netsim"
	"repro/internal/schemes"
	"repro/internal/sim"
)

// TestFilterNonDHCPIPv4AllocFree: with the DHCP guard on, every IPv4 frame
// from an untrusted port is checked for a server source port. Ordinary
// datagrams — the campus background load — must pass without allocating.
func TestFilterNonDHCPIPv4AllocFree(t *testing.T) {
	s := sim.NewScheduler(1)
	filter := New(s, schemes.NewSink(), NewBindingTable(), WithDHCPGuard()).Filter()
	u := ipv4pkt.UDP{SrcPort: 40000, DstPort: 40000, Payload: []byte("bgtraffc")}
	p := ipv4pkt.Packet{TTL: 64, Proto: ipv4pkt.ProtoUDP, Src: ethaddr.IPv4{10, 0, 4, 1}, Dst: ethaddr.IPv4{10, 0, 0, 254}, Payload: u.Encode()}
	f := &frame.Frame{Dst: ethaddr.MAC{0x02, 0, 0, 0, 0, 0xfe}, Src: ethaddr.MAC{0x02, 0, 0, 0, 4, 1}, Type: frame.TypeIPv4, Payload: p.Encode()}
	allocs := testing.AllocsPerRun(1000, func() {
		if filter(1, f) != netsim.VerdictAllow {
			t.Fatal("ordinary datagram dropped")
		}
	})
	if allocs != 0 {
		t.Fatalf("DAI on non-DHCP IPv4: %v allocs/op, want 0", allocs)
	}
}
