package ipv4pkt

import "testing"

// The codec's allocation-free paths: every switch-port receiver of
// background traffic decodes into a stack-held Packet, and senders append
// into a buffer they own.

func TestDecodeIntoAllocFree(t *testing.T) {
	u := UDP{SrcPort: 40000, DstPort: 40000, Payload: []byte("bgtraffc")}
	wire := (&Packet{TTL: 64, Proto: ProtoUDP, Src: ipA, Dst: ipB, Payload: u.Encode()}).Encode()
	allocs := testing.AllocsPerRun(1000, func() {
		var p Packet
		var d UDP
		if DecodeInto(&p, wire) != nil || DecodeUDPInto(&d, p.Payload) != nil {
			t.Fatal("decode failed")
		}
	})
	if allocs != 0 {
		t.Fatalf("DecodeInto+DecodeUDPInto: %v allocs/op, want 0", allocs)
	}
}

func TestAppendEncodeAllocFree(t *testing.T) {
	u := UDP{SrcPort: 40000, DstPort: 40000, Payload: []byte("bgtraffc")}
	buf := make([]byte, 0, HeaderLen+UDPHeaderLen+len(u.Payload))
	allocs := testing.AllocsPerRun(1000, func() {
		p := Packet{TTL: 64, Proto: ProtoUDP, Src: ipA, Dst: ipB}
		b := u.AppendEncode(buf[:HeaderLen])
		p.Payload = b[HeaderLen:]
		_ = p.AppendEncode(buf[:0])
	})
	if allocs != 0 {
		t.Fatalf("AppendEncode: %v allocs/op, want 0", allocs)
	}
}
