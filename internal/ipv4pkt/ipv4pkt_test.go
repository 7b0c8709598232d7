package ipv4pkt

import (
	"bytes"
	"errors"
	"testing"
	"testing/quick"

	"repro/internal/ethaddr"
)

var (
	ipA = ethaddr.MustParseIPv4("10.0.0.1")
	ipB = ethaddr.MustParseIPv4("10.0.0.2")
)

func TestPacketRoundTrip(t *testing.T) {
	p := &Packet{TTL: 64, Proto: ProtoUDP, Src: ipA, Dst: ipB, ID: 1234, Payload: []byte("payload")}
	got, err := Decode(p.Encode())
	if err != nil {
		t.Fatal(err)
	}
	if got.TTL != 64 || got.Proto != ProtoUDP || got.Src != ipA || got.Dst != ipB || got.ID != 1234 {
		t.Fatalf("header mismatch: %+v", got)
	}
	if !bytes.Equal(got.Payload, []byte("payload")) {
		t.Fatalf("payload mismatch: %q", got.Payload)
	}
}

func TestPacketDecodeToleratesPadding(t *testing.T) {
	wire := (&Packet{TTL: 1, Proto: ProtoICMP, Src: ipA, Dst: ipB, Payload: []byte{1, 2}}).Encode()
	padded := append(wire, make([]byte, 30)...)
	got, err := Decode(padded)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Payload) != 2 {
		t.Fatalf("padding leaked into payload: %d octets", len(got.Payload))
	}
}

func TestPacketChecksumDetectsCorruption(t *testing.T) {
	wire := (&Packet{TTL: 64, Proto: ProtoUDP, Src: ipA, Dst: ipB}).Encode()
	wire[12] ^= 0xff // corrupt source address
	if _, err := Decode(wire); !errors.Is(err, ErrBadChecksum) {
		t.Fatalf("err = %v, want ErrBadChecksum", err)
	}
}

func TestPacketDecodeErrors(t *testing.T) {
	if _, err := Decode(make([]byte, 5)); !errors.Is(err, ErrTruncated) {
		t.Fatalf("short: %v", err)
	}
	wire := (&Packet{TTL: 64, Proto: ProtoUDP, Src: ipA, Dst: ipB}).Encode()
	wire[0] = 0x65 // version 6
	if _, err := Decode(wire); !errors.Is(err, ErrBadVersion) {
		t.Fatalf("version: %v", err)
	}
}

func TestPacketRoundTripProperty(t *testing.T) {
	f := func(ttl uint8, id uint16, src, dst ethaddr.IPv4, payload []byte) bool {
		if len(payload) > 1400 {
			payload = payload[:1400]
		}
		p := &Packet{TTL: ttl, Proto: ProtoTCP, Src: src, Dst: dst, ID: id, Payload: payload}
		got, err := Decode(p.Encode())
		return err == nil && got.TTL == ttl && got.ID == id && got.Src == src &&
			got.Dst == dst && bytes.Equal(got.Payload, payload)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestICMPEchoRoundTrip(t *testing.T) {
	e := &ICMPEcho{Type: ICMPEchoRequest, IDent: 77, Seq: 3, Data: []byte("abc")}
	got, err := DecodeICMPEcho(e.Encode())
	if err != nil {
		t.Fatal(err)
	}
	if got.Type != ICMPEchoRequest || got.IDent != 77 || got.Seq != 3 || !bytes.Equal(got.Data, []byte("abc")) {
		t.Fatalf("mismatch: %+v", got)
	}
}

// TestICMPEchoAppendEncode: appending after a prefix leaves the prefix
// alone and writes exactly Encode's bytes, checksum computed over the echo
// message only, and DecodeICMPEchoInto reads them back.
func TestICMPEchoAppendEncode(t *testing.T) {
	e := ICMPEcho{Type: ICMPEchoReply, IDent: 9, Seq: 513, Data: []byte("xyz")}
	prefix := []byte{0xde, 0xad, 0xbe}
	got := e.AppendEncode(prefix[:3:3])
	if !bytes.Equal(got[:3], prefix) || !bytes.Equal(got[3:], e.Encode()) {
		t.Fatalf("AppendEncode = %x, want %x then %x", got, prefix, e.Encode())
	}
	var back ICMPEcho
	if err := DecodeICMPEchoInto(&back, got[3:]); err != nil || back.Type != e.Type ||
		back.IDent != e.IDent || back.Seq != e.Seq || !bytes.Equal(back.Data, e.Data) {
		t.Fatalf("round trip: %+v (%v), want %+v", back, err, e)
	}
}

func TestICMPChecksumDetectsCorruption(t *testing.T) {
	wire := (&ICMPEcho{Type: ICMPEchoReply, IDent: 1, Seq: 1}).Encode()
	wire[4] ^= 0x01
	if _, err := DecodeICMPEcho(wire); !errors.Is(err, ErrBadChecksum) {
		t.Fatalf("err = %v", err)
	}
}

func TestICMPRejectsNonEcho(t *testing.T) {
	e := &ICMPEcho{Type: 3} // destination unreachable
	if _, err := DecodeICMPEcho(e.Encode()); err == nil {
		t.Fatal("non-echo type should be rejected")
	}
}

func TestICMPTruncated(t *testing.T) {
	if _, err := DecodeICMPEcho(make([]byte, 4)); !errors.Is(err, ErrTruncated) {
		t.Fatalf("err = %v", err)
	}
}

func TestUDPRoundTrip(t *testing.T) {
	u := &UDP{SrcPort: 68, DstPort: 67, Payload: []byte("dhcp")}
	got, err := DecodeUDP(u.Encode())
	if err != nil {
		t.Fatal(err)
	}
	if got.SrcPort != 68 || got.DstPort != 67 || !bytes.Equal(got.Payload, []byte("dhcp")) {
		t.Fatalf("mismatch: %+v", got)
	}
}

func TestUDPDecodeToleratesPadding(t *testing.T) {
	wire := (&UDP{SrcPort: 1, DstPort: 2, Payload: []byte("x")}).Encode()
	got, err := DecodeUDP(append(wire, 0, 0, 0))
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Payload) != 1 {
		t.Fatalf("padding leaked: %d", len(got.Payload))
	}
}

func TestUDPTruncated(t *testing.T) {
	if _, err := DecodeUDP(make([]byte, 7)); !errors.Is(err, ErrTruncated) {
		t.Fatalf("err = %v", err)
	}
	// Length field larger than buffer.
	wire := (&UDP{SrcPort: 1, DstPort: 2, Payload: []byte("abc")}).Encode()
	if _, err := DecodeUDP(wire[:9]); !errors.Is(err, ErrTruncated) {
		t.Fatalf("err = %v", err)
	}
}

func TestUDPRoundTripProperty(t *testing.T) {
	f := func(sp, dp uint16, payload []byte) bool {
		if len(payload) > 1400 {
			payload = payload[:1400]
		}
		got, err := DecodeUDP((&UDP{SrcPort: sp, DstPort: dp, Payload: payload}).Encode())
		return err == nil && got.SrcPort == sp && got.DstPort == dp && bytes.Equal(got.Payload, payload)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestProtocolString(t *testing.T) {
	if ProtoICMP.String() != "ICMP" || ProtoTCP.String() != "TCP" || ProtoUDP.String() != "UDP" {
		t.Fatal("known protocol names")
	}
	if Protocol(99).String() != "proto(99)" {
		t.Fatal("unknown protocol formatting")
	}
}

func TestChecksumOddLength(t *testing.T) {
	// RFC 1071 odd-length handling: corrupting the final odd byte must be caught.
	e := &ICMPEcho{Type: ICMPEchoRequest, IDent: 5, Seq: 9, Data: []byte("odd")}
	wire := e.Encode()
	wire[len(wire)-1] ^= 0xff
	if _, err := DecodeICMPEcho(wire); !errors.Is(err, ErrBadChecksum) {
		t.Fatalf("err = %v, want ErrBadChecksum", err)
	}
}
