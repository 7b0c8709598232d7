// Package ipv4pkt implements the minimal slice of IPv4, ICMP, and UDP needed
// by the framework: enough to carry workload traffic whose interception the
// eavesdropping experiments measure, the ICMP echoes hosts exchange (the
// pinned replay capture is built from pings), and the UDP datagrams DHCP
// rides on. No detection scheme sends ICMP: active probing uses RFC 5227
// ARP probes.
//
// Headers are encoded in real wire format with real checksums, so byte
// counts and validation behaviour match physical networks.
package ipv4pkt

import (
	"encoding/binary"
	"errors"
	"fmt"

	"repro/internal/ethaddr"
)

// Protocol is the IPv4 protocol number.
type Protocol uint8

// Protocol numbers used by the framework.
const (
	ProtoICMP Protocol = 1
	ProtoTCP  Protocol = 6
	ProtoUDP  Protocol = 17
)

// String returns the conventional protocol name.
func (p Protocol) String() string {
	switch p {
	case ProtoICMP:
		return "ICMP"
	case ProtoTCP:
		return "TCP"
	case ProtoUDP:
		return "UDP"
	default:
		return fmt.Sprintf("proto(%d)", uint8(p))
	}
}

// HeaderLen is the size of an IPv4 header without options.
const HeaderLen = 20

// Errors returned by the decoders.
var (
	ErrTruncated   = errors.New("packet truncated")
	ErrBadVersion  = errors.New("not an ipv4 packet")
	ErrBadChecksum = errors.New("header checksum mismatch")
)

// Packet is a decoded IPv4 packet (options unsupported: IHL is always 5).
type Packet struct {
	TTL      uint8
	Proto    Protocol
	Src, Dst ethaddr.IPv4
	Payload  []byte
	ID       uint16
}

// checksum computes the Internet checksum (RFC 1071) over data.
func checksum(data []byte) uint16 {
	var sum uint32
	for i := 0; i+1 < len(data); i += 2 {
		sum += uint32(binary.BigEndian.Uint16(data[i : i+2]))
	}
	if len(data)%2 == 1 {
		sum += uint32(data[len(data)-1]) << 8
	}
	for sum>>16 != 0 {
		sum = (sum & 0xffff) + (sum >> 16)
	}
	return ^uint16(sum)
}

// Encode serializes the packet with a valid header checksum into a fresh
// buffer.
func (p *Packet) Encode() []byte {
	return p.AppendEncode(make([]byte, 0, HeaderLen+len(p.Payload)))
}

// AppendEncode appends the packet's wire form, header checksum included, to
// dst and returns the extended slice. With enough capacity in dst it does
// not allocate.
func (p *Packet) AppendEncode(dst []byte) []byte {
	n := len(dst)
	dst = append(dst, make([]byte, HeaderLen)...)
	h := dst[n:]
	h[0] = 0x45 // version 4, IHL 5
	binary.BigEndian.PutUint16(h[2:4], uint16(HeaderLen+len(p.Payload)))
	binary.BigEndian.PutUint16(h[4:6], p.ID)
	h[8] = p.TTL
	h[9] = uint8(p.Proto)
	copy(h[12:16], p.Src[:])
	copy(h[16:20], p.Dst[:])
	binary.BigEndian.PutUint16(h[10:12], checksum(h))
	return append(dst, p.Payload...)
}

// Decode parses and checksums an IPv4 packet into a fresh Packet.
func Decode(buf []byte) (*Packet, error) {
	p := new(Packet)
	if err := DecodeInto(p, buf); err != nil {
		return nil, err
	}
	return p, nil
}

// DecodeInto parses and checksums an IPv4 packet into p, tolerating
// trailing Ethernet padding by honouring the total-length field. p.Payload
// aliases buf. A receiver that decodes into a Packet it holds on the stack
// does not allocate. On error p is not modified.
func DecodeInto(p *Packet, buf []byte) error {
	if len(buf) < HeaderLen {
		return fmt.Errorf("%w: %d octets", ErrTruncated, len(buf))
	}
	if buf[0]>>4 != 4 || buf[0]&0x0f != 5 {
		return ErrBadVersion
	}
	total := int(binary.BigEndian.Uint16(buf[2:4]))
	if total < HeaderLen || total > len(buf) {
		return fmt.Errorf("%w: total length %d of %d", ErrTruncated, total, len(buf))
	}
	if checksum(buf[:HeaderLen]) != 0 {
		return ErrBadChecksum
	}
	*p = Packet{
		TTL:     buf[8],
		Proto:   Protocol(buf[9]),
		Src:     ethaddr.IPv4(buf[12:16]),
		Dst:     ethaddr.IPv4(buf[16:20]),
		Payload: buf[HeaderLen:total],
		ID:      binary.BigEndian.Uint16(buf[4:6]),
	}
	return nil
}

// ICMP message types used by the probes.
const (
	ICMPEchoReply   = 0
	ICMPEchoRequest = 8
)

// ICMPEcho is an ICMP echo request or reply.
type ICMPEcho struct {
	Type  uint8 // ICMPEchoRequest or ICMPEchoReply
	IDent uint16
	Seq   uint16
	Data  []byte
}

// Encode serializes the echo message with a valid ICMP checksum.
func (e *ICMPEcho) Encode() []byte {
	return e.AppendEncode(make([]byte, 0, 8+len(e.Data)))
}

// AppendEncode appends the echo message's wire form, checksum included, to
// dst and returns the extended slice. With enough capacity in dst it does
// not allocate.
func (e *ICMPEcho) AppendEncode(dst []byte) []byte {
	n := len(dst)
	dst = append(dst, e.Type, 0, 0, 0)
	dst = binary.BigEndian.AppendUint16(dst, e.IDent)
	dst = binary.BigEndian.AppendUint16(dst, e.Seq)
	dst = append(dst, e.Data...)
	binary.BigEndian.PutUint16(dst[n+2:n+4], checksum(dst[n:]))
	return dst
}

// DecodeICMPEcho parses an echo request or reply into a fresh ICMPEcho.
func DecodeICMPEcho(buf []byte) (*ICMPEcho, error) {
	e := new(ICMPEcho)
	if err := DecodeICMPEchoInto(e, buf); err != nil {
		return nil, err
	}
	return e, nil
}

// DecodeICMPEchoInto parses an echo request or reply into e. e.Data aliases
// buf. On error e is not modified.
func DecodeICMPEchoInto(e *ICMPEcho, buf []byte) error {
	if len(buf) < 8 {
		return fmt.Errorf("%w: icmp %d octets", ErrTruncated, len(buf))
	}
	if checksum(buf) != 0 {
		return fmt.Errorf("%w: icmp", ErrBadChecksum)
	}
	t := buf[0]
	if t != ICMPEchoRequest && t != ICMPEchoReply {
		return fmt.Errorf("icmp type %d is not an echo message", t)
	}
	*e = ICMPEcho{
		Type:  t,
		IDent: binary.BigEndian.Uint16(buf[4:6]),
		Seq:   binary.BigEndian.Uint16(buf[6:8]),
		Data:  buf[8:],
	}
	return nil
}

// UDPHeaderLen is the size of a UDP header.
const UDPHeaderLen = 8

// UDP is a UDP datagram (checksum omitted, as permitted for IPv4).
type UDP struct {
	SrcPort, DstPort uint16
	Payload          []byte
}

// Encode serializes the datagram into a fresh buffer.
func (u *UDP) Encode() []byte {
	return u.AppendEncode(make([]byte, 0, UDPHeaderLen+len(u.Payload)))
}

// AppendEncode appends the datagram's wire form to dst and returns the
// extended slice. With enough capacity in dst it does not allocate.
func (u *UDP) AppendEncode(dst []byte) []byte {
	dst = binary.BigEndian.AppendUint16(dst, u.SrcPort)
	dst = binary.BigEndian.AppendUint16(dst, u.DstPort)
	dst = binary.BigEndian.AppendUint16(dst, uint16(UDPHeaderLen+len(u.Payload)))
	dst = append(dst, 0, 0) // checksum omitted
	return append(dst, u.Payload...)
}

// DecodeUDP parses a UDP datagram into a fresh UDP.
func DecodeUDP(buf []byte) (*UDP, error) {
	u := new(UDP)
	if err := DecodeUDPInto(u, buf); err != nil {
		return nil, err
	}
	return u, nil
}

// DecodeUDPInto parses a UDP datagram into u, honouring the length field.
// u.Payload aliases buf. On error u is not modified.
func DecodeUDPInto(u *UDP, buf []byte) error {
	if len(buf) < UDPHeaderLen {
		return fmt.Errorf("%w: udp %d octets", ErrTruncated, len(buf))
	}
	length := int(binary.BigEndian.Uint16(buf[4:6]))
	if length < UDPHeaderLen || length > len(buf) {
		return fmt.Errorf("%w: udp length %d of %d", ErrTruncated, length, len(buf))
	}
	*u = UDP{
		SrcPort: binary.BigEndian.Uint16(buf[0:2]),
		DstPort: binary.BigEndian.Uint16(buf[2:4]),
		Payload: buf[UDPHeaderLen:length],
	}
	return nil
}
