// Package ethaddr provides the hardware (MAC) and protocol (IPv4) address
// value types used throughout the framework, along with parsing, formatting,
// classification, and deterministic generation helpers.
//
// Both types are fixed-size arrays so they are comparable, usable as map
// keys, and copied by value at API boundaries.
package ethaddr

import (
	"errors"
	"fmt"
	"strconv"
	"strings"
)

// MAC is a 48-bit IEEE 802 hardware address.
type MAC [6]byte

// IPv4 is a 32-bit Internet protocol address.
type IPv4 [4]byte

// Well-known addresses.
var (
	// BroadcastMAC is the all-ones Ethernet broadcast address.
	BroadcastMAC = MAC{0xff, 0xff, 0xff, 0xff, 0xff, 0xff}

	// ZeroMAC is the all-zero placeholder hardware address used in the
	// target-hardware field of ARP requests.
	ZeroMAC = MAC{}

	// ZeroIPv4 is the unspecified address 0.0.0.0.
	ZeroIPv4 = IPv4{}

	// BroadcastIPv4 is the limited broadcast address 255.255.255.255.
	BroadcastIPv4 = IPv4{255, 255, 255, 255}
)

// Errors returned by the parsers.
var (
	ErrBadMAC  = errors.New("malformed MAC address")
	ErrBadIPv4 = errors.New("malformed IPv4 address")
)

// String formats the address in the canonical colon-separated lowercase
// hexadecimal form, e.g. "4c:34:88:5e:ea:85".
func (m MAC) String() string {
	const hexdigits = "0123456789abcdef"
	buf := make([]byte, 0, 17)
	for i, b := range m {
		if i > 0 {
			buf = append(buf, ':')
		}
		buf = append(buf, hexdigits[b>>4], hexdigits[b&0xf])
	}
	return string(buf)
}

// MarshalText implements encoding.TextMarshaler, so MACs render as
// canonical strings in JSON and text formats.
func (m MAC) MarshalText() ([]byte, error) { return []byte(m.String()), nil }

// UnmarshalText implements encoding.TextUnmarshaler.
func (m *MAC) UnmarshalText(text []byte) error {
	parsed, err := ParseMAC(string(text))
	if err != nil {
		return err
	}
	*m = parsed
	return nil
}

// IsBroadcast reports whether m is the all-ones broadcast address.
func (m MAC) IsBroadcast() bool { return m == BroadcastMAC }

// IsZero reports whether m is the all-zero placeholder address.
func (m MAC) IsZero() bool { return m == ZeroMAC }

// IsMulticast reports whether the group bit (least-significant bit of the
// first octet) is set. Broadcast is a special case of multicast.
func (m MAC) IsMulticast() bool { return m[0]&0x01 != 0 }

// IsUnicast reports whether m is a valid unicast station address: neither
// zero nor group-addressed.
func (m MAC) IsUnicast() bool { return !m.IsZero() && !m.IsMulticast() }

// IsLocallyAdministered reports whether the U/L bit is set, i.e. the address
// was assigned locally rather than burned in by a manufacturer. Attack tools
// that randomize MACs frequently set this bit.
func (m MAC) IsLocallyAdministered() bool { return m[0]&0x02 != 0 }

// OUI returns the Organizationally Unique Identifier (vendor prefix), the
// first three octets of the address.
func (m MAC) OUI() [3]byte { return [3]byte{m[0], m[1], m[2]} }

// Uint64 returns the address as a big-endian integer in the low 48 bits,
// a key for the dense indexes that map stations to slots.
func (m MAC) Uint64() uint64 {
	return uint64(m[0])<<40 | uint64(m[1])<<32 | uint64(m[2])<<24 |
		uint64(m[3])<<16 | uint64(m[4])<<8 | uint64(m[5])
}

// ParseMAC parses a MAC address in colon- or hyphen-separated hexadecimal
// form ("aa:bb:cc:dd:ee:ff" or "aa-bb-cc-dd-ee-ff"), case-insensitively.
func ParseMAC(s string) (MAC, error) {
	sep := ":"
	if strings.Contains(s, "-") {
		sep = "-"
	}
	parts := strings.Split(s, sep)
	if len(parts) != 6 {
		return MAC{}, fmt.Errorf("%w: %q", ErrBadMAC, s)
	}
	var m MAC
	for i, p := range parts {
		if len(p) != 2 {
			return MAC{}, fmt.Errorf("%w: octet %d in %q", ErrBadMAC, i, s)
		}
		v, err := strconv.ParseUint(p, 16, 8)
		if err != nil {
			return MAC{}, fmt.Errorf("%w: octet %d in %q", ErrBadMAC, i, s)
		}
		m[i] = byte(v)
	}
	return m, nil
}

// MustParseMAC is like ParseMAC but panics on malformed input. It is intended
// for constants in tests and examples.
func MustParseMAC(s string) MAC {
	m, err := ParseMAC(s)
	if err != nil {
		panic(err)
	}
	return m
}

// String formats the address in dotted-quad form, e.g. "192.168.88.250".
func (ip IPv4) String() string {
	buf := make([]byte, 0, 15)
	for i, b := range ip {
		if i > 0 {
			buf = append(buf, '.')
		}
		buf = strconv.AppendUint(buf, uint64(b), 10)
	}
	return string(buf)
}

// MarshalText implements encoding.TextMarshaler, so addresses render as
// dotted quads in JSON and text formats.
func (ip IPv4) MarshalText() ([]byte, error) { return []byte(ip.String()), nil }

// UnmarshalText implements encoding.TextUnmarshaler.
func (ip *IPv4) UnmarshalText(text []byte) error {
	parsed, err := ParseIPv4(string(text))
	if err != nil {
		return err
	}
	*ip = parsed
	return nil
}

// IsZero reports whether ip is the unspecified address 0.0.0.0.
func (ip IPv4) IsZero() bool { return ip == ZeroIPv4 }

// IsBroadcast reports whether ip is the limited broadcast address.
func (ip IPv4) IsBroadcast() bool { return ip == BroadcastIPv4 }

// IsMulticast reports whether ip falls in 224.0.0.0/4.
func (ip IPv4) IsMulticast() bool { return ip[0] >= 224 && ip[0] <= 239 }

// IsLoopback reports whether ip falls in 127.0.0.0/8.
func (ip IPv4) IsLoopback() bool { return ip[0] == 127 }

// Uint32 returns the address as a big-endian 32-bit integer.
func (ip IPv4) Uint32() uint32 {
	return uint32(ip[0])<<24 | uint32(ip[1])<<16 | uint32(ip[2])<<8 | uint32(ip[3])
}

// IPv4FromUint32 builds an address from a big-endian 32-bit integer.
func IPv4FromUint32(v uint32) IPv4 {
	return IPv4{byte(v >> 24), byte(v >> 16), byte(v >> 8), byte(v)}
}

// ParseIPv4 parses an address in dotted-quad form.
func ParseIPv4(s string) (IPv4, error) {
	parts := strings.Split(s, ".")
	if len(parts) != 4 {
		return IPv4{}, fmt.Errorf("%w: %q", ErrBadIPv4, s)
	}
	var ip IPv4
	for i, p := range parts {
		if p == "" || len(p) > 3 {
			return IPv4{}, fmt.Errorf("%w: octet %d in %q", ErrBadIPv4, i, s)
		}
		v, err := strconv.ParseUint(p, 10, 8)
		if err != nil {
			return IPv4{}, fmt.Errorf("%w: octet %d in %q", ErrBadIPv4, i, s)
		}
		ip[i] = byte(v)
	}
	return ip, nil
}

// MustParseIPv4 is like ParseIPv4 but panics on malformed input. It is
// intended for constants in tests and examples.
func MustParseIPv4(s string) IPv4 {
	ip, err := ParseIPv4(s)
	if err != nil {
		panic(err)
	}
	return ip
}

// Subnet describes an IPv4 prefix, used for same-network checks and for
// enumerating host addresses in scenario setup.
type Subnet struct {
	Base IPv4
	Bits int // prefix length, 0..32
}

// ParseSubnet parses CIDR notation such as "192.168.88.0/24".
func ParseSubnet(s string) (Subnet, error) {
	slash := strings.IndexByte(s, '/')
	if slash < 0 {
		return Subnet{}, fmt.Errorf("%w: missing prefix length in %q", ErrBadIPv4, s)
	}
	base, err := ParseIPv4(s[:slash])
	if err != nil {
		return Subnet{}, err
	}
	bits, err := strconv.Atoi(s[slash+1:])
	if err != nil || bits < 0 || bits > 32 {
		return Subnet{}, fmt.Errorf("%w: bad prefix length in %q", ErrBadIPv4, s)
	}
	return Subnet{Base: base.Mask(bits), Bits: bits}, nil
}

// MustParseSubnet is like ParseSubnet but panics on malformed input.
func MustParseSubnet(s string) Subnet {
	n, err := ParseSubnet(s)
	if err != nil {
		panic(err)
	}
	return n
}

// Mask zeroes the host bits of ip for the given prefix length.
func (ip IPv4) Mask(bits int) IPv4 {
	if bits <= 0 {
		return IPv4{}
	}
	if bits >= 32 {
		return ip
	}
	mask := ^uint32(0) << (32 - bits)
	return IPv4FromUint32(ip.Uint32() & mask)
}

// Contains reports whether ip belongs to the subnet.
func (n Subnet) Contains(ip IPv4) bool { return ip.Mask(n.Bits) == n.Base }

// Host returns the i-th host address within the subnet (i=1 is the first
// usable address after the network address). It does not guard against
// overflowing the prefix; callers enumerate within capacity.
func (n Subnet) Host(i int) IPv4 {
	return IPv4FromUint32(n.Base.Uint32() + uint32(i))
}

// HostCount returns how many host addresses lie between the network and
// broadcast addresses: Host(1) through Host(HostCount()).
func (n Subnet) HostCount() int {
	return max(1<<(32-n.Bits)-2, 0)
}

// Broadcast returns the subnet's directed broadcast address.
func (n Subnet) Broadcast() IPv4 {
	if n.Bits >= 32 {
		return n.Base
	}
	return IPv4FromUint32(n.Base.Uint32() | (^uint32(0) >> n.Bits))
}

// String formats the subnet in CIDR notation.
func (n Subnet) String() string { return n.Base.String() + "/" + strconv.Itoa(n.Bits) }
