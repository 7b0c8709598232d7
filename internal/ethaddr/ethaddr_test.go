package ethaddr

import (
	"encoding/json"
	"errors"
	"testing"
	"testing/quick"
)

func TestParseMAC(t *testing.T) {
	tests := []struct {
		name    string
		in      string
		want    MAC
		wantErr bool
	}{
		{name: "colon", in: "4c:34:88:5e:ea:85", want: MAC{0x4c, 0x34, 0x88, 0x5e, 0xea, 0x85}},
		{name: "hyphen", in: "4C-34-88-5E-EA-85", want: MAC{0x4c, 0x34, 0x88, 0x5e, 0xea, 0x85}},
		{name: "uppercase", in: "FF:FF:FF:FF:FF:FF", want: BroadcastMAC},
		{name: "zero", in: "00:00:00:00:00:00", want: ZeroMAC},
		{name: "too few octets", in: "aa:bb:cc:dd:ee", wantErr: true},
		{name: "too many octets", in: "aa:bb:cc:dd:ee:ff:11", wantErr: true},
		{name: "bad hex", in: "aa:bb:cc:dd:ee:gg", wantErr: true},
		{name: "empty", in: "", wantErr: true},
		{name: "long octet", in: "aaa:bb:cc:dd:ee:ff", wantErr: true},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			got, err := ParseMAC(tt.in)
			if tt.wantErr {
				if err == nil {
					t.Fatalf("ParseMAC(%q) = %v, want error", tt.in, got)
				}
				if !errors.Is(err, ErrBadMAC) {
					t.Fatalf("error %v is not ErrBadMAC", err)
				}
				return
			}
			if err != nil {
				t.Fatalf("ParseMAC(%q): %v", tt.in, err)
			}
			if got != tt.want {
				t.Fatalf("ParseMAC(%q) = %v, want %v", tt.in, got, tt.want)
			}
		})
	}
}

func TestMACStringRoundTrip(t *testing.T) {
	f := func(m MAC) bool {
		parsed, err := ParseMAC(m.String())
		return err == nil && parsed == m
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestMACClassification(t *testing.T) {
	tests := []struct {
		name                          string
		m                             MAC
		broadcast, multicast, unicast bool
		zero, local                   bool
	}{
		{name: "broadcast", m: BroadcastMAC, broadcast: true, multicast: true, local: true},
		{name: "zero", m: ZeroMAC, zero: true},
		{name: "plain unicast", m: MustParseMAC("4c:34:88:5e:ea:85"), unicast: true},
		{name: "multicast", m: MustParseMAC("01:80:c2:00:00:00"), multicast: true},
		{name: "locally administered", m: MustParseMAC("02:42:ac:00:00:01"), unicast: true, local: true},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := tt.m.IsBroadcast(); got != tt.broadcast {
				t.Errorf("IsBroadcast = %v, want %v", got, tt.broadcast)
			}
			if got := tt.m.IsMulticast(); got != tt.multicast {
				t.Errorf("IsMulticast = %v, want %v", got, tt.multicast)
			}
			if got := tt.m.IsUnicast(); got != tt.unicast {
				t.Errorf("IsUnicast = %v, want %v", got, tt.unicast)
			}
			if got := tt.m.IsZero(); got != tt.zero {
				t.Errorf("IsZero = %v, want %v", got, tt.zero)
			}
			if got := tt.m.IsLocallyAdministered(); got != tt.local {
				t.Errorf("IsLocallyAdministered = %v, want %v", got, tt.local)
			}
		})
	}
}

func TestParseIPv4(t *testing.T) {
	tests := []struct {
		name    string
		in      string
		want    IPv4
		wantErr bool
	}{
		{name: "plain", in: "192.168.88.250", want: IPv4{192, 168, 88, 250}},
		{name: "zero", in: "0.0.0.0", want: ZeroIPv4},
		{name: "broadcast", in: "255.255.255.255", want: BroadcastIPv4},
		{name: "octet overflow", in: "256.1.1.1", wantErr: true},
		{name: "too few", in: "1.2.3", wantErr: true},
		{name: "too many", in: "1.2.3.4.5", wantErr: true},
		{name: "empty octet", in: "1..2.3", wantErr: true},
		{name: "non-numeric", in: "a.b.c.d", wantErr: true},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			got, err := ParseIPv4(tt.in)
			if tt.wantErr {
				if err == nil {
					t.Fatalf("ParseIPv4(%q) = %v, want error", tt.in, got)
				}
				return
			}
			if err != nil {
				t.Fatalf("ParseIPv4(%q): %v", tt.in, err)
			}
			if got != tt.want {
				t.Fatalf("ParseIPv4(%q) = %v, want %v", tt.in, got, tt.want)
			}
		})
	}
}

func TestIPv4StringRoundTrip(t *testing.T) {
	f := func(ip IPv4) bool {
		parsed, err := ParseIPv4(ip.String())
		return err == nil && parsed == ip
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestIPv4Uint32RoundTrip(t *testing.T) {
	f := func(v uint32) bool {
		return IPv4FromUint32(v).Uint32() == v
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestMACUint64(t *testing.T) {
	if got := MustParseMAC("01:23:45:67:89:ab").Uint64(); got != 0x0123456789ab {
		t.Errorf("Uint64 = %#x, want 0x0123456789ab", got)
	}
	if got := BroadcastMAC.Uint64(); got != 1<<48-1 {
		t.Errorf("broadcast Uint64 = %#x, want 48 one bits", got)
	}
}

func TestSubnet(t *testing.T) {
	n := MustParseSubnet("192.168.88.0/24")
	if got := n.String(); got != "192.168.88.0/24" {
		t.Errorf("String = %q", got)
	}
	if !n.Contains(MustParseIPv4("192.168.88.1")) {
		t.Error("should contain .1")
	}
	if !n.Contains(MustParseIPv4("192.168.88.254")) {
		t.Error("should contain .254")
	}
	if n.Contains(MustParseIPv4("192.168.89.1")) {
		t.Error("should not contain other /24")
	}
	if got, want := n.Host(1), MustParseIPv4("192.168.88.1"); got != want {
		t.Errorf("Host(1) = %v, want %v", got, want)
	}
	if got, want := n.Broadcast(), MustParseIPv4("192.168.88.255"); got != want {
		t.Errorf("Broadcast = %v, want %v", got, want)
	}
	for cidr, want := range map[string]int{"192.168.88.0/24": 254, "10.3.0.0/16": 65534, "10.0.0.0/30": 2, "10.0.0.0/31": 0, "10.0.0.1/32": 0} {
		if got := MustParseSubnet(cidr).HostCount(); got != want {
			t.Errorf("%s HostCount = %d, want %d", cidr, got, want)
		}
	}
}

func TestSubnetNormalizesBase(t *testing.T) {
	n := MustParseSubnet("10.1.2.3/16")
	if got, want := n.Base, MustParseIPv4("10.1.0.0"); got != want {
		t.Errorf("Base = %v, want %v", got, want)
	}
}

func TestParseSubnetErrors(t *testing.T) {
	for _, in := range []string{"10.0.0.0", "10.0.0.0/33", "10.0.0.0/-1", "bad/24", "10.0.0.0/x"} {
		if _, err := ParseSubnet(in); err == nil {
			t.Errorf("ParseSubnet(%q) succeeded, want error", in)
		}
	}
}

func TestMaskEdgeCases(t *testing.T) {
	ip := MustParseIPv4("255.255.255.255")
	if got := ip.Mask(0); got != ZeroIPv4 {
		t.Errorf("Mask(0) = %v", got)
	}
	if got := ip.Mask(32); got != ip {
		t.Errorf("Mask(32) = %v", got)
	}
	if got, want := ip.Mask(8), MustParseIPv4("255.0.0.0"); got != want {
		t.Errorf("Mask(8) = %v, want %v", got, want)
	}
}

func TestIPv4Classification(t *testing.T) {
	if !MustParseIPv4("224.0.0.1").IsMulticast() {
		t.Error("224.0.0.1 should be multicast")
	}
	if MustParseIPv4("223.255.255.255").IsMulticast() {
		t.Error("223.x should not be multicast")
	}
	if !MustParseIPv4("127.0.0.1").IsLoopback() {
		t.Error("127.0.0.1 should be loopback")
	}
	if !BroadcastIPv4.IsBroadcast() {
		t.Error("broadcast flag")
	}
	if !ZeroIPv4.IsZero() {
		t.Error("zero flag")
	}
}

func TestTextMarshaling(t *testing.T) {
	type doc struct {
		MAC MAC  `json:"mac"`
		IP  IPv4 `json:"ip"`
	}
	in := doc{MAC: MustParseMAC("4c:34:88:5e:ea:85"), IP: MustParseIPv4("192.168.88.250")}
	blob, err := json.Marshal(in)
	if err != nil {
		t.Fatal(err)
	}
	want := `{"mac":"4c:34:88:5e:ea:85","ip":"192.168.88.250"}`
	if string(blob) != want {
		t.Fatalf("json = %s, want %s", blob, want)
	}
	var out doc
	if err := json.Unmarshal(blob, &out); err != nil {
		t.Fatal(err)
	}
	if out != in {
		t.Fatalf("round trip: %+v", out)
	}
	if err := json.Unmarshal([]byte(`{"mac":"nope","ip":"1.2.3.4"}`), &out); err == nil {
		t.Fatal("bad mac accepted")
	}
	if err := json.Unmarshal([]byte(`{"mac":"4c:34:88:5e:ea:85","ip":"nope"}`), &out); err == nil {
		t.Fatal("bad ip accepted")
	}
}

func TestGenSeqMACUnique(t *testing.T) {
	g := NewGen(1)
	seen := make(map[MAC]bool)
	for i := 0; i < 1000; i++ {
		m := g.SeqMAC()
		if seen[m] {
			t.Fatalf("duplicate sequential MAC %v at %d", m, i)
		}
		if !m.IsUnicast() {
			t.Fatalf("sequential MAC %v is not unicast", m)
		}
		seen[m] = true
	}
}

func TestGenRandMACProperties(t *testing.T) {
	g := NewGen(2)
	for i := 0; i < 1000; i++ {
		m := g.RandMAC()
		if m.IsMulticast() {
			t.Fatalf("random MAC %v has group bit set", m)
		}
		if !m.IsLocallyAdministered() {
			t.Fatalf("random MAC %v is not locally administered", m)
		}
	}
}

func TestGenDeterminism(t *testing.T) {
	a, b := NewGen(42), NewGen(42)
	for i := 0; i < 100; i++ {
		if a.RandMAC() != b.RandMAC() {
			t.Fatal("RandMAC diverged for equal seeds")
		}
	}
}

func TestGenRandIPv4InSubnet(t *testing.T) {
	g := NewGen(3)
	n := MustParseSubnet("10.9.0.0/20")
	for i := 0; i < 1000; i++ {
		ip := g.RandIPv4(n)
		if !n.Contains(ip) {
			t.Fatalf("RandIPv4 %v outside %v", ip, n)
		}
		if ip == n.Base || ip == n.Broadcast() {
			t.Fatalf("RandIPv4 returned reserved address %v", ip)
		}
	}
}
