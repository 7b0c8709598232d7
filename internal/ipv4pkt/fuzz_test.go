package ipv4pkt

import (
	"bytes"
	"reflect"
	"testing"
	"testing/quick"
)

// TestDecodersNeverPanicOnGarbage: every wire decoder must be total over
// arbitrary input — they parse attacker-controlled bytes.
func TestDecodersNeverPanicOnGarbage(t *testing.T) {
	f := func(buf []byte) (ok bool) {
		defer func() {
			if recover() != nil {
				ok = false
			}
		}()
		if p, err := Decode(buf); err == nil {
			// Nested decoders must also be total over the payload.
			_, _ = DecodeICMPEcho(p.Payload)
			_, _ = DecodeUDP(p.Payload)
		}
		_, _ = DecodeICMPEcho(buf)
		_, _ = DecodeUDP(buf)
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

// FuzzIPv4 checks the allocation-free codec paths against the allocating
// ones on arbitrary bytes: DecodeInto agrees with Decode (result and
// error), AppendEncode agrees with Encode behind an arbitrary prefix, and
// a decoded packet re-encodes to bytes that decode back to it. UDP
// payloads get the same three checks. The seed corpus lives in
// testdata/fuzz/FuzzIPv4.
func FuzzIPv4(f *testing.F) {
	f.Fuzz(func(t *testing.T, buf []byte) {
		want, werr := Decode(buf)
		var got Packet
		gerr := DecodeInto(&got, buf)
		if (werr == nil) != (gerr == nil) || werr != nil && werr.Error() != gerr.Error() {
			t.Fatalf("Decode error %v, DecodeInto error %v", werr, gerr)
		}
		if werr != nil {
			return
		}
		if !reflect.DeepEqual(*want, got) {
			t.Fatalf("Decode %+v, DecodeInto %+v", *want, got)
		}
		enc := got.Encode()
		prefix := []byte{0xde, 0xad}
		if app := got.AppendEncode(prefix[:2:2]); !bytes.Equal(app[:2], prefix) || !bytes.Equal(app[2:], enc) {
			t.Fatalf("AppendEncode %x, want %x after the prefix %x", app, enc, prefix)
		}
		var back Packet
		if err := DecodeInto(&back, enc); err != nil || !reflect.DeepEqual(back, got) {
			t.Fatalf("round trip: %+v (%v), want %+v", back, err, got)
		}
		if got.Proto != ProtoUDP {
			return
		}
		wu, werr := DecodeUDP(got.Payload)
		var gu UDP
		gerr = DecodeUDPInto(&gu, got.Payload)
		if (werr == nil) != (gerr == nil) || werr != nil && werr.Error() != gerr.Error() {
			t.Fatalf("DecodeUDP error %v, DecodeUDPInto error %v", werr, gerr)
		}
		if werr != nil {
			return
		}
		if !reflect.DeepEqual(*wu, gu) {
			t.Fatalf("DecodeUDP %+v, DecodeUDPInto %+v", *wu, gu)
		}
		uenc := gu.Encode()
		if app := gu.AppendEncode(prefix[:2:2]); !bytes.Equal(app[2:], uenc) {
			t.Fatalf("UDP AppendEncode %x, want %x", app[2:], uenc)
		}
		var ub UDP
		if err := DecodeUDPInto(&ub, uenc); err != nil || !reflect.DeepEqual(ub, gu) {
			t.Fatalf("UDP round trip: %+v (%v), want %+v", ub, err, gu)
		}
	})
}
