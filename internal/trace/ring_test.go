package trace

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
	"time"

	"repro/internal/arppkt"
	"repro/internal/ethaddr"
	"repro/internal/frame"
	"repro/internal/netsim"
)

// TestWritePCAPGolden checks the exported bytes against a hand-assembled
// libpcap fixture: global header (magic, version 2.4, snaplen, Ethernet
// linktype) and the per-record header fields, byte for byte.
func TestWritePCAPGolden(t *testing.T) {
	c := NewCapture(0)
	req := arpFrame(arppkt.NewRequest(macA, ipA, ipB), macA, ethaddr.BroadcastMAC)
	c.Tap()(netsim.TapEvent{
		At: 12*time.Second + 345678*time.Microsecond, Port: 0,
		Frame: req, WireLen: req.WireLen(),
	})

	var buf bytes.Buffer
	if err := c.WritePCAP(&buf); err != nil {
		t.Fatal(err)
	}
	got := buf.Bytes()

	wire, err := req.Encode()
	if err != nil {
		t.Fatal(err)
	}
	want := []byte{
		0xd4, 0xc3, 0xb2, 0xa1, // magic, little-endian on the wire
		0x02, 0x00, // version major = 2
		0x04, 0x00, // version minor = 4
		0x00, 0x00, 0x00, 0x00, // thiszone
		0x00, 0x00, 0x00, 0x00, // sigfigs
		0xff, 0xff, 0x00, 0x00, // snaplen = 65535
		0x01, 0x00, 0x00, 0x00, // linktype = 1 (Ethernet)
		0x0c, 0x00, 0x00, 0x00, // ts_sec = 12
		0x4e, 0x46, 0x05, 0x00, // ts_usec = 345678
		0x3c, 0x00, 0x00, 0x00, // incl_len = 60
		0x3c, 0x00, 0x00, 0x00, // orig_len = 60
	}
	want = append(want, wire...)
	if !bytes.Equal(got, want) {
		t.Fatalf("pcap bytes differ\n got: %x\nwant: %x", got, want)
	}
}

// TestWriteNDJSONAfterOverflow checks the export goes through the snapshot
// path: the records come out oldest-first even when the ring head has
// wrapped, and Stats reports the dropped count.
func TestWriteNDJSONAfterOverflow(t *testing.T) {
	c := NewCapture(2)
	tap := c.Tap()
	for i := 0; i < 5; i++ {
		tap(tapEvent(&frame.Frame{Dst: macB, Src: macA, Type: frame.TypeIPv4}, i))
	}
	var buf bytes.Buffer
	if err := c.WriteNDJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var ports []int
	for _, line := range strings.SplitAfter(strings.TrimSuffix(buf.String(), "\n"), "\n") {
		var rec NDJSONRecord
		if err := json.Unmarshal([]byte(line), &rec); err != nil {
			t.Fatal(err)
		}
		ports = append(ports, rec.Port)
	}
	if len(ports) != 2 || ports[0] != 3 || ports[1] != 4 {
		t.Fatalf("records not oldest-first after wrap: ports %v", ports)
	}
	st := c.Stats()
	if st.Dropped != 3 || c.Dropped() != 3 {
		t.Fatalf("stats.dropped = %d, Dropped() = %d", st.Dropped, c.Dropped())
	}
	if st.Frames != 5 {
		t.Fatalf("frames = %d", st.Frames)
	}
}

// TestRingWrapManyTimes drives the ring through several full revolutions
// and confirms retention is always the most recent max records in order.
func TestRingWrapManyTimes(t *testing.T) {
	c := NewCapture(7)
	tap := c.Tap()
	const total = 100
	for i := 0; i < total; i++ {
		tap(tapEvent(&frame.Frame{Dst: macB, Src: macA, Type: frame.TypeIPv4}, i))
	}
	recs := c.Records()
	if len(recs) != 7 {
		t.Fatalf("len = %d", len(recs))
	}
	for i, r := range recs {
		if want := total - 7 + i; r.Port != want {
			t.Fatalf("record %d: port %d, want %d", i, r.Port, want)
		}
	}
	if c.Dropped() != total-7 {
		t.Fatalf("dropped = %d", c.Dropped())
	}
}

// TestTallyMatchesCapture feeds the same stream — ARP requests, replies,
// gratuitous claims, a truncated ARP payload and IPv4 — to a Capture and a
// Tally of the same bound, past the bound, and wants identical Stats,
// Dropped included, at every step and for a tally that saw nothing.
func TestTallyMatchesCapture(t *testing.T) {
	const bound = 5
	c, tl := NewCapture(bound), NewTally(bound)
	if got, want := mustJSON(t, tl.Stats()), mustJSON(t, c.Stats()); got != want {
		t.Fatalf("empty tally stats %s, capture %s", got, want)
	}
	frames := []*frame.Frame{
		arpFrame(arppkt.NewRequest(macA, ipA, ipB), macA, ethaddr.BroadcastMAC),
		arpFrame(arppkt.NewReply(macB, ipB, macA, ipA), macB, macA),
		arpFrame(arppkt.NewGratuitousReply(macA, ipA), macA, ethaddr.BroadcastMAC),
		{Dst: macB, Src: macA, Type: frame.TypeARP, Payload: []byte{0, 1}},
		{Dst: macB, Src: macA, Type: frame.TypeIPv4, Payload: make([]byte, 40)},
	}
	ctap, ttap := c.Tap(), tl.Tap()
	for i := 0; i < 3*bound; i++ {
		ev := tapEvent(frames[i%len(frames)], i)
		ctap(ev)
		ttap(ev)
		if got, want := mustJSON(t, tl.Stats()), mustJSON(t, c.Stats()); got != want {
			t.Fatalf("after %d frames: tally stats %s, capture %s", i+1, got, want)
		}
	}
	if st := tl.Stats(); st.Dropped != 2*bound {
		t.Fatalf("tally Dropped = %d, want %d", st.Dropped, 2*bound)
	}
}

func mustJSON(t *testing.T, v any) string {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// BenchmarkCaptureOverflowAppend measures the steady-state append cost of a
// full capture. The circular buffer overwrites in place, so the per-append
// cost must stay flat (and small) regardless of the retention bound — the
// old slice-shift eviction was O(len) per append.
func BenchmarkCaptureOverflowAppend(b *testing.B) {
	for _, size := range []int{1024, 65536} {
		b.Run(byteSizeName(size), func(b *testing.B) {
			c := NewCapture(size)
			f := &frame.Frame{Dst: macB, Src: macA, Type: frame.TypeIPv4}
			ev := netsim.TapEvent{Port: 1, Frame: f, WireLen: f.WireLen()}
			for i := 0; i < size; i++ { // fill to the bound
				c.observe(ev)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				c.observe(ev)
			}
		})
	}
}

func byteSizeName(n int) string {
	switch {
	case n >= 1<<16:
		return "cap64Ki"
	default:
		return "cap1Ki"
	}
}
