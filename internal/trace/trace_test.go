package trace

import (
	"bytes"
	"encoding/binary"
	"testing"
	"time"

	"repro/internal/arppkt"
	"repro/internal/ethaddr"
	"repro/internal/frame"
	"repro/internal/netsim"
	"repro/internal/sim"
)

func tapEvent(f *frame.Frame, port int) netsim.TapEvent {
	return netsim.TapEvent{Port: port, Frame: f, WireLen: f.WireLen()}
}

func arpFrame(p *arppkt.Packet, src, dst ethaddr.MAC) *frame.Frame {
	return &frame.Frame{Dst: dst, Src: src, Type: frame.TypeARP, Payload: p.Encode()}
}

var (
	macA = ethaddr.MustParseMAC("02:42:ac:00:00:01")
	macB = ethaddr.MustParseMAC("02:42:ac:00:00:02")
	ipA  = ethaddr.MustParseIPv4("10.0.0.1")
	ipB  = ethaddr.MustParseIPv4("10.0.0.2")
)

func TestCaptureStats(t *testing.T) {
	c := NewCapture(0)
	tap := c.Tap()
	tap(tapEvent(arpFrame(arppkt.NewRequest(macA, ipA, ipB), macA, ethaddr.BroadcastMAC), 0))
	tap(tapEvent(arpFrame(arppkt.NewReply(macB, ipB, macA, ipA), macB, macA), 1))
	tap(tapEvent(arpFrame(arppkt.NewGratuitousRequest(macA, ipA), macA, ethaddr.BroadcastMAC), 0))
	tap(tapEvent(&frame.Frame{Dst: macB, Src: macA, Type: frame.TypeIPv4, Payload: make([]byte, 100)}, 0))

	st := c.Stats()
	if st.Frames != 4 {
		t.Fatalf("Frames = %d", st.Frames)
	}
	if st.ByType["ARP"] != 3 || st.ByType["IPv4"] != 1 {
		t.Fatalf("ByType = %v", st.ByType)
	}
	if st.ARPOps["request"] != 2 || st.ARPOps["reply"] != 1 {
		t.Fatalf("ARPOps = %v", st.ARPOps)
	}
	if st.Gratuitous != 1 {
		t.Fatalf("Gratuitous = %d", st.Gratuitous)
	}
	if st.Broadcast != 2 {
		t.Fatalf("Broadcast = %d", st.Broadcast)
	}
	if st.Bytes != 60*3+114 {
		t.Fatalf("Bytes = %d", st.Bytes)
	}
}

func TestRingBound(t *testing.T) {
	c := NewCapture(3)
	tap := c.Tap()
	for i := 0; i < 5; i++ {
		tap(tapEvent(&frame.Frame{Dst: macB, Src: macA, Type: frame.TypeIPv4}, i))
	}
	if c.Len() != 3 {
		t.Fatalf("Len = %d", c.Len())
	}
	if c.Dropped() != 2 {
		t.Fatalf("Dropped = %d", c.Dropped())
	}
	recs := c.Records()
	if recs[0].Port != 2 || recs[2].Port != 4 {
		t.Fatalf("ring kept wrong records: %v %v", recs[0].Port, recs[2].Port)
	}
	// Stats still count everything.
	if c.Stats().Frames != 5 {
		t.Fatal("stats should count dropped records")
	}
}

func TestFilterAndARPOnly(t *testing.T) {
	c := NewCapture(0)
	tap := c.Tap()
	tap(tapEvent(arpFrame(arppkt.NewRequest(macA, ipA, ipB), macA, ethaddr.BroadcastMAC), 0))
	tap(tapEvent(&frame.Frame{Dst: macB, Src: macA, Type: frame.TypeIPv4}, 1))
	if got := len(c.ARPOnly()); got != 1 {
		t.Fatalf("ARPOnly = %d", got)
	}
	big := c.Filter(func(r Record) bool { return r.Port == 1 })
	if len(big) != 1 || big[0].Type != "IPv4" {
		t.Fatalf("Filter = %+v", big)
	}
}

func TestWritePCAP(t *testing.T) {
	c := NewCapture(0)
	tap := c.Tap()
	req := arpFrame(arppkt.NewRequest(macA, ipA, ipB), macA, ethaddr.BroadcastMAC)
	tap(netsim.TapEvent{At: 3*time.Second + 250*time.Microsecond, Port: 0, Frame: req, WireLen: req.WireLen()})
	big := &frame.Frame{Dst: macB, Src: macA, Type: frame.TypeIPv4, Payload: make([]byte, 200)}
	tap(netsim.TapEvent{At: 4 * time.Second, Port: 1, Frame: big, WireLen: big.WireLen()})

	var buf bytes.Buffer
	if err := c.WritePCAP(&buf); err != nil {
		t.Fatal(err)
	}
	blob := buf.Bytes()
	// Global header.
	if len(blob) < 24 {
		t.Fatalf("pcap too short: %d", len(blob))
	}
	if got := binary.LittleEndian.Uint32(blob[0:4]); got != 0xa1b2c3d4 {
		t.Fatalf("magic = %#x", got)
	}
	if got := binary.LittleEndian.Uint32(blob[20:24]); got != 1 {
		t.Fatalf("linktype = %d, want Ethernet", got)
	}
	// Record 1: min-size ARP frame (60 octets) at t=3.000250s.
	rec := blob[24:]
	if got := binary.LittleEndian.Uint32(rec[0:4]); got != 3 {
		t.Fatalf("ts_sec = %d", got)
	}
	if got := binary.LittleEndian.Uint32(rec[4:8]); got != 250 {
		t.Fatalf("ts_usec = %d", got)
	}
	n1 := binary.LittleEndian.Uint32(rec[8:12])
	if n1 != 60 {
		t.Fatalf("caplen = %d", n1)
	}
	// The frame bytes decode back to the original ARP packet.
	parsed, err := frame.Decode(rec[16 : 16+n1])
	if err != nil {
		t.Fatal(err)
	}
	if parsed.Type != frame.TypeARP || parsed.Src != macA {
		t.Fatalf("frame round trip: %+v", parsed)
	}
	// Record 2 follows immediately, 214 octets.
	rec2 := rec[16+n1:]
	if got := binary.LittleEndian.Uint32(rec2[8:12]); got != 214 {
		t.Fatalf("second caplen = %d", got)
	}
	if total := 24 + 16 + int(n1) + 16 + 214; total != len(blob) {
		t.Fatalf("file length %d, want %d", len(blob), total)
	}
}

func TestCaptureOnLiveSwitch(t *testing.T) {
	s := sim.NewScheduler(1)
	sw := netsim.NewSwitch(s)
	c := NewCapture(0)
	sw.AddTap(c.Tap())

	a := netsim.NewNIC(s, macA)
	b := netsim.NewNIC(s, macB)
	sw.AddPort().Attach(a)
	sw.AddPort().Attach(b)
	a.Send(arpFrame(arppkt.NewRequest(macA, ipA, ipB), macA, ethaddr.BroadcastMAC))
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if c.Len() != 1 {
		t.Fatalf("captured %d", c.Len())
	}
	if c.Records()[0].Info == "" {
		t.Fatal("missing decoded info")
	}
}
