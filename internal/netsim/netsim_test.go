package netsim

import (
	"testing"
	"time"

	"repro/internal/arppkt"
	"repro/internal/ethaddr"
	"repro/internal/frame"
	"repro/internal/sim"
)

type station struct {
	nic *NIC
	got []*frame.Frame
}

// newLAN builds a switch with n stations attached and returns them.
func newLAN(t *testing.T, s *sim.Scheduler, sw *Switch, n int, opts ...LinkOption) []*station {
	t.Helper()
	gen := ethaddr.NewGen(99)
	stations := make([]*station, n)
	for i := range stations {
		st := &station{nic: NewNIC(s, gen.SeqMAC())}
		st.nic.SetHandler(func(f *frame.Frame) { st.got = append(st.got, f) })
		sw.AddPort().Attach(st.nic, opts...)
		stations[i] = st
	}
	return stations
}

// camHas reports whether mac has a live CAM entry in the default VLAN.
func camHas(sw *Switch, mac ethaddr.MAC) bool {
	return sw.camLookup(1, mac, sw.sched.Now()) != nil
}

func uni(src, dst ethaddr.MAC) *frame.Frame {
	return &frame.Frame{Dst: dst, Src: src, Type: frame.TypeIPv4, Payload: []byte("data")}
}

func TestUnknownUnicastFloods(t *testing.T) {
	s := sim.NewScheduler(1)
	sw := NewSwitch(s)
	st := newLAN(t, s, sw, 4)
	st[0].nic.Send(uni(st[0].nic.MAC(), st[1].nic.MAC()))
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	// Destination unknown: flooded everywhere, but only the addressee accepts.
	if len(st[1].got) != 1 {
		t.Fatalf("addressee got %d frames", len(st[1].got))
	}
	if len(st[2].got) != 0 || len(st[3].got) != 0 {
		t.Fatal("non-addressees accepted unicast not for them")
	}
	if sw.Stats().Flooded != 1 {
		t.Fatalf("Flooded = %d, want 1", sw.Stats().Flooded)
	}
}

func TestLearnedUnicastForwardsToOnePort(t *testing.T) {
	s := sim.NewScheduler(1)
	sw := NewSwitch(s)
	st := newLAN(t, s, sw, 4)
	promisc := st[3]
	promisc.nic.SetPromiscuous(true)

	// First frame teaches the switch where st[1] lives.
	st[1].nic.Send(uni(st[1].nic.MAC(), st[0].nic.MAC()))
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	promisc.got = nil

	st[0].nic.Send(uni(st[0].nic.MAC(), st[1].nic.MAC()))
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if len(st[1].got) != 1 {
		t.Fatalf("addressee got %d", len(st[1].got))
	}
	// Forwarded, not flooded: the promiscuous station on another port sees nothing.
	if len(promisc.got) != 0 {
		t.Fatal("learned unicast leaked to other ports")
	}
	if sw.Stats().Forwarded != 1 {
		t.Fatalf("Forwarded = %d", sw.Stats().Forwarded)
	}
}

func TestBroadcastReachesAllExceptSender(t *testing.T) {
	s := sim.NewScheduler(1)
	sw := NewSwitch(s)
	st := newLAN(t, s, sw, 5)
	st[2].nic.Send(uni(st[2].nic.MAC(), ethaddr.BroadcastMAC))
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	for i, h := range st {
		want := 1
		if i == 2 {
			want = 0
		}
		if len(h.got) != want {
			t.Fatalf("station %d got %d frames, want %d", i, len(h.got), want)
		}
	}
}

func TestPromiscuousSeesFloodedTraffic(t *testing.T) {
	s := sim.NewScheduler(1)
	sw := NewSwitch(s)
	st := newLAN(t, s, sw, 3)
	st[2].nic.SetPromiscuous(true)
	st[0].nic.Send(uni(st[0].nic.MAC(), st[1].nic.MAC())) // unknown dst → flood
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if len(st[2].got) != 1 {
		t.Fatal("promiscuous NIC should capture flooded unicast")
	}
}

func TestCAMCapacityFailOpen(t *testing.T) {
	s := sim.NewScheduler(1)
	sw := NewSwitch(s, WithCAMCapacity(2))
	st := newLAN(t, s, sw, 4)
	sniffer := st[3]
	sniffer.nic.SetPromiscuous(true)

	// Fill the CAM with two stations, flooding random sources from a third.
	st[0].nic.Send(uni(st[0].nic.MAC(), ethaddr.BroadcastMAC))
	st[1].nic.Send(uni(st[1].nic.MAC(), ethaddr.BroadcastMAC))
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if sw.CAMLen() != 2 {
		t.Fatalf("CAMLen = %d, want 2", sw.CAMLen())
	}

	// st[2] cannot be learned now; traffic *to* it keeps flooding — the
	// eavesdropping consequence of a full CAM.
	sniffer.got = nil
	st[2].got = nil
	st[2].nic.Send(uni(st[2].nic.MAC(), st[0].nic.MAC()))
	st[0].nic.Send(uni(st[0].nic.MAC(), st[2].nic.MAC()))
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if len(st[2].got) != 1 {
		t.Fatalf("st2 got %d", len(st[2].got))
	}
	if len(sniffer.got) == 0 {
		t.Fatal("fail-open flooding should expose frames to the sniffer")
	}
	if sw.Stats().LearnMisses == 0 {
		t.Fatal("LearnMisses should be recorded")
	}
}

func TestCAMAgingReclaimsSpace(t *testing.T) {
	s := sim.NewScheduler(1)
	sw := NewSwitch(s, WithCAMCapacity(1))
	sw.camTTL = 100 * time.Millisecond
	st := newLAN(t, s, sw, 3)

	st[0].nic.Send(uni(st[0].nic.MAC(), ethaddr.BroadcastMAC))
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if !camHas(sw, st[0].nic.MAC()) {
		t.Fatal("st0 should be learned")
	}

	// After TTL, a new station can claim the slot.
	s.At(200*time.Millisecond, func() {
		st[1].nic.Send(uni(st[1].nic.MAC(), ethaddr.BroadcastMAC))
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if !camHas(sw, st[1].nic.MAC()) {
		t.Fatal("expired entry should be reclaimed for st1")
	}
	if camHas(sw, st[0].nic.MAC()) {
		t.Fatal("st0 entry should have expired")
	}
}

func TestInlineFilterDrops(t *testing.T) {
	s := sim.NewScheduler(1)
	sw := NewSwitch(s)
	sw.AddFilter(func(port int, f *frame.Frame) FilterVerdict {
		if f.Type == frame.TypeARP {
			return VerdictDrop
		}
		return VerdictAllow
	})
	st := newLAN(t, s, sw, 2)
	arp := &frame.Frame{Dst: ethaddr.BroadcastMAC, Src: st[0].nic.MAC(), Type: frame.TypeARP}
	st[0].nic.Send(arp)
	st[0].nic.Send(uni(st[0].nic.MAC(), ethaddr.BroadcastMAC))
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if len(st[1].got) != 1 || st[1].got[0].Type != frame.TypeIPv4 {
		t.Fatalf("filter outcome wrong: got %d frames", len(st[1].got))
	}
	if sw.Stats().Filtered != 1 {
		t.Fatalf("Filtered = %d", sw.Stats().Filtered)
	}
}

func TestMirrorAll(t *testing.T) {
	s := sim.NewScheduler(1)
	sw := NewSwitch(s)
	st := newLAN(t, s, sw, 3)
	ids := NewNIC(s, ethaddr.MustParseMAC("02:42:ac:00:00:99"))
	ids.SetPromiscuous(true)
	var seen []*frame.Frame
	ids.SetHandler(func(f *frame.Frame) { seen = append(seen, f) })
	mp := sw.AddPort()
	mp.Attach(ids)
	sw.MirrorAllTo(mp)

	// Learn st1 then send a directed frame st0→st1: mirror still sees it.
	st[1].nic.Send(uni(st[1].nic.MAC(), st[0].nic.MAC()))
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	seen = nil
	st[0].nic.Send(uni(st[0].nic.MAC(), st[1].nic.MAC()))
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if len(seen) != 1 {
		t.Fatalf("mirror saw %d frames, want 1", len(seen))
	}
}

func TestTapSeesEverything(t *testing.T) {
	s := sim.NewScheduler(1)
	sw := NewSwitch(s)
	sw.AddFilter(func(int, *frame.Frame) FilterVerdict { return VerdictDrop })
	st := newLAN(t, s, sw, 2)
	var events []TapEvent
	sw.AddTap(func(ev TapEvent) { events = append(events, ev) })
	st[0].nic.Send(uni(st[0].nic.MAC(), ethaddr.BroadcastMAC))
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	// Tap observes even frames the filter subsequently drops.
	if len(events) != 1 {
		t.Fatalf("tap saw %d events", len(events))
	}
	if events[0].Port != 0 || events[0].WireLen != 60 {
		t.Fatalf("tap event fields: %+v", events[0])
	}
}

func TestLinkLatency(t *testing.T) {
	s := sim.NewScheduler(1)
	sw := NewSwitch(s)
	var arrival time.Duration
	gen := ethaddr.NewGen(5)
	a := NewNIC(s, gen.SeqMAC())
	b := NewNIC(s, gen.SeqMAC())
	b.SetHandler(func(*frame.Frame) { arrival = s.Now() })
	sw.AddPort().Attach(a, WithLatency(1*time.Millisecond))
	sw.AddPort().Attach(b, WithLatency(2*time.Millisecond))
	a.Send(uni(a.MAC(), ethaddr.BroadcastMAC))
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if arrival != 3*time.Millisecond {
		t.Fatalf("arrival = %v, want 3ms", arrival)
	}
}

func TestLinkLossDropsAllAtProbabilityOne(t *testing.T) {
	s := sim.NewScheduler(1)
	sw := NewSwitch(s)
	gen := ethaddr.NewGen(5)
	a := NewNIC(s, gen.SeqMAC())
	b := NewNIC(s, gen.SeqMAC())
	delivered := 0
	b.SetHandler(func(*frame.Frame) { delivered++ })
	sw.AddPort().Attach(a, WithLoss(1.0))
	sw.AddPort().Attach(b)
	for i := 0; i < 20; i++ {
		a.Send(uni(a.MAC(), ethaddr.BroadcastMAC))
	}
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if delivered != 0 {
		t.Fatalf("delivered %d frames over a fully lossy link", delivered)
	}
}

func TestNICDownDropsTraffic(t *testing.T) {
	s := sim.NewScheduler(1)
	sw := NewSwitch(s)
	st := newLAN(t, s, sw, 2)
	st[1].nic.SetUp(false)
	st[0].nic.Send(uni(st[0].nic.MAC(), ethaddr.BroadcastMAC))
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if len(st[1].got) != 0 {
		t.Fatal("down NIC accepted a frame")
	}
	st[1].nic.SetUp(true)
	st[1].nic.Send(uni(st[1].nic.MAC(), ethaddr.BroadcastMAC))
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if len(st[0].got) != 1 {
		t.Fatal("frame after SetUp(true) lost")
	}
}

func TestNICStats(t *testing.T) {
	s := sim.NewScheduler(1)
	sw := NewSwitch(s)
	st := newLAN(t, s, sw, 2)
	st[0].nic.Send(uni(st[0].nic.MAC(), ethaddr.BroadcastMAC))
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	tx := st[0].nic.Stats()
	rx := st[1].nic.Stats()
	if tx.TxFrames != 1 || tx.TxBytes != 60 {
		t.Fatalf("tx stats: %+v", tx)
	}
	if rx.RxFrames != 1 || rx.RxBytes != 60 {
		t.Fatalf("rx stats: %+v", rx)
	}
}

func TestHubRepeatsEverywhere(t *testing.T) {
	s := sim.NewScheduler(1)
	h := NewHub(s)
	gen := ethaddr.NewGen(7)
	stations := make([]*station, 3)
	for i := range stations {
		st := &station{nic: NewNIC(s, gen.SeqMAC())}
		st.nic.SetHandler(func(f *frame.Frame) { st.got = append(st.got, f) })
		h.AddPort().Attach(st.nic)
		stations[i] = st
	}
	stations[2].nic.SetPromiscuous(true)
	stations[0].nic.Send(uni(stations[0].nic.MAC(), stations[1].nic.MAC()))
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if len(stations[1].got) != 1 {
		t.Fatal("hub addressee missed frame")
	}
	if len(stations[2].got) != 1 {
		t.Fatal("hub should expose all frames to a promiscuous third party")
	}
}

func TestVLANIsolatesBroadcast(t *testing.T) {
	s := sim.NewScheduler(1)
	sw := NewSwitch(s)
	st := newLAN(t, s, sw, 4)
	// st0, st1 stay in VLAN 1; st2, st3 move to VLAN 2.
	sw.ports[2].SetVLAN(2)
	sw.ports[3].SetVLAN(2)

	st[0].nic.Send(uni(st[0].nic.MAC(), ethaddr.BroadcastMAC))
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if len(st[1].got) != 1 {
		t.Fatal("same-VLAN station missed the broadcast")
	}
	if len(st[2].got) != 0 || len(st[3].got) != 0 {
		t.Fatal("broadcast crossed the VLAN boundary")
	}
}

func TestVLANIsolatesUnknownUnicastFlood(t *testing.T) {
	s := sim.NewScheduler(1)
	sw := NewSwitch(s)
	st := newLAN(t, s, sw, 3)
	sw.ports[2].SetVLAN(2)
	sniffer := st[2]
	sniffer.nic.SetPromiscuous(true)

	st[0].nic.Send(uni(st[0].nic.MAC(), st[1].nic.MAC())) // unknown → flood in VLAN 1
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if len(st[1].got) != 1 {
		t.Fatal("same-VLAN delivery failed")
	}
	if len(sniffer.got) != 0 {
		t.Fatal("fail-open flood leaked across VLANs")
	}
}

func TestVLANScopedLearning(t *testing.T) {
	// The same MAC learned in VLAN 1 must not satisfy lookups in VLAN 2.
	s := sim.NewScheduler(1)
	sw := NewSwitch(s)
	st := newLAN(t, s, sw, 3)
	sw.ports[1].SetVLAN(2)
	sw.ports[2].SetVLAN(2)

	// st0 (VLAN 1) announces; its MAC is learned in VLAN 1 only.
	st[0].nic.Send(uni(st[0].nic.MAC(), ethaddr.BroadcastMAC))
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	// st1 (VLAN 2) sends to st0's MAC: no VLAN-2 entry → flood within
	// VLAN 2 only; st0 must never receive it.
	st[1].nic.Send(uni(st[1].nic.MAC(), st[0].nic.MAC()))
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if len(st[0].got) != 0 {
		t.Fatal("cross-VLAN unicast was delivered")
	}
}

func TestVLANBoundsPoisoningBlastRadius(t *testing.T) {
	// Segmentation as mitigation: a broadcast poisoning reaches only the
	// attacker's own segment.
	s := sim.NewScheduler(1)
	sw := NewSwitch(s)
	st := newLAN(t, s, sw, 4)
	sw.ports[0].SetVLAN(2) // st0 isolated from the attacker's VLAN 1

	poison := arppkt.NewGratuitousRequest(st[3].nic.MAC(), ethaddr.MustParseIPv4("10.0.0.254"))
	st[3].nic.Send(&frame.Frame{
		Dst: ethaddr.BroadcastMAC, Src: st[3].nic.MAC(),
		Type: frame.TypeARP, Payload: poison.Encode(),
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if len(st[0].got) != 0 {
		t.Fatal("poison crossed the VLAN boundary")
	}
	if len(st[1].got) != 1 || len(st[2].got) != 1 {
		t.Fatal("poison should still reach the attacker's own segment")
	}
}

func TestMirrorSpansVLANs(t *testing.T) {
	s := sim.NewScheduler(1)
	sw := NewSwitch(s)
	st := newLAN(t, s, sw, 2)
	sw.ports[1].SetVLAN(2)

	mon := NewNIC(s, ethaddr.MustParseMAC("02:42:ac:00:00:99"))
	mon.SetPromiscuous(true)
	var seen int
	mon.SetHandler(func(*frame.Frame) { seen++ })
	mp := sw.AddPort()
	mp.SetVLAN(99)
	mp.Attach(mon)
	sw.MirrorAllTo(mp)

	st[0].nic.Send(uni(st[0].nic.MAC(), ethaddr.BroadcastMAC)) // VLAN 1
	st[1].nic.Send(uni(st[1].nic.MAC(), ethaddr.BroadcastMAC)) // VLAN 2
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if seen != 2 {
		t.Fatalf("mirror saw %d frames, want both VLANs", seen)
	}
}

func TestSwitchLocalDeliveryNotReflected(t *testing.T) {
	// A frame whose learned destination is the ingress port is not sent back.
	s := sim.NewScheduler(1)
	sw := NewSwitch(s)
	st := newLAN(t, s, sw, 2)
	// Teach the switch both stations (on their true ports).
	st[0].nic.Send(uni(st[0].nic.MAC(), ethaddr.BroadcastMAC))
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	// Forge a frame from port 1 addressed to st0... wait, that's forwarding.
	// Instead: frame from port 0 addressed to st0's own MAC (learned on 0).
	st[0].got = nil
	st[1].got = nil
	f := uni(st[0].nic.MAC(), st[0].nic.MAC())
	st[0].nic.Send(f)
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if len(st[0].got) != 0 && len(st[1].got) != 0 {
		t.Fatal("frame to own port should not be repeated")
	}
}
