package netsim

import (
	"testing"

	"repro/internal/ethaddr"
	"repro/internal/frame"
	"repro/internal/sim"
)

// sendOnlyLAN is a switch with two ordinary stations (0 and 1), a
// promiscuous monitor on the mirror port (2), and a send-only injector
// (port 3), every receiver recording what it accepts. monOpts attach the
// monitor.
func sendOnlyLAN(t *testing.T, monOpts ...LinkOption) (s *sim.Scheduler, sw *Switch, st []*station, mon, inj *station) {
	t.Helper()
	s = sim.NewScheduler(1)
	sw = NewSwitch(s)
	st = newLAN(t, s, sw, 2)
	attach := func(mac string, opts ...LinkOption) *station {
		x := &station{nic: NewNIC(s, ethaddr.MustParseMAC(mac))}
		x.nic.SetHandler(func(f *frame.Frame) { x.got = append(x.got, f) })
		sw.AddPort().Attach(x.nic, opts...)
		return x
	}
	mon = attach("02:42:ac:00:00:98", monOpts...)
	mon.nic.SetPromiscuous(true)
	sw.MirrorAllTo(sw.ports[2])
	inj = attach("02:42:ac:00:00:99", SendOnly())
	inj.nic.SetPromiscuous(true) // would accept anything the fabric delivered
	return s, sw, st, mon, inj
}

// TestSendOnlyPortTransmitsButNeverReceives pins the send-only contract:
// the injector's frames are learned, mirrored and delivered as any
// station's; a broadcast leaves it out; a unicast frame addressed to it is
// counted as forwarded but schedules no transit and carries no egress
// octets, while the monitor still gets exactly one copy.
func TestSendOnlyPortTransmitsButNeverReceives(t *testing.T) {
	s, sw, st, mon, inj := sendOnlyLAN(t)
	run := func() {
		t.Helper()
		if err := s.Run(); err != nil {
			t.Fatal(err)
		}
	}

	inj.nic.Send(uni(inj.nic.MAC(), st[0].nic.MAC())) // teaches the CAM port 3
	run()
	if !camHas(sw, inj.nic.MAC()) {
		t.Fatal("send-only station not learned")
	}
	if len(st[0].got) != 1 || len(mon.got) != 1 {
		t.Fatalf("injector's frame: addressee got %d, monitor %d, want 1 and 1", len(st[0].got), len(mon.got))
	}

	mon.got = nil
	st[1].nic.Send(uni(st[1].nic.MAC(), ethaddr.BroadcastMAC))
	run()
	if len(inj.got) != 0 || len(st[0].got) != 2 || len(mon.got) != 1 {
		t.Fatalf("broadcast: injector got %d, station 0 %d, monitor %d; want 0, 2, 1",
			len(inj.got), len(st[0].got), len(mon.got))
	}

	mon.got = nil
	before := sw.Stats()
	f := uni(st[0].nic.MAC(), inj.nic.MAC())
	sw.ingress(0, f)
	if got := s.Pending(); got != 1 {
		t.Fatalf("unicast to a send-only port left %d events pending, want 1 (the mirror copy)", got)
	}
	run()
	after := sw.Stats()
	if len(inj.got) != 0 || len(mon.got) != 1 {
		t.Fatalf("unicast: injector got %d, monitor %d; want 0 and 1", len(inj.got), len(mon.got))
	}
	if after.Forwarded != before.Forwarded+1 || after.Flooded != before.Flooded {
		t.Fatalf("unicast counted Forwarded %d→%d, Flooded %d→%d; want one forwarding decision",
			before.Forwarded, after.Forwarded, before.Flooded, after.Flooded)
	}
	if got, want := after.BytesOutByType[frame.TypeIPv4], before.BytesOutByType[frame.TypeIPv4]; got != want {
		t.Fatalf("egress IPv4 octets %d→%d, want no egress for a discarded frame", want, got)
	}
	if got, want := after.BytesByType[frame.TypeIPv4], before.BytesByType[frame.TypeIPv4]+uint64(f.WireLen()); got != want {
		t.Fatalf("ingress IPv4 octets %d, want %d", got, want)
	}
	if rx := inj.nic.Stats(); rx.RxFrames != 0 || rx.TxFrames != 1 {
		t.Fatalf("injector NIC stats %+v, want 1 tx and 0 rx", rx)
	}
	if d := inj.nic.Link().Stats().Delivered; d != 1 {
		t.Fatalf("injector link Delivered = %d, want 1 (its own transmission only)", d)
	}
}

// TestSendOnlyIgnoredOnMirrorPort pins that the mirror port always
// receives: a monitor attached send-only sees each frame exactly once,
// whether flooded, forwarded to it, or copied by the SPAN.
func TestSendOnlyIgnoredOnMirrorPort(t *testing.T) {
	s, _, st, mon, _ := sendOnlyLAN(t, SendOnly())
	st[0].nic.Send(uni(st[0].nic.MAC(), ethaddr.BroadcastMAC)) // flooded
	st[1].nic.Send(uni(st[1].nic.MAC(), st[0].nic.MAC()))      // SPAN copy
	mon.nic.Send(uni(mon.nic.MAC(), st[0].nic.MAC()))          // learns the monitor
	st[0].nic.Send(uni(st[0].nic.MAC(), mon.nic.MAC()))        // forwarded to the mirror
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if len(mon.got) != 3 {
		t.Fatalf("send-only mirror port got %d frames, want 3", len(mon.got))
	}
}
