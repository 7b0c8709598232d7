package netsim

import (
	"testing"

	"repro/internal/ethaddr"
	"repro/internal/frame"
	"repro/internal/sim"
	"repro/internal/telemetry"
)

func TestSwitchInstrumentForwardingCounters(t *testing.T) {
	s := sim.NewScheduler(1)
	sw := NewSwitch(s)
	reg := telemetry.New()
	s.Instrument(reg)
	sw.Instrument(reg)
	st := newLAN(t, s, sw, 3)

	// First unicast: destination unknown → flood + learn sender.
	st[0].nic.Send(uni(st[0].nic.MAC(), st[1].nic.MAC()))
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	// Reply: sender 1 learned port 0 → forwarded, and 1 gets learned.
	st[1].nic.Send(uni(st[1].nic.MAC(), st[0].nic.MAC()))
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}

	if got := reg.Counter("switch_frames_flooded_total").Value(); got != 1 {
		t.Fatalf("flooded = %d", got)
	}
	if got := reg.Counter("switch_frames_forwarded_total").Value(); got != 1 {
		t.Fatalf("forwarded = %d", got)
	}
	if got := reg.Counter("switch_cam_inserts_total").Value(); got != 2 {
		t.Fatalf("cam inserts = %d", got)
	}
	// Ingress byte counters: one frame each on ports 0 and 1, none on 2.
	wire := uint64(uni(st[0].nic.MAC(), st[1].nic.MAC()).WireLen())
	for port, want := range []uint64{wire, wire, 0} {
		got := reg.Counter("switch_port_bytes_total",
			telemetry.L("port", string(rune('0'+port)))).Value()
		if got != want {
			t.Fatalf("port %d bytes = %d, want %d", port, got, want)
		}
	}
}

func TestSwitchInstrumentFilterAndCAMPressure(t *testing.T) {
	s := sim.NewScheduler(1)
	sw := NewSwitch(s, WithCAMCapacity(2))
	reg := telemetry.New()
	s.Instrument(reg)
	sw.Instrument(reg)
	st := newLAN(t, s, sw, 2)
	sw.AddFilter(func(port int, f *frame.Frame) FilterVerdict {
		if port == 1 {
			return VerdictDrop
		}
		return VerdictAllow
	})

	gen := ethaddr.NewGen(7)
	// Port 0 floods frames from many distinct source MACs: 2 inserts fill
	// the CAM, the rest are refused learns → fail-open transition.
	for i := 0; i < 5; i++ {
		st[0].nic.Send(uni(gen.SeqMAC(), ethaddr.BroadcastMAC))
	}
	// Port 1's frame is dropped inline by the filter.
	st[1].nic.Send(uni(st[1].nic.MAC(), ethaddr.BroadcastMAC))
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}

	if got := reg.Counter("switch_frames_filtered_total").Value(); got != 1 {
		t.Fatalf("filtered = %d", got)
	}
	if got := reg.Counter("switch_cam_inserts_total").Value(); got != 2 {
		t.Fatalf("cam inserts = %d", got)
	}
	if got := reg.Counter("switch_learn_misses_total").Value(); got != 3 {
		t.Fatalf("learn misses = %d", got)
	}
	if got := reg.Counter("switch_failopen_transitions_total").Value(); got != 1 {
		t.Fatalf("fail-open transitions = %d (must count the edge once, not per refusal)", got)
	}
}

func TestSwitchInstrumentBeforePortsAdded(t *testing.T) {
	s := sim.NewScheduler(1)
	sw := NewSwitch(s)
	reg := telemetry.New()
	sw.Instrument(reg) // ports added after instrumenting
	st := newLAN(t, s, sw, 2)
	st[0].nic.Send(uni(st[0].nic.MAC(), ethaddr.BroadcastMAC))
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if got := reg.Counter("switch_port_bytes_total", telemetry.L("port", "0")).Value(); got == 0 {
		t.Fatal("port counter created by AddPort did not count")
	}
}
