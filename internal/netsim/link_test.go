package netsim

import (
	"testing"
	"time"

	"repro/internal/ethaddr"
	"repro/internal/frame"
	"repro/internal/sim"
)

// lossyPair wires stations 0..n-1 to a fresh switch, each with 30% link
// loss, and returns them. Scheduler seed is fixed so runs are comparable.
func lossyPair(t *testing.T, n int) (*sim.Scheduler, *Switch, []*station) {
	t.Helper()
	s := sim.NewScheduler(1)
	sw := NewSwitch(s)
	return s, sw, newLAN(t, s, sw, n, WithLoss(0.3))
}

// TestLinkLossStreamIsolation is the per-link-stream regression guard:
// adding unrelated lossy traffic elsewhere on the switch must not change
// which of a link's own frames are dropped. Under a single shared RNG the
// interleaved draws would re-key every link's drop pattern; with per-link
// derived streams the outcome depends only on the link's own history.
func TestLinkLossStreamIsolation(t *testing.T) {
	const frames = 400
	run := func(withNeighbours bool) int {
		n := 2
		if withNeighbours {
			n = 4
		}
		s, _, st := lossyPair(t, n)
		if withNeighbours {
			// The neighbour pair lives in its own VLAN so its frames never
			// cross station 0/1's links — only their RNG draws could leak.
			st[2].nic.port.SetVLAN(2)
			st[3].nic.port.SetVLAN(2)
		}
		for i := 0; i < frames; i++ {
			i := i
			s.At(time.Duration(i)*time.Millisecond, func() {
				st[0].nic.Send(uni(st[0].nic.MAC(), st[1].nic.MAC()))
			})
			if withNeighbours {
				s.At(time.Duration(i)*time.Millisecond+500*time.Microsecond, func() {
					st[2].nic.Send(uni(st[2].nic.MAC(), st[3].nic.MAC()))
				})
			}
		}
		if err := s.Run(); err != nil {
			t.Fatal(err)
		}
		return len(st[1].got)
	}
	alone := run(false)
	crowded := run(true)
	if alone == 0 || alone == frames {
		t.Fatalf("degenerate baseline: %d/%d delivered", alone, frames)
	}
	if alone != crowded {
		t.Fatalf("neighbour traffic re-keyed the link's loss stream: %d delivered alone, %d crowded",
			alone, crowded)
	}
}

// TestLinkLossStreamsDifferPerLink confirms the derived streams are actually
// distinct: two links with identical parameters and identical offered load
// must not drop the exact same frame positions.
func TestLinkLossStreamsDifferPerLink(t *testing.T) {
	s, _, st := lossyPair(t, 4)
	st[2].nic.port.SetVLAN(2)
	st[3].nic.port.SetVLAN(2)
	const frames = 300
	for i := 0; i < frames; i++ {
		s.At(time.Duration(i)*time.Millisecond, func() {
			st[0].nic.Send(uni(st[0].nic.MAC(), st[1].nic.MAC()))
			st[2].nic.Send(uni(st[2].nic.MAC(), st[3].nic.MAC()))
		})
	}
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	a, b := st[0].nic.Link().Stats(), st[2].nic.Link().Stats()
	if a.LossDropped == 0 || b.LossDropped == 0 {
		t.Fatalf("no losses to compare: %+v %+v", a, b)
	}
	if a.LossDropped == b.LossDropped && len(st[1].got) == len(st[3].got) {
		t.Fatal("two links produced identical drop patterns — streams are shared")
	}
}

func TestLinkSetDownDropsAndRestores(t *testing.T) {
	s := sim.NewScheduler(1)
	sw := NewSwitch(s)
	st := newLAN(t, s, sw, 2)
	link := st[0].nic.Link()

	link.SetDown(true)
	st[0].nic.Send(uni(st[0].nic.MAC(), st[1].nic.MAC()))
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if len(st[1].got) != 0 {
		t.Fatal("frame crossed a downed link")
	}
	if link.Stats().DownDropped != 1 {
		t.Fatalf("DownDropped = %d, want 1", link.Stats().DownDropped)
	}

	// A downed link kills both directions of the attachment.
	st[1].nic.Send(uni(st[1].nic.MAC(), st[0].nic.MAC()))
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if len(st[0].got) != 0 {
		t.Fatal("delivery crossed a downed link")
	}

	link.SetDown(false)
	if link.Down() {
		t.Fatal("Down() true after SetDown(false)")
	}
	st[0].nic.Send(uni(st[0].nic.MAC(), st[1].nic.MAC()))
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if len(st[1].got) != 1 {
		t.Fatal("restored link did not deliver")
	}
}

// scriptedImpairment replays a fixed verdict sequence.
type scriptedImpairment struct {
	verdicts []Verdict
	i        int
}

func (si *scriptedImpairment) Judge(int) Verdict {
	v := si.verdicts[si.i%len(si.verdicts)]
	si.i++
	return v
}

func TestLinkImpairmentVerdicts(t *testing.T) {
	s := sim.NewScheduler(1)
	sw := NewSwitch(s)
	st := newLAN(t, s, sw, 2)
	link := st[0].nic.Link()
	link.SetImpairment(&scriptedImpairment{verdicts: []Verdict{
		{Drop: true},
		{Delay: 5 * time.Millisecond},
		{Duplicate: true, DuplicateDelay: time.Millisecond},
		{},
	}})
	var arrivals []time.Duration
	st[1].nic.SetHandler(func(f *frame.Frame) { arrivals = append(arrivals, s.Now()) })
	for i := 0; i < 4; i++ {
		s.At(time.Duration(i)*100*time.Millisecond, func() {
			st[0].nic.Send(uni(st[0].nic.MAC(), st[1].nic.MAC()))
		})
	}
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	// Frame 0 dropped; frame 1 delayed; frame 2 duplicated; frame 3 clean.
	if len(arrivals) != 4 {
		t.Fatalf("arrivals = %d, want 4 (1 delayed + 2 duplicate copies + 1 clean)", len(arrivals))
	}
	stats := link.Stats()
	if stats.FaultDropped != 1 || stats.Reordered != 1 || stats.Duplicated != 1 {
		t.Fatalf("stats: %+v", stats)
	}
	if stats.Delivered != 4 {
		t.Fatalf("Delivered = %d, want 4", stats.Delivered)
	}
	// The delayed frame arrives 5ms after its send instant plus the base
	// latency of both crossed links (sender's and receiver's attachment);
	// the duplicate's copy trails the original by 1ms.
	base := 2 * st[0].nic.Link().params.latency
	if want := 100*time.Millisecond + 5*time.Millisecond + base; arrivals[0] != want {
		t.Fatalf("delayed arrival at %v, want %v", arrivals[0], want)
	}
	if arrivals[2]-arrivals[1] != time.Millisecond {
		t.Fatalf("duplicate copy trailed by %v, want 1ms", arrivals[2]-arrivals[1])
	}
	// Clearing the impairment restores clean forwarding.
	link.SetImpairment(nil)
	st[0].nic.Send(uni(st[0].nic.MAC(), st[1].nic.MAC()))
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if len(arrivals) != 5 {
		t.Fatal("frame lost after impairment removed")
	}
}

// TestRandomEvictionDeterministic pins CAM eviction to the scheduler's
// seeded stream and the insertion-order index: two identical runs must
// evict identical victims. (Choosing victims by map iteration would pass
// any single-run test and still differ between runs or processes.)
func TestRandomEvictionDeterministic(t *testing.T) {
	run := func() []string {
		s := sim.NewScheduler(77)
		sw := NewSwitch(s, WithCAMCapacity(8), WithCAMEvictRandom())
		st := newLAN(t, s, sw, 2)
		gen := ethaddr.NewGen(5)
		macs := make([]ethaddr.MAC, 64)
		for i := range macs {
			macs[i] = gen.SeqMAC()
		}
		for i, mac := range macs {
			mac := mac
			s.At(time.Duration(i)*time.Millisecond, func() {
				st[0].nic.Send(&frame.Frame{Dst: st[1].nic.MAC(), Src: mac, Type: frame.TypeIPv4})
			})
		}
		if err := s.Run(); err != nil {
			t.Fatal(err)
		}
		var survivors []string
		for _, mac := range macs {
			if camHas(sw, mac) {
				survivors = append(survivors, mac.String())
			}
		}
		if len(survivors) != 8 {
			t.Fatalf("survivors = %d, want a full CAM of 8", len(survivors))
		}
		return survivors
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("eviction diverged between identical runs:\n%v\n%v", a, b)
		}
	}
}
