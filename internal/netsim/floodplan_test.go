package netsim

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"
	"time"

	"repro/internal/ethaddr"
	"repro/internal/frame"
	"repro/internal/sim"
)

// refFlood is the reference model of Switch.flood without flood plans:
// every flood re-walks the switch's ports, decides batching from the live
// Port→NIC→Link chain, and copies the receivers into the scheduled
// delivery. It schedules exactly the events the switch does, so two worlds
// driven by the same operations stay in lockstep while they agree.
func refFlood(sw *Switch, ingress int, f *frame.Frame) bool {
	sw.stats.Flooded++
	wire := uint64(f.WireLen())
	vlan := sw.ports[ingress].vlan
	// egress reports whether a flood from ingress leaves by p: an attached
	// port of the VLAN other than the ingress, and not send-only unless it
	// is the mirror port.
	egress := func(p *Port) bool {
		return p.id != ingress && p.nic != nil && p.vlan == vlan &&
			(!p.sendOnly || (sw.mirror != nil && p.id == sw.mirror.id))
	}

	batchable := true
	var d time.Duration
	n := 0
	for _, p := range sw.ports {
		if !egress(p) {
			continue
		}
		l := p.nic.link
		if l.down || l.impair != nil || l.lossRng != nil || l.params.jitter > 0 || l.rec != nil {
			batchable = false
			break
		}
		ld := l.params.latency
		if n == 0 {
			d = ld
		} else if ld != d {
			batchable = false
			break
		}
		n++
	}

	reachedMirror := false
	if batchable && n > 0 {
		var nics []*NIC
		for _, p := range sw.ports {
			if !egress(p) {
				continue
			}
			if sw.mirror != nil && p.id == sw.mirror.id {
				reachedMirror = true
			}
			p.nic.link.stats.Delivered++
			nics = append(nics, p.nic)
		}
		sw.bytesOut.add(f.Type, wire*uint64(len(nics)))
		sw.sched.After(d, func() {
			for _, nic := range nics {
				nic.deliver(f)
			}
		})
		return reachedMirror
	}

	replicas := uint64(0)
	for _, p := range sw.ports {
		if !egress(p) {
			continue
		}
		if sw.mirror != nil && p.id == sw.mirror.id {
			reachedMirror = true
		}
		replicas++
		p.send(f)
	}
	sw.bytesOut.add(f.Type, wire*replicas)
	return reachedMirror
}

// floodWorld is one switch and everything ever attached to it, with every
// frame a NIC accepts logged as "<time> nic<i> f<id>".
type floodWorld struct {
	s       *sim.Scheduler
	sw      *Switch
	nics    []*NIC
	links   []*Link
	log     []string
	flood   func(ingress int, f *frame.Frame) bool
	reached []bool // each broadcast's reachedMirror
}

func newFloodWorld(flood func(*Switch, int, *frame.Frame) bool) *floodWorld {
	w := &floodWorld{s: sim.NewScheduler(7)}
	w.sw = NewSwitch(w.s)
	w.flood = func(in int, f *frame.Frame) bool { return flood(w.sw, in, f) }
	return w
}

func (w *floodWorld) newNIC() *NIC {
	i := len(w.nics)
	n := NewNIC(w.s, ethaddr.MAC{0x02, 0, 0, 0, byte(i >> 8), byte(i)})
	n.SetPromiscuous(true)
	n.SetHandler(func(f *frame.Frame) {
		w.log = append(w.log, fmt.Sprintf("%v nic%d f%d", w.s.Now(), i, int(f.Payload[0])<<8|int(f.Payload[1])))
	})
	w.nics = append(w.nics, n)
	return n
}

// broadcast floods frame id from port in and sends the mirror copy, as
// Switch.forward does for a broadcast.
func (w *floodWorld) broadcast(in, id int) {
	sw := w.sw
	f := &frame.Frame{Dst: ethaddr.BroadcastMAC, Src: ethaddr.MAC{0x02, 0xff, 0, 0, 0, 1},
		Type: frame.TypeARP, Payload: []byte{byte(id >> 8), byte(id), 0, 0}}
	mirrorWanted := sw.mirror != nil && sw.mirror.nic != nil && sw.mirror.id != in
	reached := w.flood(in, f)
	w.reached = append(w.reached, reached)
	if mirrorWanted && !reached {
		sw.mirror.send(f)
	}
}

// seqImpair cycles through drop, reorder, duplicate and pass verdicts.
type seqImpair struct{ n int }

func (im *seqImpair) Judge(int) Verdict {
	im.n++
	switch im.n % 4 {
	case 0:
		return Verdict{Drop: true}
	case 1:
		return Verdict{Delay: 30 * time.Microsecond}
	case 2:
		return Verdict{Duplicate: true, DuplicateDelay: 10 * time.Microsecond}
	}
	return Verdict{}
}

// floodOp applies one randomized operation to a world. Both worlds get the
// same op, drawn once.
type floodOp func(w *floodWorld)

// randomFloodOp draws an operation against a world that currently has
// ports ports, nics NICs and links links.
func randomFloodOp(r *rand.Rand, ports, nics, links int) (string, floodOp) {
	linkOpts := func() []LinkOption {
		var opts []LinkOption
		switch r.Intn(8) {
		case 0:
			opts = append(opts, WithLatency(20*time.Microsecond))
		case 1:
			opts = append(opts, WithJitter(15*time.Microsecond))
		case 2:
			opts = append(opts, WithLoss(0.3))
		case 3:
			opts = append(opts, WithLatency(35*time.Microsecond))
		case 4: // a different link with the default link's delay
			opts = append(opts, WithLatency(50*time.Microsecond))
		}
		if r.Intn(3) == 0 {
			opts = append(opts, SendOnly())
		}
		return opts
	}
	switch k := r.Intn(21); {
	case k < 7:
		in, id := r.Intn(ports), r.Intn(1<<16)
		return fmt.Sprintf("broadcast port %d f%d", in, id), func(w *floodWorld) { w.broadcast(in, id) }
	case k < 10:
		adv := time.Duration(r.Intn(120)) * time.Microsecond
		return fmt.Sprintf("run %v", adv), func(w *floodWorld) {
			if err := w.s.RunUntil(w.s.Now() + adv); err != nil {
				panic(err)
			}
		}
	case k == 10:
		return "add port", func(w *floodWorld) { w.sw.AddPort() }
	case k == 11 || k == 12:
		p, opts := r.Intn(ports), linkOpts()
		return fmt.Sprintf("attach new nic to port %d", p), func(w *floodWorld) {
			w.links = append(w.links, w.sw.ports[p].Attach(w.newNIC(), opts...))
		}
	case k == 13 && nics > 0:
		p, n, opts := r.Intn(ports), r.Intn(nics), linkOpts()
		return fmt.Sprintf("re-attach nic%d to port %d", n, p), func(w *floodWorld) {
			w.links = append(w.links, w.sw.ports[p].Attach(w.nics[n], opts...))
		}
	case k == 19:
		p := r.Intn(ports)
		return fmt.Sprintf("re-attach port %d with send-only toggled", p), func(w *floodWorld) {
			if port := w.sw.ports[p]; port.nic != nil {
				var opts []LinkOption
				if !port.sendOnly {
					opts = append(opts, SendOnly())
				}
				w.links = append(w.links, port.Attach(port.nic, opts...))
			}
		}
	case k == 14:
		p, vid := r.Intn(ports), uint16(1+r.Intn(2))
		return fmt.Sprintf("port %d to vlan %d", p, vid), func(w *floodWorld) { w.sw.ports[p].SetVLAN(vid) }
	case k == 15 && links > 0:
		l, down := r.Intn(links), r.Intn(2) == 0
		return fmt.Sprintf("link %d down=%v", l, down), func(w *floodWorld) { w.links[l].SetDown(down) }
	case k == 16 && links > 0:
		l, on := r.Intn(links), r.Intn(2) == 0
		return fmt.Sprintf("link %d impaired=%v", l, on), func(w *floodWorld) {
			if on {
				w.links[l].SetImpairment(&seqImpair{})
			} else {
				w.links[l].SetImpairment(nil)
			}
		}
	case k == 17 || k == 18:
		dst := r.Intn(ports)
		return fmt.Sprintf("mirror all to port %d", dst), func(w *floodWorld) { w.sw.MirrorAllTo(w.sw.ports[dst]) }
	}
	return "nothing", func(*floodWorld) {}
}

// linkStats lists every link's counters in attach order.
func (w *floodWorld) linkStats() []LinkStats {
	out := make([]LinkStats, len(w.links))
	for i, l := range w.links {
		out[i] = l.Stats()
	}
	return out
}

// TestFloodPlanMatchesPortScan drives random topology changes — send-only
// attachments and re-attachments that turn a port send-only and back among
// them — and broadcast floods through a switch with cached flood plans and
// through a reference that re-walks every port per flood, and checks after every
// step that both delivered the same frames to the same NICs in the same
// order at the same instants, with the same link, switch and mirror
// accounting. Floods stay in flight across later mutations (a run step
// advances the clock only part way), so a link changed between a flood and
// its delivery is covered.
func TestFloodPlanMatchesPortScan(t *testing.T) {
	for seed := int64(1); seed <= 150; seed++ {
		r := rand.New(rand.NewSource(seed))
		got := newFloodWorld((*Switch).flood)
		want := newFloodWorld(refFlood)
		var history []string
		for _, w := range []*floodWorld{got, want} {
			for i := 0; i < 6; i++ {
				w.links = append(w.links, w.sw.AddPort().Attach(w.newNIC()))
			}
		}
		for step := 0; step < 120; step++ {
			desc, op := randomFloodOp(r, len(got.sw.ports), len(got.nics), len(got.links))
			history = append(history, desc)
			op(got)
			op(want)
			fail := func(what string, g, w any) {
				t.Fatalf("seed %d step %d: %s differ\ncached plan: %v\nport scan:   %v\nops:\n  %v",
					seed, step, what, g, w, history)
			}
			if !reflect.DeepEqual(got.log, want.log) {
				fail("deliveries", got.log, want.log)
			}
			if g, w := [2]uint64{got.s.Executed(), uint64(got.s.Pending())},
				[2]uint64{want.s.Executed(), uint64(want.s.Pending())}; g != w {
				fail("events executed and pending", g, w)
			}
			if !reflect.DeepEqual(got.reached, want.reached) {
				fail("mirror reached", got.reached, want.reached)
			}
			if g, w := got.linkStats(), want.linkStats(); !reflect.DeepEqual(g, w) {
				fail("link stats", g, w)
			}
			if g, w := got.sw.Stats(), want.sw.Stats(); g.Flooded != w.Flooded ||
				!reflect.DeepEqual(g.BytesOutByType, w.BytesOutByType) {
				fail("switch stats", g, w)
			}
		}
		for _, w := range []*floodWorld{got, want} {
			if err := w.s.Run(); err != nil {
				t.Fatal(err)
			}
		}
		if !reflect.DeepEqual(got.log, want.log) || !reflect.DeepEqual(got.linkStats(), want.linkStats()) {
			t.Fatalf("seed %d: worlds differ after draining\ncached plan: %v\nport scan:   %v", seed, got.log, want.log)
		}
	}
}
