package eval

import (
	"fmt"
	"time"

	"repro/internal/ethaddr"
	"repro/internal/frame"
	"repro/internal/ipv4pkt"
	"repro/internal/netsim"
	"repro/internal/schemes"
	"repro/internal/schemes/registry"
	"repro/internal/sim"
	"repro/internal/stack"
	"repro/internal/traffic"
)

// Figure5CamFlood sweeps the MAC-flooding rate against a switch whose CAM
// randomly evicts under pressure and plots the fraction of a victim↔server
// unicast flow an attacker's promiscuous NIC can eavesdrop, with and
// without port security on the attacker's port.
//
// Expected shape: without protection the eavesdroppable fraction climbs
// from ≈0 toward ≈1 as the flood rate overwhelms the CAM (fail-open); with
// port security it stays pinned at ≈0 because the flood never reaches the
// learning path.
func Figure5CamFlood(rates []float64, horizon time.Duration) *Figure {
	f := &Figure{
		ID:     "Figure 5",
		Title:  "Eavesdroppable fraction of unicast flow vs MAC-flood rate (CAM=256, random eviction)",
		XLabel: "flood_frames_per_sec",
		YLabel: "eavesdropped_fraction",
		XFmt:   "%.0f",
		YFmt:   "%.3f",
	}
	type cell struct {
		protected bool
		rate      float64
	}
	var cells []cell
	for _, protected := range []bool{false, true} {
		for _, rate := range rates {
			cells = append(cells, cell{protected, rate})
		}
	}
	fractions := Map(cells, func(c cell) float64 {
		return camFloodPoint(c.rate, horizon, c.protected)
	})
	for i, c := range cells {
		name := "unprotected"
		if c.protected {
			name = "port-security"
		}
		f.AddPoint(name, c.rate, fractions[i])
	}
	return f
}

// camFloodPoint runs one flood trial and returns the overheard fraction.
func camFloodPoint(rate float64, horizon time.Duration, protectPorts bool) float64 {
	s := sim.NewScheduler(int64(rate) + 7)
	swOpts := []netsim.SwitchOption{
		netsim.WithCAMCapacity(256),
		netsim.WithCAMEvictRandom(),
	}
	sw := netsim.NewSwitch(s, swOpts...)
	gen := ethaddr.NewGen(9)
	subnet := ethaddr.MustParseSubnet("192.168.88.0/24")

	attach := func(ip ethaddr.IPv4) (*stack.Host, *netsim.Port) {
		nic := netsim.NewNIC(s, gen.SeqMAC())
		port := sw.AddPort()
		port.Attach(nic)
		return stack.NewHost(s, ip.String(), nic, ip), port
	}
	victim, vp := attach(subnet.Host(1))
	server, sp := attach(subnet.Host(2))

	atkNIC := netsim.NewNIC(s, gen.SeqMAC())
	atkPort := sw.AddPort()
	atkPort.Attach(atkNIC)
	atkNIC.SetPromiscuous(true)

	if protectPorts {
		// This trial's topology is bespoke (no labnet LAN), so the
		// deployment environment is assembled by hand: two stations plus
		// the attacker NIC's port, which sticky mode pins like any other.
		env := &registry.Env{
			Sched:        s,
			Switch:       sw,
			Hosts:        []*stack.Host{victim, server},
			Ports:        []*netsim.Port{vp, sp},
			AttackerMAC:  atkNIC.MAC(),
			AttackerPort: atkPort,
			Sink:         schemes.NewSink(),
		}
		if _, err := registry.Deploy(env, registry.NamePortSecurity, nil); err != nil {
			panic(fmt.Sprintf("eval: deploy port-security: %v", err)) // a bug, not a result
		}
	}

	// Count the flow frames the attacker overhears.
	overheard := 0
	atkNIC.SetHandler(func(fr *frame.Frame) {
		if fr.Type != frame.TypeIPv4 || fr.Dst == atkNIC.MAC() || fr.Dst.IsMulticast() {
			return
		}
		if pkt, err := ipv4pkt.Decode(fr.Payload); err == nil && pkt.Dst == server.IP() {
			overheard++
		}
	})

	// The flood, at the requested sustained rate.
	if rate > 0 {
		gap := time.Duration(float64(time.Second) / rate)
		n := int(horizon/gap) + 1
		floodGen := ethaddr.NewGen(int64(rate) + 99)
		var emit func(i int)
		emit = func(i int) {
			if i >= n {
				return
			}
			atkNIC.Send(&frame.Frame{Dst: floodGen.RandMAC(), Src: floodGen.RandMAC(), Type: frame.TypeIPv4})
			s.After(gap, func() { emit(i + 1) })
		}
		s.After(0, emit0(emit))
	}

	// The victim↔server flow under observation.
	flow := traffic.StartFlow(s, 1, victim, server, 10*time.Millisecond)
	_ = s.RunUntil(horizon)
	flow.Stop()

	sent := flow.Stats().Sent
	if sent == 0 {
		return 0
	}
	frac := float64(overheard) / float64(sent)
	if frac > 1 {
		frac = 1
	}
	return frac
}

// emit0 adapts a recursive emitter to a no-arg scheduler callback.
func emit0(emit func(int)) func() { return func() { emit(0) } }
