package dai

import (
	"testing"
	"time"

	"repro/internal/arppkt"
	"repro/internal/attack"
	"repro/internal/dhcp"
	"repro/internal/ethaddr"
	"repro/internal/frame"
	"repro/internal/labnet"
	"repro/internal/netsim"
	"repro/internal/schemes"
	"repro/internal/sim"
	"repro/internal/stack"
)

// daiLAN builds a workbench with the inspector inline and static bindings
// for all legitimate hosts (attacker excluded).
func daiLAN(opts ...Option) (*labnet.LAN, *Inspector, *schemes.Sink, *BindingTable) {
	l := labnet.Default()
	sink := schemes.NewSink()
	table := NewBindingTable()
	for _, h := range l.Hosts {
		table.AddStatic(h.IP(), h.MAC())
	}
	table.AddStatic(l.Monitor.IP(), l.Monitor.MAC())
	table.AddStatic(l.Attacker.IP(), l.Attacker.MAC()) // its real identity is legitimate
	insp := New(l.Sched, sink, table, opts...)
	l.Switch.AddFilter(insp.Filter())
	return l, insp, sink, table
}

func TestBlocksAllPoisoningVariantsInline(t *testing.T) {
	for _, v := range []attack.Variant{
		attack.VariantGratuitous, attack.VariantUnsolicitedReply, attack.VariantRequestSpoof,
	} {
		t.Run(v.String(), func(t *testing.T) {
			l, insp, sink, _ := daiLAN()
			gw := l.Gateway()
			l.Attacker.Poison(v, gw.IP(), l.Attacker.MAC(), l.Victim().MAC(), l.Victim().IP())
			if err := l.Run(time.Second); err != nil {
				t.Fatal(err)
			}
			if l.PoisonedCount(gw.IP()) != 0 {
				t.Fatal("poison reached a cache through DAI")
			}
			if insp.Stats().Dropped == 0 {
				t.Fatal("nothing dropped")
			}
			if len(sink.ByKind(schemes.AlertBindingViolation)) == 0 {
				t.Fatalf("alerts: %v", sink.Alerts())
			}
		})
	}
}

func TestBlocksReplyRaceForgery(t *testing.T) {
	l, _, sink, _ := daiLAN()
	gw := l.Gateway()
	l.Attacker.ArmReplyRace(gw.IP(), l.Victim().IP(), 0)
	l.Victim().Resolve(gw.IP(), nil)
	if err := l.Run(3 * time.Second); err != nil {
		t.Fatal(err)
	}
	mac, ok := l.Victim().Cache().Lookup(gw.IP())
	if !ok || mac != gw.MAC() {
		t.Fatalf("victim cache = %v %v, want genuine gateway", mac, ok)
	}
	if len(sink.ByKind(schemes.AlertBindingViolation)) == 0 {
		t.Fatal("forged race reply not flagged")
	}
}

func TestLegitimateTrafficUnaffected(t *testing.T) {
	l, insp, sink, _ := daiLAN()
	l.SeedMutualCaches()
	if err := l.Run(2 * time.Second); err != nil {
		t.Fatal(err)
	}
	for _, h := range l.Hosts[1:] {
		if mac, ok := h.Cache().Lookup(l.Gateway().IP()); !ok || mac != l.Gateway().MAC() {
			t.Fatalf("host %s failed legitimate resolution through DAI", h.Name())
		}
	}
	if insp.Stats().Dropped != 0 || sink.Len() != 0 {
		t.Fatalf("legitimate traffic dropped: %+v %v", insp.Stats(), sink.Alerts())
	}
}

func TestSpoofedEthernetSourceDropped(t *testing.T) {
	l, _, sink, _ := daiLAN()
	gw := l.Gateway()
	// Forged reply carrying the *gateway's own* MAC in the ARP sender
	// field (a binding the table would accept) but sent from the
	// attacker's Ethernet source — caught by the src-MAC consistency
	// check rather than the table.
	p := arppkt.NewReply(gw.MAC(), gw.IP(), l.Victim().MAC(), l.Victim().IP())
	l.Attacker.NIC().Send(&frame.Frame{
		Dst: l.Victim().MAC(), Src: l.Attacker.MAC(),
		Type: frame.TypeARP, Payload: p.Encode(),
	})
	if err := l.Run(time.Second); err != nil {
		t.Fatal(err)
	}
	if len(sink.ByKind(schemes.AlertSpoofedSource)) != 1 {
		t.Fatalf("alerts: %v", sink.Alerts())
	}
}

func TestTrustedPortBypasses(t *testing.T) {
	l := labnet.Default()
	sink := schemes.NewSink()
	table := NewBindingTable() // empty: everything untrusted would drop
	insp := New(l.Sched, sink, table, WithTrustedPorts(l.AtkPort.ID()))
	l.Switch.AddFilter(insp.Filter())

	gw := l.Gateway()
	l.Attacker.Poison(attack.VariantGratuitous, gw.IP(), l.Attacker.MAC(), l.Victim().MAC(), l.Victim().IP())
	if err := l.Run(time.Second); err != nil {
		t.Fatal(err)
	}
	// Misplaced trust is the documented DAI bypass.
	if l.PoisonedCount(gw.IP()) == 0 {
		t.Fatal("trusted-port attack should have succeeded")
	}
	if insp.Stats().Trusted == 0 {
		t.Fatal("trusted counter not incremented")
	}
}

func TestUnknownBindingDropped(t *testing.T) {
	l, insp, sink, table := daiLAN()
	table.Remove(l.Victim().IP())
	// Victim's own legitimate announcement now has no snooped binding —
	// the DHCP-dependency cost of DAI for statically addressed hosts.
	l.Victim().SendGratuitous()
	if err := l.Run(time.Second); err != nil {
		t.Fatal(err)
	}
	if insp.Stats().Dropped != 1 || len(sink.ByKind(schemes.AlertBindingViolation)) != 1 {
		t.Fatalf("stats: %+v alerts: %v", insp.Stats(), sink.Alerts())
	}
}

func TestSnoopingFollowsDHCPLeases(t *testing.T) {
	s := sim.NewScheduler(1)
	sw := netsim.NewSwitch(s)
	subnet := ethaddr.MustParseSubnet("10.0.0.0/24")
	gen := ethaddr.NewGen(61)

	table := NewBindingTable()
	sink := schemes.NewSink()

	// DHCP server on a trusted port.
	srvNIC := netsim.NewNIC(s, gen.SeqMAC())
	srvPort := sw.AddPort()
	srvPort.Attach(srvNIC)
	srvHost := stack.NewHost(s, "dhcp", srvNIC, subnet.Host(1))
	var srvOpts []dhcp.ServerOption
	table.SnoopServer(&srvOpts)
	dhcp.NewServer(s, srvHost, subnet, subnet.Host(254), 100, 10, srvOpts...)
	table.AddStatic(srvHost.IP(), srvHost.MAC())

	insp := New(s, sink, table, WithTrustedPorts(srvPort.ID()))
	sw.AddFilter(insp.Filter())

	// A client acquires a lease, then ARPs: DAI must accept it.
	cliNIC := netsim.NewNIC(s, gen.SeqMAC())
	sw.AddPort().Attach(cliNIC)
	cliHost := stack.NewHost(s, "cli", cliNIC, ethaddr.ZeroIPv4)
	cli := dhcp.NewClient(s, cliHost, nil)
	cli.Acquire()
	if err := s.RunUntil(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	if cli.State() != dhcp.StateBound {
		t.Fatal("client failed to bind through DAI")
	}
	if _, ok := table.Lookup(cli.Lease().IP); !ok {
		t.Fatal("snooping did not populate the table")
	}

	cliHost.SendGratuitous()
	if err := s.RunUntil(11 * time.Second); err != nil {
		t.Fatal(err)
	}
	if insp.Stats().Dropped != 0 {
		t.Fatalf("leased client's ARP dropped: %v", sink.Alerts())
	}

	// Release: binding leaves the table, and the stale identity now drops.
	cli.ReleaseAddress()
	leasedIP := cli.Lease().IP
	if err := s.RunUntil(12 * time.Second); err != nil {
		t.Fatal(err)
	}
	if _, ok := table.Lookup(leasedIP); ok {
		t.Fatal("released binding still in table")
	}
}

func TestTableLen(t *testing.T) {
	table := NewBindingTable()
	table.AddStatic(ethaddr.MustParseIPv4("10.0.0.1"), ethaddr.MustParseMAC("02:42:ac:00:00:01"))
	if table.Len() != 1 {
		t.Fatalf("Len = %d", table.Len())
	}
}

func TestMalformedARPDropped(t *testing.T) {
	l, insp, sink, _ := daiLAN()
	l.Attacker.NIC().Send(&frame.Frame{
		Dst: l.Victim().MAC(), Src: l.Attacker.MAC(),
		Type: frame.TypeARP, Payload: []byte{1, 2, 3},
	})
	if err := l.Run(time.Second); err != nil {
		t.Fatal(err)
	}
	if insp.Stats().Dropped != 1 || len(sink.ByKind(schemes.AlertInvalid)) != 1 {
		t.Fatalf("stats: %+v alerts: %v", insp.Stats(), sink.Alerts())
	}
}
