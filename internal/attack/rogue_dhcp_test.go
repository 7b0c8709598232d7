package attack

import (
	"testing"
	"time"

	"repro/internal/dhcp"
	"repro/internal/ethaddr"
	"repro/internal/netsim"
	"repro/internal/schemes"
	"repro/internal/schemes/dai"
	"repro/internal/sim"
	"repro/internal/stack"
)

// dhcpNet wires a genuine server (with extra link latency so the rogue can
// win races), a client, and the attacker.
type dhcpNet struct {
	s        *sim.Scheduler
	sw       *netsim.Switch
	server   *dhcp.Server
	srvPort  *netsim.Port
	client   *dhcp.Client
	cliHost  *stack.Host
	attacker *Attacker
	atkPort  *netsim.Port
}

func newDHCPNet(t *testing.T) *dhcpNet {
	t.Helper()
	s := sim.NewScheduler(1)
	sw := netsim.NewSwitch(s)
	subnet := ethaddr.MustParseSubnet("10.0.0.0/24")
	gen := ethaddr.NewGen(91)

	srvNIC := netsim.NewNIC(s, gen.SeqMAC())
	srvPort := sw.AddPort()
	// The genuine server is slower to answer: the realistic condition a
	// rogue exploits.
	srvPort.Attach(srvNIC, netsim.WithLatency(2*time.Millisecond))
	srvHost := stack.NewHost(s, "dhcp", srvNIC, subnet.Host(1))
	server := dhcp.NewServer(s, srvHost, subnet, subnet.Host(254), 100, 10)

	cliNIC := netsim.NewNIC(s, gen.SeqMAC())
	sw.AddPort().Attach(cliNIC)
	cliHost := stack.NewHost(s, "client", cliNIC, ethaddr.ZeroIPv4)
	client := dhcp.NewClient(s, cliHost, nil)

	atkNIC := netsim.NewNIC(s, gen.SeqMAC())
	atkPort := sw.AddPort()
	atkPort.Attach(atkNIC)
	attacker := New(s, atkNIC, subnet.Host(66))

	return &dhcpNet{
		s: s, sw: sw, server: server, srvPort: srvPort,
		client: client, cliHost: cliHost, attacker: attacker, atkPort: atkPort,
	}
}

func TestRogueDHCPHijacksRouter(t *testing.T) {
	n := newDHCPNet(t)
	rogue := n.attacker.StartRogueDHCP(ethaddr.MustParseSubnet("10.0.0.0/24"), 200, 10)

	n.client.Acquire()
	if err := n.s.RunUntil(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	if n.client.State() != dhcp.StateBound {
		t.Fatal("client failed to bind")
	}
	// The rogue's faster offer won; the client's address comes from the
	// rogue pool.
	if got := n.client.Lease().IP; got != ethaddr.MustParseIPv4("10.0.0.200") {
		t.Fatalf("lease = %v, want the rogue pool", got)
	}
	st := rogue.Stats()
	if st.OffersSent != 1 || st.AcksSent != 1 {
		t.Fatalf("rogue stats: %+v", st)
	}
	// No ARP forgery occurred anywhere.
	if n.attacker.Stats().Forged != 0 {
		t.Fatal("rogue DHCP must not touch ARP")
	}
}

func TestDHCPGuardBlocksRogue(t *testing.T) {
	n := newDHCPNet(t)
	sink := schemes.NewSink()
	table := dai.NewBindingTable()
	insp := dai.New(n.s, sink, table,
		dai.WithTrustedPorts(n.srvPort.ID()),
		dai.WithDHCPGuard())
	n.sw.AddFilter(insp.Filter())

	n.attacker.StartRogueDHCP(ethaddr.MustParseSubnet("10.0.0.0/24"), 200, 10)
	n.client.Acquire()
	if err := n.s.RunUntil(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	if n.client.State() != dhcp.StateBound {
		t.Fatal("client failed to bind via the genuine server")
	}
	// The genuine (trusted-port) server's pool won despite being slower.
	if got := n.client.Lease().IP; got != ethaddr.MustParseIPv4("10.0.0.100") {
		t.Fatalf("lease = %v, want the genuine pool", got)
	}
	if insp.Stats().RogueDHCPDropped == 0 {
		t.Fatal("no rogue messages dropped")
	}
	if len(sink.ByKind(schemes.AlertRogueDHCP)) == 0 {
		t.Fatal("no rogue-dhcp alerts")
	}
}

func TestDHCPGuardPassesGenuineServer(t *testing.T) {
	n := newDHCPNet(t)
	sink := schemes.NewSink()
	insp := dai.New(n.s, sink, dai.NewBindingTable(),
		dai.WithTrustedPorts(n.srvPort.ID()),
		dai.WithDHCPGuard())
	n.sw.AddFilter(insp.Filter())

	n.client.Acquire()
	if err := n.s.RunUntil(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	if n.client.State() != dhcp.StateBound {
		t.Fatal("guard blocked the genuine server")
	}
	if insp.Stats().RogueDHCPDropped != 0 {
		t.Fatalf("false drops: %+v", insp.Stats())
	}
}
