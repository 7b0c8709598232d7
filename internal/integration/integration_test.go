// Package integration runs whole-system scenarios that cross every layer
// of the framework at once — the "does the story hold together" tests that
// unit suites cannot express.
package integration

import (
	"testing"
	"time"

	"repro/internal/attack"
	"repro/internal/dhcp"
	"repro/internal/ethaddr"
	"repro/internal/labnet"
	"repro/internal/netsim"
	"repro/internal/schemes"
	"repro/internal/schemes/dai"
	"repro/internal/schemes/registry"
	_ "repro/internal/schemes/registry/all" // link every scheme factory
	"repro/internal/sim"
	"repro/internal/stack"
	"repro/internal/trace"
	"repro/internal/traffic"
)

// TestEnterpriseDay is the full narrative: a DHCP-managed office LAN with
// DAI at the switch and the hybrid-guard preset on a mirror port; clients boot over
// DORA, work traffic flows, a device gets swapped mid-day (benign churn),
// and an insider mounts the complete attack playbook. Every layer must
// tell a consistent story at the end.
func TestEnterpriseDay(t *testing.T) {
	s := sim.NewScheduler(7)
	sw := netsim.NewSwitch(s, netsim.WithCAMCapacity(512))
	subnet := ethaddr.MustParseSubnet("10.20.0.0/24")
	gen := ethaddr.NewGen(7)
	cap := trace.NewCapture(0)
	sw.AddTap(cap.Tap())

	// Infrastructure: the router/DHCP server on a trusted port.
	srvNIC := netsim.NewNIC(s, gen.SeqMAC())
	srvPort := sw.AddPort()
	srvPort.Attach(srvNIC)
	router := stack.NewHost(s, "router", srvNIC, subnet.Host(1))

	bindings := dai.NewBindingTable()
	bindings.AddStatic(router.IP(), router.MAC())
	var srvOpts []dhcp.ServerOption
	bindings.SnoopServer(&srvOpts)
	srvOpts = append(srvOpts, dhcp.WithLeaseTime(30*time.Minute))
	server := dhcp.NewServer(s, router, subnet, router.IP(), 100, 30, srvOpts...)

	// Monitor appliance on a mirror port, running the hybrid-guard preset.
	monNIC := netsim.NewNIC(s, gen.SeqMAC())
	monPort := sw.AddPort()
	monPort.Attach(monNIC)
	monNIC.SetPromiscuous(true)
	monitor := stack.NewHost(s, "monitor", monNIC, subnet.Host(250))
	bindings.AddStatic(monitor.IP(), monitor.MAC())
	sw.MirrorAllTo(monPort)

	// A bespoke topology fills the deployment environment itself; the
	// router plays the gateway whose binding the guard seeds.
	guard, err := registry.Deploy(&registry.Env{
		Sched: s, Switch: sw, Hosts: []*stack.Host{router},
		Monitor: monitor, MonitorPort: monPort, Sink: schemes.NewSink(),
	}, registry.NameHybridGuard, nil)
	if err != nil {
		t.Fatal(err)
	}

	// Inline DAI, trusting only the infrastructure ports.
	daiSink := schemes.NewSink()
	inspector := dai.New(s, daiSink, bindings,
		dai.WithTrustedPorts(srvPort.ID(), monPort.ID()))
	sw.AddFilter(inspector.Filter())

	// Six workstations boot over DHCP.
	const nClients = 6
	clients := make([]*stack.Host, nClients)
	clientNICs := make([]*netsim.NIC, nClients)
	for i := 0; i < nClients; i++ {
		nic := netsim.NewNIC(s, gen.SeqMAC())
		sw.AddPort().Attach(nic)
		h := stack.NewHost(s, "ws", nic, ethaddr.ZeroIPv4)
		dhcp.NewClient(s, h, nil).Acquire()
		clients[i] = h
		clientNICs[i] = nic
	}
	// An attacker workstation also boots legitimately (insider threat).
	atkNIC := netsim.NewNIC(s, gen.SeqMAC())
	sw.AddPort().Attach(atkNIC)
	atkBoot := stack.NewHost(s, "insider", atkNIC, ethaddr.ZeroIPv4)
	var attacker *attack.Attacker
	dhcp.NewClient(s, atkBoot, func(l dhcp.Lease) {
		// Once addressed, the station flips to its attack stack.
		attacker = attack.New(s, atkNIC, l.IP)
	}).Acquire()
	if err := s.RunUntil(30 * time.Second); err != nil {
		t.Fatal(err)
	}

	// Everyone is up.
	if got := len(server.Leases()); got != nClients+1 {
		t.Logf("server stats: %+v", server.Stats())
		for i, c := range clients {
			t.Logf("client %d ip=%v", i, c.IP())
		}
		t.Logf("insider ip=%v attacker=%v", atkBoot.IP(), attacker != nil)
		t.Fatalf("leases = %d, want %d", got, nClients+1)
	}
	if attacker == nil {
		t.Fatal("insider failed to boot")
	}
	for i, c := range clients {
		if c.IP().IsZero() {
			t.Fatalf("client %d unaddressed", i)
		}
	}

	// The workday: clients talk to the router.
	flows := traffic.HotSpot(s, clients, router, 1, 500*time.Millisecond, traffic.WithResponse())

	// Midday device swap: workstation 3's NIC dies; IT replaces the box,
	// which re-DORAs and may receive a recycled address.
	s.At(2*time.Minute, func() {
		flows[3].Stop() // its user stops working during the swap
		clients[3].NIC().SetUp(false)
		nic := netsim.NewNIC(s, gen.SeqMAC())
		sw.AddPort().Attach(nic)
		h := stack.NewHost(s, "ws3-replacement", nic, ethaddr.ZeroIPv4)
		dhcp.NewClient(s, h, nil).Acquire()
	})

	// The insider's campaign.
	victim := clients[0]
	s.At(3*time.Minute, func() {
		attacker.Poison(attack.VariantGratuitous, router.IP(), attacker.MAC(),
			victim.MAC(), victim.IP())
	})
	s.At(4*time.Minute, func() {
		attacker.PoisonPeriodically(2*time.Second, victim.MAC(), victim.IP(),
			router.MAC(), router.IP())
	})
	s.At(5*time.Minute, func() {
		attacker.StopPoisoning()
	})
	if err := s.RunUntil(6 * time.Minute); err != nil {
		t.Fatal(err)
	}
	for _, f := range flows {
		f.Stop()
	}
	if err := s.RunUntil(6*time.Minute + 10*time.Second); err != nil {
		t.Fatal(err)
	}

	// 1. DAI stopped every forged packet in the forwarding plane.
	if inspector.Stats().Dropped == 0 {
		t.Fatal("DAI dropped nothing")
	}
	if len(daiSink.ByKind(schemes.AlertBindingViolation)) == 0 {
		t.Fatal("no binding-violation alerts")
	}
	// 2. No cache anywhere was poisoned.
	for i, c := range clients {
		if mac, ok := c.Cache().Lookup(router.IP()); ok && mac == attacker.MAC() {
			t.Fatalf("client %d poisoned through DAI", i)
		}
	}
	// 3. Work traffic was unaffected throughout.
	total := traffic.TotalStats(flows)
	if total.Sent == 0 {
		t.Fatal("no workload ran")
	}
	lost := total.Sent - total.Delivered
	// The swapped workstation's in-flight datagrams around its outage are
	// the only acceptable losses.
	if lost > total.Sent/10 {
		t.Fatalf("lost %d of %d datagrams", lost, total.Sent)
	}
	// 4. The layers tell one coherent story: the mirror observes ingress
	//    before the DAI filter, so the guard independently confirms the
	//    campaign DAI was busy blocking — and names the insider. The
	//    benign device swap produces no actionable incident.
	actionable := guard.ActionableIncidents()
	if len(actionable) != 2 { // both impersonated identities: router and victim
		t.Fatalf("actionable incidents = %d: %+v", len(actionable), actionable)
	}
	sawRouter := false
	for _, inc := range actionable {
		if inc.Suspect != attacker.MAC() || !inc.Confirmed {
			t.Fatalf("incident misattributed: %+v", inc)
		}
		if inc.IP != router.IP() && inc.IP != victim.IP() {
			t.Fatalf("incident for an unexpected address: %+v", inc)
		}
		if inc.IP == router.IP() {
			sawRouter = true
		}
	}
	if !sawRouter {
		t.Fatal("router impersonation not reported")
	}
	// 5. The wire log is coherent: DHCP ran, ARP ran, nothing undecodable.
	st := cap.Stats()
	if st.ByType["ARP"] == 0 || st.ByType["IPv4"] == 0 {
		t.Fatalf("capture stats: %+v", st.ByType)
	}
}

// TestSOHODay is the unmanaged counterpart: no DAI, naive hosts, only the
// guard watching a consumer router's mirror port. Detection (not
// prevention) is the best this environment can do — exactly the paper's
// SOHO conclusion.
func TestSOHODay(t *testing.T) {
	l := labnet.New(labnet.Config{Seed: 3, Hosts: 5, WithAttacker: true, WithMonitor: true})
	gw, victim := l.Gateway(), l.Victim()
	guard, err := registry.Deploy(l.Env(schemes.NewSink(), nil), registry.NameHybridGuard, nil)
	if err != nil {
		t.Fatal(err)
	}

	flows := traffic.HotSpot(l.Sched, l.Hosts[1:], gw, 1, time.Second)
	l.Sched.At(30*time.Second, func() {
		l.Attacker.PoisonPeriodically(2*time.Second, victim.MAC(), victim.IP(), gw.MAC(), gw.IP())
		l.Attacker.RelayBetween(victim.MAC(), victim.IP(), gw.MAC(), gw.IP())
	})
	if err := l.Run(2 * time.Minute); err != nil {
		t.Fatal(err)
	}
	for _, f := range flows {
		f.Stop()
	}

	// The attack succeeds (nothing prevents here)...
	if mac, _ := victim.Cache().Lookup(gw.IP()); mac != l.Attacker.MAC() {
		t.Fatal("naive victim should be poisoned in the SOHO scenario")
	}
	if l.Attacker.Stats().Sniffed == 0 {
		t.Fatal("MITM intercepted nothing")
	}
	// ...but the guard names the incident, confirmed, with the right suspect.
	var inc registry.Incident
	for _, c := range guard.Incidents() {
		if c.IP == gw.IP() {
			inc = c
		}
	}
	if !inc.Confirmed || inc.Suspect != l.Attacker.MAC() {
		t.Fatalf("gateway incident = %+v", inc)
	}
}
