package stack

import (
	"testing"
	"time"

	"repro/internal/arppkt"
	"repro/internal/ethaddr"
	"repro/internal/frame"
	"repro/internal/ipv4pkt"
	"repro/internal/netsim"
	"repro/internal/sim"
)

// lan is a small test harness: a switch with hosts attached.
type lan struct {
	s  *sim.Scheduler
	sw *netsim.Switch
}

func newTestLAN(seed int64) *lan {
	s := sim.NewScheduler(seed)
	return &lan{s: s, sw: netsim.NewSwitch(s)}
}

func (l *lan) addHost(name string, mac, ip string, opts ...Option) *Host {
	nic := netsim.NewNIC(l.s, ethaddr.MustParseMAC(mac))
	l.sw.AddPort().Attach(nic)
	return NewHost(l.s, name, nic, ethaddr.MustParseIPv4(ip), opts...)
}

func TestResolveViaARP(t *testing.T) {
	l := newTestLAN(1)
	a := l.addHost("a", "02:42:ac:00:00:01", "10.0.0.1")
	b := l.addHost("b", "02:42:ac:00:00:02", "10.0.0.2")

	var gotMAC ethaddr.MAC
	var gotOK bool
	a.Resolve(b.IP(), func(mac ethaddr.MAC, ok bool) { gotMAC, gotOK = mac, ok })
	if err := l.s.Run(); err != nil {
		t.Fatal(err)
	}
	if !gotOK || gotMAC != b.MAC() {
		t.Fatalf("resolve = %v %v", gotMAC, gotOK)
	}
	// Both sides now know each other: b learned a from the request (naive
	// policy), a learned b from the reply.
	if mac, ok := a.Cache().Lookup(b.IP()); !ok || mac != b.MAC() {
		t.Fatal("a's cache missing b")
	}
	if mac, ok := b.Cache().Lookup(a.IP()); !ok || mac != a.MAC() {
		t.Fatal("b's cache missing a")
	}
	if a.Stats().ResolveOK != 1 {
		t.Fatalf("ResolveOK = %d", a.Stats().ResolveOK)
	}
}

func TestResolveFailureAfterRetries(t *testing.T) {
	l := newTestLAN(1)
	a := l.addHost("a", "02:42:ac:00:00:01", "10.0.0.1",
		WithResolveRetry(3, 100*time.Millisecond))

	var failed bool
	a.Resolve(ethaddr.MustParseIPv4("10.0.0.99"), func(_ ethaddr.MAC, ok bool) { failed = !ok })
	a.SendUDP(ethaddr.MustParseIPv4("10.0.0.99"), 1, 2, []byte("queued"))
	if err := l.s.Run(); err != nil {
		t.Fatal(err)
	}
	if !failed {
		t.Fatal("resolution should fail for a nonexistent host")
	}
	st := a.Stats()
	if st.ResolveFail != 1 || st.QueuedDropped != 1 {
		t.Fatalf("stats = %+v", st)
	}
	if st.ARPTx != 3 {
		t.Fatalf("ARPTx = %d, want 3 (initial + 2 retries)", st.ARPTx)
	}
}

func TestQueuedPacketsFlushOnResolve(t *testing.T) {
	l := newTestLAN(1)
	a := l.addHost("a", "02:42:ac:00:00:01", "10.0.0.1")
	b := l.addHost("b", "02:42:ac:00:00:02", "10.0.0.2")

	var got [][]byte
	b.HandleUDP(9, func(src ethaddr.IPv4, srcPort uint16, payload []byte) {
		got = append(got, payload)
	})
	a.SendUDP(b.IP(), 9, 9, []byte("one"))
	a.SendUDP(b.IP(), 9, 9, []byte("two"))
	if err := l.s.Run(); err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || string(got[0]) != "one" || string(got[1]) != "two" {
		t.Fatalf("delivered = %q", got)
	}
	// Only one resolution cycle should have run.
	if a.Stats().ResolveOK != 1 {
		t.Fatalf("ResolveOK = %d", a.Stats().ResolveOK)
	}
}

func TestPingEcho(t *testing.T) {
	l := newTestLAN(1)
	a := l.addHost("a", "02:42:ac:00:00:01", "10.0.0.1")
	b := l.addHost("b", "02:42:ac:00:00:02", "10.0.0.2")

	var replies int
	var replierMAC ethaddr.MAC
	a.Ping(b.IP(), 42, 1, func(seq uint16, from ethaddr.IPv4, fromMAC ethaddr.MAC) {
		replies++
		replierMAC = fromMAC
	})
	if err := l.s.Run(); err != nil {
		t.Fatal(err)
	}
	if replies != 1 {
		t.Fatalf("replies = %d", replies)
	}
	if replierMAC != b.MAC() {
		t.Fatalf("replier = %v", replierMAC)
	}
	if b.Stats().EchoSent != 0 && b.Stats().EchoRecv != 0 {
		t.Fatalf("b stats: %+v", b.Stats())
	}
}

func TestEchoResponderDisabled(t *testing.T) {
	l := newTestLAN(1)
	a := l.addHost("a", "02:42:ac:00:00:01", "10.0.0.1")
	b := l.addHost("b", "02:42:ac:00:00:02", "10.0.0.2", WithEchoResponder(false))

	var replies int
	a.Ping(b.IP(), 42, 1, func(uint16, ethaddr.IPv4, ethaddr.MAC) { replies++ })
	if err := l.s.Run(); err != nil {
		t.Fatal(err)
	}
	if replies != 0 {
		t.Fatal("silent host answered an echo")
	}
}

func TestGratuitousAnnounceSeedsPeerCaches(t *testing.T) {
	l := newTestLAN(1)
	a := l.addHost("a", "02:42:ac:00:00:01", "10.0.0.1")
	b := l.addHost("b", "02:42:ac:00:00:02", "10.0.0.2")
	b.SendGratuitous()
	if err := l.s.Run(); err != nil {
		t.Fatal(err)
	}
	if mac, ok := a.Cache().Lookup(b.IP()); !ok || mac != b.MAC() {
		t.Fatal("announcement did not seed a's cache")
	}
}

func TestUnsolicitedReplyPoisonsNaiveHost(t *testing.T) {
	l := newTestLAN(1)
	victim := l.addHost("victim", "02:42:ac:00:00:01", "10.0.0.1")
	gw := l.addHost("gw", "02:42:ac:00:00:02", "10.0.0.254")
	attacker := l.addHost("attacker", "02:42:ac:00:00:66", "10.0.0.66")

	// Forged reply: "gateway is at attacker's MAC".
	forged := arppkt.NewReply(attacker.MAC(), gw.IP(), victim.MAC(), victim.IP())
	attacker.NIC().Send(&frame.Frame{
		Dst: victim.MAC(), Src: attacker.MAC(),
		Type: frame.TypeARP, Payload: forged.Encode(),
	})
	if err := l.s.Run(); err != nil {
		t.Fatal(err)
	}
	mac, ok := victim.Cache().Lookup(gw.IP())
	if !ok || mac != attacker.MAC() {
		t.Fatalf("naive victim not poisoned: %v %v", mac, ok)
	}
}

func TestUnsolicitedReplyBouncesOffSolicitedOnlyHost(t *testing.T) {
	l := newTestLAN(1)
	victim := l.addHost("victim", "02:42:ac:00:00:01", "10.0.0.1",
		WithPolicy(PolicySolicitedOnly))
	attacker := l.addHost("attacker", "02:42:ac:00:00:66", "10.0.0.66")

	forged := arppkt.NewReply(attacker.MAC(), ethaddr.MustParseIPv4("10.0.0.254"), victim.MAC(), victim.IP())
	attacker.NIC().Send(&frame.Frame{
		Dst: victim.MAC(), Src: attacker.MAC(),
		Type: frame.TypeARP, Payload: forged.Encode(),
	})
	if err := l.s.Run(); err != nil {
		t.Fatal(err)
	}
	if _, ok := victim.Cache().Lookup(ethaddr.MustParseIPv4("10.0.0.254")); ok {
		t.Fatal("solicited-only host accepted an unsolicited reply")
	}
}

func TestARPHookCanVeto(t *testing.T) {
	l := newTestLAN(1)
	victim := l.addHost("victim", "02:42:ac:00:00:01", "10.0.0.1")
	attacker := l.addHost("attacker", "02:42:ac:00:00:66", "10.0.0.66")

	vetoed := 0
	victim.SetARPHook(func(p *arppkt.Packet, f *frame.Frame) bool {
		vetoed++
		return false // quarantine everything
	})
	forged := arppkt.NewReply(attacker.MAC(), ethaddr.MustParseIPv4("10.0.0.254"), victim.MAC(), victim.IP())
	attacker.NIC().Send(&frame.Frame{
		Dst: victim.MAC(), Src: attacker.MAC(),
		Type: frame.TypeARP, Payload: forged.Encode(),
	})
	if err := l.s.Run(); err != nil {
		t.Fatal(err)
	}
	if vetoed != 1 {
		t.Fatalf("hook calls = %d", vetoed)
	}
	if victim.Cache().Len() != 0 {
		t.Fatal("vetoed packet reached the cache")
	}
}

func TestProbeIsAnsweredButDoesNotBind(t *testing.T) {
	l := newTestLAN(1)
	a := l.addHost("a", "02:42:ac:00:00:01", "10.0.0.1")
	prober := l.addHost("p", "02:42:ac:00:00:02", "10.0.0.2")

	var answered bool
	prober.OnARP(func(p *arppkt.Packet, f *frame.Frame) {
		if p.Op == arppkt.OpReply && p.SenderIP == a.IP() {
			answered = true
		}
	})
	probe := arppkt.NewProbe(prober.MAC(), a.IP())
	prober.NIC().Send(&frame.Frame{
		Dst: ethaddr.BroadcastMAC, Src: prober.MAC(),
		Type: frame.TypeARP, Payload: probe.Encode(),
	})
	if err := l.s.Run(); err != nil {
		t.Fatal(err)
	}
	if !answered {
		t.Fatal("probe went unanswered")
	}
	// The probe's zero sender IP must not have created a binding on a.
	if a.Cache().Len() != 0 {
		t.Fatal("probe polluted the cache")
	}
}

func TestReplyRaceFirstAnswerWins(t *testing.T) {
	// Two stations answer the same request; the first reply completes
	// resolution, the second arrives unsolicited.
	l := newTestLAN(1)
	victim := l.addHost("victim", "02:42:ac:00:00:01", "10.0.0.1",
		WithPolicy(PolicySolicitedOnly))
	target := ethaddr.MustParseIPv4("10.0.0.2")
	genuine := l.addHost("genuine", "02:42:ac:00:00:02", "10.0.0.2")
	attacker := l.addHost("attacker", "02:42:ac:00:00:66", "10.0.0.66")
	_ = genuine

	// Attacker watches for the victim's request and replies instantly; the
	// genuine host also replies. With equal link latency the attacker's
	// reply (sent on observing the same broadcast) ties with the genuine
	// one; give the attacker a head start by pre-arming.
	attacker.NIC().SetPromiscuous(true)
	attacker.OnARP(func(p *arppkt.Packet, f *frame.Frame) {
		if p.Op == arppkt.OpRequest && p.TargetIP == target && p.SenderIP == victim.IP() {
			forged := arppkt.NewReply(attacker.MAC(), target, victim.MAC(), victim.IP())
			attacker.NIC().Send(&frame.Frame{
				Dst: victim.MAC(), Src: attacker.MAC(),
				Type: frame.TypeARP, Payload: forged.Encode(),
			})
		}
	})

	victim.Resolve(target, nil)
	if err := l.s.Run(); err != nil {
		t.Fatal(err)
	}
	mac, ok := victim.Cache().Lookup(target)
	if !ok {
		t.Fatal("resolution failed entirely")
	}
	// Equal latencies: genuine reply and forged reply are scheduled at the
	// same instant; FIFO order favours whoever's frame entered the switch
	// first. The genuine host processes the request directly, the attacker
	// had to observe the flooded copy — both one switch-hop away, so the
	// genuine reply wins the tie. The race experiment sweeps this delay.
	if mac != genuine.MAC() {
		t.Logf("attacker won the race (also a valid outcome): %v", mac)
	}
	// Either way the entry must be one of the two repliers.
	if mac != genuine.MAC() && mac != attacker.MAC() {
		t.Fatalf("cache holds neither replier: %v", mac)
	}
}

func TestAddressDefenseReassertsBinding(t *testing.T) {
	l := newTestLAN(1)
	victim := l.addHost("victim", "02:42:ac:00:00:01", "10.0.0.1")
	gw := l.addHost("gw", "02:42:ac:00:00:02", "10.0.0.254",
		WithAddressDefense(time.Second))
	attacker := l.addHost("attacker", "02:42:ac:00:00:66", "10.0.0.66")

	// One-shot broadcast poisoning of the gateway's address.
	forged := arppkt.NewGratuitousRequest(attacker.MAC(), gw.IP())
	attacker.NIC().Send(&frame.Frame{
		Dst: ethaddr.BroadcastMAC, Src: attacker.MAC(),
		Type: frame.TypeARP, Payload: forged.Encode(),
	})
	if err := l.s.Run(); err != nil {
		t.Fatal(err)
	}
	// The gateway saw the conflict and re-announced; the victim's cache is
	// repaired (naive policy: last writer wins).
	if gw.Stats().Defenses != 1 {
		t.Fatalf("defenses = %d", gw.Stats().Defenses)
	}
	mac, ok := victim.Cache().Lookup(gw.IP())
	if !ok || mac != gw.MAC() {
		t.Fatalf("defense did not repair the victim: %v %v", mac, ok)
	}
}

func TestAddressDefenseRateLimited(t *testing.T) {
	l := newTestLAN(1)
	gw := l.addHost("gw", "02:42:ac:00:00:02", "10.0.0.254",
		WithAddressDefense(10*time.Second))
	attacker := l.addHost("attacker", "02:42:ac:00:00:66", "10.0.0.66")

	forged := arppkt.NewGratuitousRequest(attacker.MAC(), gw.IP())
	for i := 0; i < 20; i++ {
		i := i
		l.s.At(time.Duration(i)*500*time.Millisecond, func() {
			attacker.NIC().Send(&frame.Frame{
				Dst: ethaddr.BroadcastMAC, Src: attacker.MAC(),
				Type: frame.TypeARP, Payload: forged.Encode(),
			})
		})
	}
	if err := l.s.Run(); err != nil {
		t.Fatal(err)
	}
	st := gw.Stats()
	if st.ConflictsSeen != 20 {
		t.Fatalf("conflicts = %d", st.ConflictsSeen)
	}
	// 10s of attack at 2 Hz with a 10s damper: one immediate defense plus
	// at most one more.
	if st.Defenses > 2 {
		t.Fatalf("defenses = %d, want rate-limited", st.Defenses)
	}
}

func TestDefenseOffByDefault(t *testing.T) {
	l := newTestLAN(1)
	gw := l.addHost("gw", "02:42:ac:00:00:02", "10.0.0.254")
	attacker := l.addHost("attacker", "02:42:ac:00:00:66", "10.0.0.66")
	forged := arppkt.NewGratuitousRequest(attacker.MAC(), gw.IP())
	attacker.NIC().Send(&frame.Frame{
		Dst: ethaddr.BroadcastMAC, Src: attacker.MAC(),
		Type: frame.TypeARP, Payload: forged.Encode(),
	})
	if err := l.s.Run(); err != nil {
		t.Fatal(err)
	}
	if gw.Stats().Defenses != 0 {
		t.Fatal("defense fired without opt-in")
	}
}

func TestDisableARP(t *testing.T) {
	l := newTestLAN(1)
	a := l.addHost("a", "02:42:ac:00:00:01", "10.0.0.1")
	b := l.addHost("b", "02:42:ac:00:00:02", "10.0.0.2")
	b.DisableARP()
	var failed bool
	a.Resolve(b.IP(), func(_ ethaddr.MAC, ok bool) { failed = !ok })
	if err := l.s.Run(); err != nil {
		t.Fatal(err)
	}
	if !failed {
		t.Fatal("ARP-disabled host answered a plain request")
	}
	if b.Cache().Len() != 0 {
		t.Fatal("ARP-disabled host cached a plain binding")
	}
}

func TestHandleUDPDispatch(t *testing.T) {
	l := newTestLAN(1)
	a := l.addHost("a", "02:42:ac:00:00:01", "10.0.0.1")
	b := l.addHost("b", "02:42:ac:00:00:02", "10.0.0.2")

	var fromIP ethaddr.IPv4
	var fromPort uint16
	b.HandleUDP(67, func(src ethaddr.IPv4, srcPort uint16, payload []byte) {
		fromIP, fromPort = src, srcPort
	})
	a.SendUDP(b.IP(), 68, 67, []byte("x"))
	if err := l.s.Run(); err != nil {
		t.Fatal(err)
	}
	if fromIP != a.IP() || fromPort != 68 {
		t.Fatalf("dispatch = %v %d", fromIP, fromPort)
	}
}

func TestSendUDPToBypassesResolution(t *testing.T) {
	l := newTestLAN(1)
	a := l.addHost("a", "02:42:ac:00:00:01", "10.0.0.1")
	b := l.addHost("b", "02:42:ac:00:00:02", "10.0.0.2")

	got := false
	b.HandleUDP(67, func(ethaddr.IPv4, uint16, []byte) { got = true })
	a.SendUDPTo(b.MAC(), b.IP(), 68, 67, []byte("direct"))
	if err := l.s.Run(); err != nil {
		t.Fatal(err)
	}
	if !got {
		t.Fatal("direct datagram lost")
	}
	if a.Stats().ARPTx != 0 {
		t.Fatal("SendUDPTo triggered resolution")
	}
}

func TestIPv4NotForUsIgnored(t *testing.T) {
	l := newTestLAN(1)
	a := l.addHost("a", "02:42:ac:00:00:01", "10.0.0.1")
	b := l.addHost("b", "02:42:ac:00:00:02", "10.0.0.2")
	c := l.addHost("c", "02:42:ac:00:00:03", "10.0.0.3")

	// Frame addressed to b's MAC but IP addressed to c: b must drop it.
	pkt := &ipv4pkt.Packet{TTL: 64, Proto: ipv4pkt.ProtoUDP, Src: a.IP(), Dst: c.IP(),
		Payload: (&ipv4pkt.UDP{SrcPort: 1, DstPort: 2}).Encode()}
	a.NIC().Send(&frame.Frame{Dst: b.MAC(), Src: a.MAC(), Type: frame.TypeIPv4, Payload: pkt.Encode()})
	if err := l.s.Run(); err != nil {
		t.Fatal(err)
	}
	if b.Stats().IPv4Rx != 0 {
		t.Fatal("b accepted an IP packet addressed elsewhere")
	}
}

// TestIPv4BadChecksumDropped: a datagram whose header checksum fails is
// dropped whether it is addressed to another host (the promiscuous
// monitor's early destination check drops it before the checksum is
// read) or to this one (decoding rejects it): neither is counted or
// reaches a port handler.
func TestIPv4BadChecksumDropped(t *testing.T) {
	s := sim.NewScheduler(1)
	h := NewHost(s, "mon", netsim.NewNIC(s, ethaddr.MAC{0x02, 0, 0, 0, 0, 1}), ethaddr.IPv4{10, 0, 0, 250})
	handled := 0
	h.HandleUDP(9, func(ethaddr.IPv4, uint16, []byte) { handled++ })
	datagram := func(dst ethaddr.IPv4, corrupt bool) *frame.Frame {
		u := ipv4pkt.UDP{SrcPort: 9, DstPort: 9, Payload: []byte("x")}
		p := ipv4pkt.Packet{TTL: 64, Proto: ipv4pkt.ProtoUDP, Src: ethaddr.IPv4{10, 0, 0, 7}, Dst: dst, Payload: u.Encode()}
		wire := p.Encode()
		if corrupt {
			wire[10] ^= 0xff // the header checksum
		}
		return &frame.Frame{Dst: h.MAC(), Src: ethaddr.MAC{0x02, 0, 0, 0, 0, 7}, Type: frame.TypeIPv4, Payload: wire}
	}
	h.handleFrame(datagram(ethaddr.IPv4{10, 0, 0, 8}, true))
	h.handleFrame(datagram(h.IP(), true))
	if h.Stats().IPv4Rx != 0 || handled != 0 {
		t.Fatalf("bad-checksum datagrams got through: IPv4Rx %d, handled %d", h.Stats().IPv4Rx, handled)
	}
	h.handleFrame(datagram(h.IP(), false))
	if h.Stats().IPv4Rx != 1 || handled != 1 {
		t.Fatalf("intact datagram: IPv4Rx %d, handled %d, want 1 each", h.Stats().IPv4Rx, handled)
	}
}

// TestSendUDPCopiesPayload: SendUDP keeps its own copy of the payload, also
// while the datagram waits for a resolution, so a caller may reuse its
// buffer at once.
func TestSendUDPCopiesPayload(t *testing.T) {
	l := newTestLAN(1)
	a := l.addHost("a", "02:42:ac:00:00:01", "10.0.0.1")
	b := l.addHost("b", "02:42:ac:00:00:02", "10.0.0.2")
	var got []string
	b.HandleUDP(9, func(_ ethaddr.IPv4, _ uint16, payload []byte) { got = append(got, string(payload)) })
	buf := []byte("first")
	a.SendUDP(b.IP(), 9, 9, buf) // queued behind the resolution of b
	copy(buf, "xxxxx")
	if err := l.s.Run(); err != nil {
		t.Fatal(err)
	}
	copy(buf, "again")
	a.SendUDP(b.IP(), 9, 9, buf) // resolved: sent at once
	copy(buf, "yyyyy")
	if err := l.s.Run(); err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || got[0] != "first" || got[1] != "again" {
		t.Fatalf("received %q, want [first again]", got)
	}
}
