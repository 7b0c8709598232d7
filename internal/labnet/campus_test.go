package labnet

import (
	"encoding/json"
	"fmt"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/arppkt"
	"repro/internal/attack"
	"repro/internal/ethaddr"
	"repro/internal/frame"
	"repro/internal/schemes/registry"
	_ "repro/internal/schemes/registry/all"
	"repro/internal/sim"
)

// TestCampusAssembly checks the shape of a small campus: addressing plan,
// population accounting, and the trunk mesh actually carrying traffic.
func TestCampusAssembly(t *testing.T) {
	c := NewCampus(CampusConfig{Seed: 3, LANs: 3, HostsPerLAN: 100, WithAttacker: true})
	if got := c.TotalHosts(); got != 300 {
		t.Fatalf("TotalHosts = %d, want 300", got)
	}
	for i, cl := range c.LANs {
		if want := CampusSubnet(i); cl.Subnet != want {
			t.Errorf("lan %d subnet = %v, want %v", i, cl.Subnet, want)
		}
		if cl.Router.IP() != cl.Subnet.Host(254) {
			t.Errorf("lan %d router at %v, want .254", i, cl.Router.IP())
		}
		if cl.Hosts[0].IP() != cl.Subnet.Host(1) {
			t.Errorf("lan %d host0 at %v, want .1 (router owns the gateway address)",
				i, cl.Hosts[0].IP())
		}
		if cl.Bank == nil || cl.Bank.Size() != 96 {
			t.Errorf("lan %d bank missing or wrong size", i)
		}
	}
	if c.LANs[0].Attacker == nil || c.LANs[1].Attacker != nil {
		t.Fatal("attacker should live on LAN 0 only")
	}
	if err := c.Run(10 * time.Second); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if c.Sharded.CrossMessages() == 0 {
		t.Error("background traffic never crossed the backbone")
	}
	if c.Frames() == 0 {
		t.Error("fabric carried no frames")
	}
	for i, cl := range c.LANs {
		if cl.Bank.Stats().Sent == 0 {
			t.Errorf("lan %d bank sent nothing", i)
		}
		if cl.Bank.Stats().Delivered == 0 {
			t.Errorf("lan %d bank received no cross-LAN datagrams", i)
		}
	}
}

// deployArpwatch installs arpwatch (cold, no seeded gateway) on every
// campus site, through the same site loop the scenario engine deploys with.
func deployArpwatch(t *testing.T, c *Campus) {
	t.Helper()
	for _, s := range c.Sites() {
		if _, err := registry.Deploy(s.Env(), registry.NameArpwatch, json.RawMessage(`{"seedGateway": false}`)); err != nil {
			t.Fatalf("lan %d: Deploy: %v", s.Index, err)
		}
	}
}

// TestCampusBankPoisoning: a broadcast gateway claim repoints every bank
// station at once (shared-fate naive caches); the census sees it, and the
// per-LAN arpwatch deployment raises correlated alerts.
func TestCampusBankPoisoning(t *testing.T) {
	c := NewCampus(CampusConfig{Seed: 4, LANs: 2, HostsPerLAN: 50, WithAttacker: true})
	deployArpwatch(t, c)
	lan0 := c.LANs[0]
	atk := lan0.Attacker
	gwIP := lan0.Router.IP()
	lan0.Sched.At(5*time.Second, func() {
		atk.Poison(attack.VariantGratuitous, gwIP, atk.MAC(), ethaddr.BroadcastMAC, ethaddr.IPv4{})
	})
	if err := c.Run(15 * time.Second); err != nil {
		t.Fatalf("Run: %v", err)
	}
	poisoned := c.PoisonedCount(gwIP, atk.MAC())
	if want := lan0.Bank.Size(); poisoned < want {
		t.Fatalf("PoisonedCount = %d, want at least the %d bank stations", poisoned, want)
	}
	alerts := c.MergedAlerts()
	if len(alerts) == 0 {
		t.Fatal("arpwatch raised no alerts for the broadcast claim")
	}
	for i := 1; i < len(alerts); i++ {
		a, b := alerts[i-1], alerts[i]
		if a.At > b.At || (a.At == b.At && a.LAN > b.LAN) {
			t.Fatalf("MergedAlerts out of order at %d: %+v then %+v", i, a, b)
		}
	}
	found := false
	for _, a := range alerts {
		if a.LAN == 0 && a.IP == gwIP && a.NewMAC == atk.MAC() {
			found = true
		}
	}
	if !found {
		t.Fatalf("no LAN-0 alert names the spoofed gateway: %+v", alerts)
	}
}

// TestCampusUnicastBankPoison: a unicast claim poisons only the targeted
// bank station.
func TestCampusUnicastBankPoison(t *testing.T) {
	c := NewCampus(CampusConfig{Seed: 6, LANs: 2, HostsPerLAN: 40, WithAttacker: true})
	lan0 := c.LANs[0]
	atk, bank := lan0.Attacker, lan0.Bank
	gwIP := lan0.Router.IP()
	lan0.Sched.At(2*time.Second, func() {
		atk.Poison(attack.VariantUnsolicitedReply, gwIP, atk.MAC(), bank.MAC(7), bank.IP(7))
	})
	if err := c.Run(5 * time.Second); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if got := bank.PoisonedCount(atk.MAC()); got != 1 {
		t.Fatalf("bank PoisonedCount = %d, want exactly the one targeted station", got)
	}
	if got := bank.GatewayMAC(7); got != atk.MAC() {
		t.Fatalf("station 7 gateway = %v, want attacker %v", got, atk.MAC())
	}
	if got := bank.GatewayMAC(8); got == atk.MAC() {
		t.Fatal("unicast poison leaked to a neighbouring station")
	}
}

// TestCampusBankIgnoresNonUnicastSender: the bank, like a host cache,
// never binds a broadcast, multicast or zero MAC — neither bank-wide from a
// broadcast claim nor per station from a unicast one.
func TestCampusBankIgnoresNonUnicastSender(t *testing.T) {
	c := NewCampus(CampusConfig{Seed: 6, LANs: 2, HostsPerLAN: 40})
	defer c.Recycle()
	lan0 := c.LANs[0]
	bank, host := lan0.Bank, lan0.Hosts[1]
	gwIP := lan0.Router.IP()
	for k, bad := range []ethaddr.MAC{ethaddr.BroadcastMAC, ethaddr.MustParseMAC("01:00:5e:00:00:01"), {}} {
		lan0.Sched.At(time.Duration(2000+k)*time.Millisecond, func() {
			g := arppkt.NewGratuitousReply(bad, gwIP)
			host.SendFrame(&frame.Frame{Dst: ethaddr.BroadcastMAC, Src: host.MAC(), Type: frame.TypeARP, Payload: g.Encode()})
			r := arppkt.NewReply(bad, gwIP, bank.MAC(7), bank.IP(7))
			host.SendFrame(&frame.Frame{Dst: bank.MAC(7), Src: host.MAC(), Type: frame.TypeARP, Payload: r.Encode()})
		})
	}
	if err := c.Run(5 * time.Second); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if st := bank.Stats(); st.Repointed != 0 {
		t.Fatalf("bank repointed %d times by non-unicast claims", st.Repointed)
	}
	if got := bank.PoisonedCount(lan0.Router.MAC()); got != bank.Size() {
		t.Fatalf("%d of %d bank stations still bind the router, want all", got, bank.Size())
	}
}

// campusTranscript runs a campus workload and serializes everything
// observable into one string for width-parity comparison.
func campusTranscript(t *testing.T, workers int) string {
	t.Helper()
	c := NewCampus(CampusConfig{
		Seed: 11, LANs: 4, HostsPerLAN: 64, Workers: workers, WithAttacker: true,
	})
	deployArpwatch(t, c)
	lan0 := c.LANs[0]
	atk := lan0.Attacker
	gwIP := lan0.Router.IP()
	victim := lan0.Victim()
	lan0.Sched.At(7*time.Second, func() {
		atk.Poison(attack.VariantGratuitous, gwIP, atk.MAC(), victim.MAC(), victim.IP())
		atk.Poison(attack.VariantGratuitous, victim.IP(), atk.MAC(), ethaddr.BroadcastMAC, ethaddr.IPv4{})
	})
	if err := c.Run(20 * time.Second); err != nil {
		t.Fatalf("Run: %v", err)
	}
	var b strings.Builder
	for _, a := range c.MergedAlerts() {
		fmt.Fprintf(&b, "%v lan%d %s %s %s %s->%s\n", a.At, a.LAN, a.Scheme, a.Kind, a.IP, a.OldMAC, a.NewMAC)
	}
	for i, cl := range c.LANs {
		fmt.Fprintf(&b, "lan%d now=%v exec=%d bank=%+v rtr=%+v sw=%d\n",
			i, cl.Sched.Now(), cl.Sched.Executed(), cl.Bank.Stats(), cl.Router.Stats(),
			cl.Switch.Stats().Forwarded)
	}
	fmt.Fprintf(&b, "cross=%d frames=%d poisoned=%d\n",
		c.Sharded.CrossMessages(), c.Frames(), c.PoisonedCount(gwIP, atk.MAC()))
	return b.String()
}

// TestCampusWidthParity: the full campus — banks, routers, schemes,
// attacks — is byte-identical at worker widths 1, 2, 8.
func TestCampusWidthParity(t *testing.T) {
	want := campusTranscript(t, 1)
	if !strings.Contains(want, "arpwatch") {
		t.Fatalf("no arpwatch alerts in the baseline transcript:\n%s", want)
	}
	for _, w := range []int{2, 8} {
		if got := campusTranscript(t, w); got != want {
			t.Fatalf("workers=%d transcript diverged\n--- w1:\n%s\n--- w%d:\n%s", w, want, w, got)
		}
	}
}

// TestCampusFootprintAllocFree is the bytes/host memory gate: campus
// memory must be dominated by per-LAN fixed cost, not per-station state.
// Two checks: (1) resident bytes per host at 10⁵ hosts stays under a hard
// budget; (2) growing a bank by thousands of stations adds only O(1)
// allocations. Wired into check.sh's alloc-gate leg.
func TestCampusFootprintAllocFree(t *testing.T) {
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	lans, perLAN := SizeCampus(100_000)
	c := NewCampus(CampusConfig{Seed: 9, LANs: lans, HostsPerLAN: perLAN, WithAttacker: true})
	runtime.GC()
	runtime.ReadMemStats(&after)
	hosts := c.TotalHosts()
	if hosts < 100_000 {
		t.Fatalf("campus undersized: %d hosts", hosts)
	}
	perHost := float64(after.HeapAlloc-before.HeapAlloc) / float64(hosts)
	t.Logf("campus footprint: %d hosts, %.1f bytes/host (%d LANs × %d hosts)",
		hosts, perHost, lans, perLAN)
	const budget = 512.0
	if perHost > budget {
		t.Fatalf("flyweight regression: %.1f bytes/host exceeds the %v-byte budget", perHost, budget)
	}
	runtime.KeepAlive(c)
	c.Recycle()

	// Marginal cost of bank population: +4032 stations may add only a
	// handful of allocations (the flyweight holds no per-station structs).
	allocsAt := func(hostsPerLAN int) float64 {
		return testing.AllocsPerRun(3, func() {
			cc := NewCampus(CampusConfig{Seed: 5, LANs: 2, HostsPerLAN: hostsPerLAN, BackgroundPeriod: -1})
			cc.Recycle()
		})
	}
	small := allocsAt(64)
	large := allocsAt(4096)
	t.Logf("construction allocs: %.0f @64 hosts/LAN, %.0f @4096 hosts/LAN", small, large)
	if large > small+16 {
		t.Fatalf("bank growth leaks per-station allocations: %.0f → %.0f", small, large)
	}
}

// TestCampusRecyclePoolsShards: recycled shard schedulers return to the
// trial pool and are reused by the next build.
func TestCampusRecyclePoolsShards(t *testing.T) {
	c := NewCampus(CampusConfig{Seed: 12, LANs: 2, HostsPerLAN: 8})
	if err := c.Run(time.Second); err != nil {
		t.Fatalf("Run: %v", err)
	}
	c.Recycle()
	for i, cl := range c.LANs {
		if cl.Sched != nil {
			t.Fatalf("lan %d scheduler not released", i)
		}
	}
	// An externally scheduled flat LAN must never enter the pool.
	sh := sim.NewScheduler(1)
	l := New(Config{Seed: 1, Sched: sh})
	l.Recycle()
	if l.Sched == nil {
		t.Fatal("Recycle cleared an externally owned scheduler")
	}
}
