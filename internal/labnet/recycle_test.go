//go:build go1.24

package labnet

import (
	"encoding/json"
	"fmt"
	"runtime"
	"slices"
	"sort"
	"strings"
	"testing"
	"time"
	"weak"

	"repro/internal/attack"
	"repro/internal/ethaddr"
	"repro/internal/faults"
	"repro/internal/schemes"
	"repro/internal/schemes/registry"
	"repro/internal/sim"
	"repro/internal/stack"
)

// TestRecycleReleasesTopology: a recycled topology is garbage. Neither the
// pooled scheduler (its event slabs keep every pending callback and task)
// nor the storage parked on it — netsim's transit free lists and arenas (a
// frame still in flight at the horizon), the hosts' ARP caches, the router
// interfaces' tables and retry shells — may keep the finished LAN
// reachable, or every trial would grow the heap by the previous trial's
// topology.
func TestRecycleReleasesTopology(t *testing.T) {
	collected := func(t *testing.T, wps ...weak.Pointer[LAN]) {
		t.Helper()
		runtime.GC()
		for i, wp := range wps {
			if wp.Value() != nil {
				t.Fatalf("recycled LAN %d is still reachable", i)
			}
		}
	}
	parked := func(t *testing.T, s *sim.Scheduler) {
		t.Helper()
		if s.Scratch(sim.ScratchCaches) == nil {
			t.Fatal("Recycle parked no cache storage on the scheduler")
		}
	}
	t.Run("campus", func(t *testing.T) {
		var shard *sim.Scheduler
		collected(t, func() []weak.Pointer[LAN] {
			c := NewCampus(CampusConfig{Seed: 3, LANs: 4, HostsPerLAN: 64, WithAttacker: true})
			deployArpwatch(t, c)
			// A datagram to an address nobody holds leaves LAN 1's router
			// with a queued frame and a live retry chain at the horizon.
			lost := c.LANs[1].Subnet.Host(77)
			c.LANs[0].Sched.At(4500*time.Millisecond, func() { c.LANs[0].Victim().SendUDP(lost, 2000, 80, nil) })
			if err := c.Run(5 * time.Second); err != nil {
				t.Fatal(err)
			}
			if st := c.LANs[1].Router.Stats(); st.QueuedAwait == 0 || st.DroppedARP != 0 {
				t.Fatalf("LAN 1 router stats %+v: want a resolution still pending at the horizon", st)
			}
			shard = c.LANs[1].Sched
			var wps []weak.Pointer[LAN]
			for _, cl := range c.LANs {
				wps = append(wps, weak.Make(cl.LAN))
			}
			c.Recycle()
			return wps
		}()...)
		parked(t, shard)
	})
	t.Run("lan", func(t *testing.T) {
		var sched *sim.Scheduler
		collected(t, func() weak.Pointer[LAN] {
			l := New(Config{Seed: 3, WithAttacker: true, WithMonitor: true})
			l.Sched.Every(time.Second, func() { l.Victim().SendUDP(l.Gateway().IP(), 2000, 80, nil) })
			if err := l.Run(5 * time.Second); err != nil {
				t.Fatal(err)
			}
			sched = l.Sched
			wp := weak.Make(l)
			l.Recycle()
			return wp
		}())
		parked(t, sched)
	})
}

// drainPool empties the trial pool, so the next trial starts on fresh
// schedulers with nothing parked.
func drainPool() {
	schedPool.mu.Lock()
	clear(schedPool.free)
	schedPool.free = schedPool.free[:0]
	schedPool.mu.Unlock()
}

// writeHost appends a host's counters and its live cache, sorted.
func writeHost(b *strings.Builder, h *stack.Host) {
	snap := h.Cache().Snapshot()
	ips := make([]ethaddr.IPv4, 0, len(snap))
	for ip := range snap {
		ips = append(ips, ip)
	}
	sort.Slice(ips, func(i, j int) bool { return ips[i].Uint32() < ips[j].Uint32() })
	fmt.Fprintf(b, "%s %+v\n", h.Name(), h.Stats())
	for _, ip := range ips {
		fmt.Fprintf(b, "  %s %+v\n", ip, snap[ip])
	}
}

// flatTrial runs a 32-host LAN under arpwatch through a gateway spoof and
// serializes everything observable. It reports the trial's scheduler,
// back in the pool when it returns.
func flatTrial(t *testing.T, seed int64) (string, []*sim.Scheduler) {
	t.Helper()
	l := New(Config{Seed: seed, Hosts: 32, WithAttacker: true, WithMonitor: true})
	sink := schemes.NewSink()
	if _, err := registry.Deploy(l.Env(sink, nil), registry.NameArpwatch, nil); err != nil {
		t.Fatal(err)
	}
	l.SeedMutualCaches()
	gw, victim, atk := l.Gateway(), l.Victim(), l.Attacker
	l.Sched.Every(700*time.Millisecond, func() { victim.SendUDP(gw.IP(), 2000, 80, []byte("flat")) })
	l.Sched.At(time.Duration(3000+seed)*time.Millisecond, func() {
		atk.Poison(attack.VariantGratuitous, gw.IP(), atk.MAC(), ethaddr.BroadcastMAC, ethaddr.IPv4{})
	})
	if err := l.Run(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	fmt.Fprintf(&b, "now=%v exec=%d sw=%+v poisoned=%d\n", l.Sched.Now(), l.Sched.Executed(), l.Switch.Stats(), l.PoisonedCount(gw.IP()))
	for _, a := range sink.Alerts() {
		fmt.Fprintln(&b, a.String())
	}
	for _, h := range l.Hosts {
		writeHost(&b, h)
	}
	writeHost(&b, l.Monitor)
	s := l.Sched
	l.Recycle()
	return b.String(), []*sim.Scheduler{s}
}

// campusPlans are the faulted campus trials' fault plans, one per trial.
var campusPlans = []string{
	`{"events": [
		{"type": "trunk-partition", "atSeconds": 3, "durationSeconds": 4, "trunk": "trunk:1-*"},
		{"type": "router-flush", "atSeconds": 8, "lan": "lan:*"},
		{"type": "cam-flush", "atSeconds": 9, "lan": "lan:2"}
	]}`,
	`{"events": [
		{"type": "gilbert-elliott", "atSeconds": 2, "durationSeconds": 10, "pGoodBad": 0.1, "pBadGood": 0.3, "lossBad": 0.7, "linkAt": "lan:0/link:*"},
		{"type": "host-churn", "atSeconds": 6, "durationSeconds": 2, "hostAt": "lan:1/host:2"},
		{"type": "router-flush", "atSeconds": 11, "lan": "lan:3"}
	]}`,
}

// runCampusTrial runs a small faulted campus under arpwatch: an attacker
// on LAN 1 spoofs the gateway and the victim while every LAN's victim
// sends to the next LAN's.
func runCampusTrial(t *testing.T, seed int64, plan string) (*Campus, *faults.Controller) {
	t.Helper()
	c := NewCampus(CampusConfig{Seed: seed, LANs: 4, HostsPerLAN: 64, WithAttacker: true, AttackerLAN: 1})
	deployArpwatch(t, c)
	var p faults.Plan
	if err := json.Unmarshal([]byte(plan), &p); err != nil {
		t.Fatal(err)
	}
	ctl, err := faults.Apply(&p, c.FaultEnv())
	if err != nil {
		t.Fatal(err)
	}
	lan := c.LANs[1]
	atk, victim := lan.Attacker, lan.Victim()
	lan.Sched.At(5*time.Second, func() {
		atk.Poison(attack.VariantGratuitous, lan.Router.IP(), atk.MAC(), ethaddr.BroadcastMAC, ethaddr.IPv4{})
		atk.Poison(attack.VariantGratuitous, victim.IP(), atk.MAC(), ethaddr.BroadcastMAC, ethaddr.IPv4{})
	})
	for i, cl := range c.LANs {
		peer := c.LANs[(i+1)%len(c.LANs)].Victim()
		h := cl.Victim()
		cl.Sched.Every(900*time.Millisecond, func() { h.SendUDP(peer.IP(), 2000, 80, []byte("campus")) })
	}
	if err := c.Run(14 * time.Second); err != nil {
		t.Fatal(err)
	}
	return c, ctl
}

// campusTrial runs runCampusTrial and serializes everything observable,
// caches and router tables included. It reports the trial's shard
// schedulers, which are back in the pool when it returns.
func campusTrial(t *testing.T, seed int64, plan string) (string, []*sim.Scheduler) {
	t.Helper()
	c, ctl := runCampusTrial(t, seed, plan)
	atk := c.LANs[1].Attacker
	var b strings.Builder
	for _, a := range c.MergedAlerts() {
		fmt.Fprintf(&b, "%v lan%d %s %s %s %s->%s\n", a.At, a.LAN, a.Scheme, a.Kind, a.IP, a.OldMAC, a.NewMAC)
	}
	fmt.Fprintf(&b, "faults=%+v cross=%d frames=%d\n", ctl.Stats(), c.Sharded.CrossMessages(), c.Frames())
	var shards []*sim.Scheduler
	for i, cl := range c.LANs {
		fmt.Fprintf(&b, "lan%d now=%v exec=%d bank=%+v rtr=%+v sw=%+v poisoned=%d\n", i, cl.Sched.Now(), cl.Sched.Executed(),
			cl.Bank.Stats(), cl.Router.Stats(), cl.Switch.Stats(), c.PoisonedCount(cl.Router.IP(), atk.MAC()))
		for _, h := range cl.Hosts {
			writeHost(&b, h)
			mac, ok := cl.Router.Lookup(h.IP())
			fmt.Fprintf(&b, "  router: %v %v\n", mac, ok)
		}
		writeHost(&b, cl.Monitor)
		shards = append(shards, cl.Sched)
	}
	c.Recycle()
	return b.String(), shards
}

// TestRecycledTrialsMatchFresh: a trial on storage recycled from a
// different trial — its pooled schedulers, arenas, CAMs, parked caches and
// router tables — produces exactly what it does on fresh storage, in both
// orders, for a flat 32-host LAN and for a small faulted campus.
func TestRecycledTrialsMatchFresh(t *testing.T) {
	type trial func() (string, []*sim.Scheduler)
	cases := []struct {
		name string
		a, b trial
	}{
		{"flat",
			func() (string, []*sim.Scheduler) { return flatTrial(t, 3) },
			func() (string, []*sim.Scheduler) { return flatTrial(t, 8) }},
		{"campus",
			func() (string, []*sim.Scheduler) { return campusTrial(t, 5, campusPlans[0]) },
			func() (string, []*sim.Scheduler) { return campusTrial(t, 9, campusPlans[1]) }},
	}
	defer drainPool()
	for _, tc := range cases {
		for _, order := range [][2]trial{{tc.a, tc.b}, {tc.b, tc.a}} {
			first, second := order[0], order[1]
			drainPool()
			want, _ := second()
			drainPool()
			_, used := first()
			got, reused := second()
			for _, s := range reused {
				if !slices.Contains(used, s) {
					t.Fatalf("%s: the second trial ran on a scheduler the first did not recycle", tc.name)
				}
			}
			if got != want {
				t.Fatalf("%s: a trial on recycled storage diverged from the same trial on fresh storage\n--- fresh:\n%s\n--- recycled:\n%s", tc.name, want, got)
			}
		}
	}
}

// TestRecycledCampusTrialAllocFree pins the allocations of a small faulted
// campus trial whose storage is recycled from the one before: with the
// pool, arenas, parked caches and router tables warm, what is left is
// construction (hosts, NICs, ports, deployments, the fault controller).
func TestRecycledCampusTrialAllocFree(t *testing.T) {
	defer drainPool()
	trial := func() {
		c, _ := runCampusTrial(t, 5, campusPlans[0])
		c.Recycle()
	}
	drainPool()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	trial()
	runtime.ReadMemStats(&m1)
	fresh := m1.Mallocs - m0.Mallocs
	allocs := testing.AllocsPerRun(5, trial)
	t.Logf("campus trial: %v allocs on recycled storage, %d on fresh", allocs, fresh)
	// 836 measured (Go 1.24, amd64), and 843 under the race detector; a
	// per-frame or per-entry allocation on the routed path would add
	// thousands.
	const ceiling = 846
	if allocs > ceiling {
		t.Fatalf("campus trial on recycled storage: %v allocs, want at most %d", allocs, ceiling)
	}
}
