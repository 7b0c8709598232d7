package labnet

import (
	"reflect"
	"testing"
	"time"

	"repro/internal/attack"
	"repro/internal/ethaddr"
	"repro/internal/faults"
	"repro/internal/schemes"
	"repro/internal/schemes/registry"
	_ "repro/internal/schemes/registry/all"
)

// TestSingleTopologySites pins the flat LAN's one-site rendering: site 0
// carries the LAN, no router, and the same registry.Env the legacy path
// built directly.
func TestSingleTopologySites(t *testing.T) {
	l := New(Config{Seed: 2, Hosts: 4, WithAttacker: true, WithMonitor: true})
	sink := schemes.NewSink()
	top := &Single{LAN: l, Sink: sink}
	sites := top.Sites()
	if len(sites) != 1 || sites[0].Index != 0 || sites[0].Router != nil {
		t.Fatalf("flat topology sites = %+v", sites)
	}
	env := sites[0].Env()
	want := l.Env(sink, nil)
	if !reflect.DeepEqual(env, want) {
		t.Fatalf("site env diverged from LAN env:\n%+v\n%+v", env, want)
	}
	fe := top.FaultEnv()
	if len(fe.Sites) != 1 || len(fe.Trunks) != 0 || fe.Sched != l.Sched || fe.Sites[0].Sched != l.Sched {
		t.Fatalf("flat fault env should be the single site 0: %+v", fe)
	}
	if s := fe.Sites[0]; s.Router != nil || s.Switch != l.Switch || len(s.Hosts) != len(l.Hosts) ||
		len(s.Links) != len(l.Links)+1 {
		t.Fatalf("flat fault site should cover every host link plus the monitor's: %+v", s)
	}
}

// TestCampusFaultEnvShape checks the campus's faults view: one site per
// LAN with its own shard scheduler and router, one trunk per backbone edge.
func TestCampusFaultEnvShape(t *testing.T) {
	c := NewCampus(CampusConfig{Seed: 5, LANs: 3, HostsPerLAN: 8})
	fe := c.FaultEnv()
	if len(fe.Sites) != 3 {
		t.Fatalf("sites = %d, want 3", len(fe.Sites))
	}
	for i, s := range fe.Sites {
		if s.Sched != c.LANs[i].Sched {
			t.Errorf("site %d scheduler is not its LAN's shard", i)
		}
		if s.Router != c.LANs[i].Router {
			t.Errorf("site %d router mismatch", i)
		}
		if len(s.Links) == 0 || s.Switch == nil || len(s.Hosts) == 0 {
			t.Errorf("site %d view incomplete: %+v", i, s)
		}
	}
	if want := 3 * 2; len(fe.Trunks) != want {
		t.Fatalf("trunks = %d, want %d (full mesh)", len(fe.Trunks), want)
	}
	for _, tr := range fe.Trunks {
		if tr.Sched != c.LANs[tr.From].Sched {
			t.Errorf("trunk %d-%d armed off its source shard", tr.From, tr.To)
		}
	}
}

// TestCampusTrunkPartitionFault partitions one LAN off the backbone for a
// window and checks cross-LAN delivery stops, then resumes.
func TestCampusTrunkPartitionFault(t *testing.T) {
	run := func(plan *faults.Plan) (uint64, faults.Stats) {
		c := NewCampus(CampusConfig{Seed: 7, LANs: 3, HostsPerLAN: 40})
		var ctl *faults.Controller
		if plan != nil {
			var err error
			if ctl, err = faults.Apply(plan, c.FaultEnv()); err != nil {
				t.Fatal(err)
			}
		}
		if err := c.Run(20 * time.Second); err != nil {
			t.Fatal(err)
		}
		var st faults.Stats
		if ctl != nil {
			st = ctl.Stats()
		}
		var delivered uint64
		for _, cl := range c.LANs {
			delivered += cl.Bank.Stats().Delivered
		}
		return delivered, st
	}
	baseline, _ := run(nil)
	partitioned, st := run(&faults.Plan{Events: []faults.Event{{
		Type: faults.TypeTrunkPartition, AtSeconds: 2, DurationSeconds: 16, Trunk: "trunk:*",
	}}})
	if st.TrunkPartitions != 6 {
		t.Fatalf("TrunkPartitions = %d, want 6 windows (full mesh)", st.TrunkPartitions)
	}
	if st.TrunkDropped == 0 {
		t.Fatal("partitioned trunks dropped nothing")
	}
	if partitioned >= baseline {
		t.Fatalf("cross-LAN delivery unaffected by partition: %d >= %d", partitioned, baseline)
	}
}

// TestCampusRouterFlushFault clears one LAN's edge-router ARP table and
// checks the flush registered and traffic still flows afterwards.
func TestCampusRouterFlushFault(t *testing.T) {
	c := NewCampus(CampusConfig{Seed: 8, LANs: 2, HostsPerLAN: 30})
	ctl, err := faults.Apply(&faults.Plan{Events: []faults.Event{
		{Type: faults.TypeRouterFlush, AtSeconds: 10, Lan: "lan:1"},
	}}, c.FaultEnv())
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Run(20 * time.Second); err != nil {
		t.Fatal(err)
	}
	st := ctl.Stats()
	if st.RouterFlushes != 1 {
		t.Fatalf("RouterFlushes = %d, want 1", st.RouterFlushes)
	}
	if c.LANs[1].Bank.Stats().Delivered == 0 {
		t.Fatal("LAN 1 stopped receiving after the flush — router never re-resolved")
	}
}

// TestCampusAttackerPlacement puts the attacker on LAN 2 and poisons that
// segment's bank — attack arming must work from any site.
func TestCampusAttackerPlacement(t *testing.T) {
	c := NewCampus(CampusConfig{Seed: 9, LANs: 3, HostsPerLAN: 30, WithAttacker: true, AttackerLAN: 2})
	if c.LANs[0].Attacker != nil || c.LANs[1].Attacker != nil || c.LANs[2].Attacker == nil {
		t.Fatal("attacker should live on LAN 2 only")
	}
	deployArpwatch(t, c)
	lan2 := c.LANs[2]
	atk := lan2.Attacker
	gwIP := lan2.Router.IP()
	lan2.Sched.At(5*time.Second, func() {
		atk.Poison(attack.VariantGratuitous, gwIP, atk.MAC(), ethaddr.BroadcastMAC, ethaddr.IPv4{})
	})
	if err := c.Run(15 * time.Second); err != nil {
		t.Fatal(err)
	}
	if got := c.PoisonedCount(gwIP, atk.MAC()); got < lan2.Bank.Size() {
		t.Fatalf("PoisonedCount = %d, want at least LAN 2's %d bank stations", got, lan2.Bank.Size())
	}
	found := false
	for _, a := range c.MergedAlerts() {
		if a.LAN == 2 && a.IP == gwIP && a.NewMAC == atk.MAC() {
			found = true
		}
	}
	if !found {
		t.Fatal("no LAN-2 alert names the spoofed gateway")
	}
}

// TestCampusStackDeploy installs a two-scheme stack fabric-wide and checks
// each segment got its own correlated instance that still detects.
func TestCampusStackDeploy(t *testing.T) {
	st, err := registry.ParseStack(registry.NameArpwatch + "+" + registry.NameSnortLike)
	if err != nil {
		t.Fatal(err)
	}
	c := NewCampus(CampusConfig{Seed: 12, LANs: 2, HostsPerLAN: 20, WithAttacker: true})
	for _, s := range c.Sites() {
		inst, err := registry.DeployStack(s.Env(), st)
		if err != nil {
			t.Fatalf("lan %d: DeployStack: %v", s.Index, err)
		}
		if len(inst.Members) != 2 {
			t.Fatalf("lan %d: %d stack members deployed, want 2", s.Index, len(inst.Members))
		}
	}
	lan0 := c.LANs[0]
	atk := lan0.Attacker
	gwIP := lan0.Router.IP()
	lan0.Sched.At(3*time.Second, func() {
		atk.Poison(attack.VariantGratuitous, gwIP, atk.MAC(), ethaddr.BroadcastMAC, ethaddr.IPv4{})
	})
	if err := c.Run(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	alerts := c.MergedAlerts()
	if len(alerts) == 0 {
		t.Fatal("stack raised no alerts")
	}
	if alerts[0].LAN != 0 || alerts[0].IP != gwIP {
		t.Fatalf("first alert should name LAN 0's spoofed gateway: %+v", alerts[0])
	}
}
