package faults_test

import (
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/dhcp"
	"repro/internal/ethaddr"
	"repro/internal/faults"
	"repro/internal/labnet"
	"repro/internal/telemetry"
)

// chatter schedules steady gateway-bound UDP traffic from every station.
func chatter(l *labnet.LAN, period time.Duration) {
	gw := l.Gateway()
	for _, h := range l.Hosts[1:] {
		h := h
		l.Sched.Every(period, func() { h.SendUDP(gw.IP(), 2000, 80, []byte("work")) })
	}
}

func TestLoadRejectsUnknownFields(t *testing.T) {
	if _, err := faults.Load(strings.NewReader(`{"events":[{"bogus":1}]}`)); err == nil {
		t.Fatal("unknown field accepted")
	}
	if _, err := faults.Load(strings.NewReader(`not json`)); err == nil {
		t.Fatal("garbage accepted")
	}
	for _, bare := range []string{`"link":3`, `"host":4`} {
		if _, err := faults.Load(strings.NewReader(`{"events":[{"type":"link-flap",` + bare + `}]}`)); err == nil {
			t.Fatalf("bare index %s accepted; targets are named by linkAt/hostAt", bare)
		}
	}
	p, err := faults.Load(strings.NewReader(`{"events":[{"type":"cam-flush","atSeconds":5}]}`))
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Events) != 1 || p.Events[0].Type != faults.TypeCAMFlush {
		t.Fatalf("plan: %+v", p)
	}
}

func TestApplyValidation(t *testing.T) {
	l := labnet.New(labnet.Config{Seed: 1, Hosts: 4, WithAttacker: false, WithMonitor: false})
	env := l.FaultEnv()
	cases := []struct {
		name string
		ev   faults.Event
		want string
	}{
		{"unknown type", faults.Event{Type: "meteor-strike"}, "unknown type"},
		{"negative at", faults.Event{Type: faults.TypeCAMFlush, AtSeconds: -1}, "negative atSeconds"},
		{"inert channel", faults.Event{Type: faults.TypeGilbertElliott}, "never lose"},
		{"bad prob", faults.Event{Type: faults.TypeGilbertElliott, PGoodBad: 1.5}, "outside [0, 1]"},
		{"zero prob", faults.Event{Type: faults.TypeReorder}, "prob is zero"},
		{"flap no window", faults.Event{Type: faults.TypeLinkFlap, LinkAt: "lan:0/link:0"}, "positive durationSeconds"},
		{"churn no host", faults.Event{Type: faults.TypeHostChurn, DurationSeconds: 1}, "requires a host index"},
		{"churn bad host", faults.Event{Type: faults.TypeHostChurn, DurationSeconds: 1, HostAt: "lan:0/host:99"}, "out of range"},
		{"link out of range", faults.Event{Type: faults.TypeLinkFlap, DurationSeconds: 1, LinkAt: "lan:0/link:99"}, "out of range"},
		{"no dhcp", faults.Event{Type: faults.TypeDHCPOutage}, "no DHCP server"},
	}
	for _, tc := range cases {
		_, err := faults.Apply(&faults.Plan{Events: []faults.Event{tc.ev}}, env)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: err = %v, want substring %q", tc.name, err, tc.want)
		}
	}
	if _, err := faults.Apply(&faults.Plan{}, env); err != nil {
		t.Errorf("empty plan rejected: %v", err)
	}
}

func TestGilbertElliottWindowDropsFrames(t *testing.T) {
	l := labnet.New(labnet.Config{Seed: 3, Hosts: 4, WithAttacker: false, WithMonitor: false})
	l.SeedMutualCaches()
	chatter(l, 100*time.Millisecond)
	ctl, err := faults.Apply(&faults.Plan{Events: []faults.Event{{
		Type: faults.TypeGilbertElliott, AtSeconds: 5, DurationSeconds: 20,
		PGoodBad: 0.3, PBadGood: 0.2, LossBad: 0.9,
	}}}, l.FaultEnv())
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Run(60 * time.Second); err != nil {
		t.Fatal(err)
	}
	st := ctl.Stats()
	if st.BurstDropped == 0 {
		t.Fatalf("burst channel dropped nothing: %+v", st)
	}
	var linkDrops uint64
	for _, lk := range l.Links {
		linkDrops += lk.Stats().FaultDropped
	}
	if linkDrops != st.BurstDropped {
		t.Fatalf("link FaultDropped %d != controller BurstDropped %d", linkDrops, st.BurstDropped)
	}
}

func TestDuplicateAndReorderStillDeliver(t *testing.T) {
	l := labnet.New(labnet.Config{Seed: 4, Hosts: 3, WithAttacker: false, WithMonitor: false})
	l.SeedMutualCaches()
	received := 0
	l.Gateway().HandleUDP(80, func(ethaddr.IPv4, uint16, []byte) { received++ })
	chatter(l, 200*time.Millisecond)
	ctl, err := faults.Apply(&faults.Plan{Events: []faults.Event{
		{Type: faults.TypeDuplicate, Prob: 0.5, MaxDelayMillis: 2},
		{Type: faults.TypeReorder, Prob: 0.5, MaxDelayMillis: 5},
	}}, l.FaultEnv())
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Run(30 * time.Second); err != nil {
		t.Fatal(err)
	}
	st := ctl.Stats()
	if st.Duplicated == 0 || st.Reordered == 0 {
		t.Fatalf("injected nothing: %+v", st)
	}
	// Duplication adds deliveries, reordering only delays them: the gateway
	// must see at least one copy of every datagram plus the duplicates.
	sent := 0
	for _, h := range l.Hosts[1:] {
		sent += int(h.Stats().IPv4Tx)
	}
	if received <= sent/2 {
		t.Fatalf("received %d of %d sent — faults ate traffic they must not eat", received, sent)
	}
}

func TestLinkFlapWindow(t *testing.T) {
	l := labnet.New(labnet.Config{Seed: 5, Hosts: 3, WithAttacker: false, WithMonitor: false})
	l.SeedMutualCaches()
	chatter(l, 100*time.Millisecond)
	ctl, err := faults.Apply(&faults.Plan{Events: []faults.Event{{
		Type: faults.TypeLinkFlap, AtSeconds: 10, DurationSeconds: 5, LinkAt: "lan:0/link:1",
	}}}, l.FaultEnv())
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Run(20 * time.Second); err != nil {
		t.Fatal(err)
	}
	if l.Links[1].Down() {
		t.Fatal("link still down after the flap window")
	}
	st := ctl.Stats()
	if st.LinkFlaps != 1 || st.FlapDropped == 0 {
		t.Fatalf("flap stats: %+v", st)
	}
	if l.Links[0].Stats().DownDropped != 0 {
		t.Fatal("flap leaked onto an untargeted link")
	}
}

func TestHostChurnWipesCacheAndReannounces(t *testing.T) {
	l := labnet.New(labnet.Config{Seed: 6, Hosts: 4, WithAttacker: false, WithMonitor: false})
	l.SeedMutualCaches()
	target := l.Hosts[2]
	ctl, err := faults.Apply(&faults.Plan{Events: []faults.Event{{
		Type: faults.TypeHostChurn, AtSeconds: 5, DurationSeconds: 2, HostAt: "lan:0/host:2",
	}}}, l.FaultEnv())
	if err != nil {
		t.Fatal(err)
	}
	cacheAtReturn := -1
	l.Sched.At(7*time.Second+time.Millisecond, func() { cacheAtReturn = target.Cache().Len() })
	if err := l.Run(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	if ctl.Stats().HostChurns != 1 {
		t.Fatalf("stats: %+v", ctl.Stats())
	}
	if cacheAtReturn != 0 {
		t.Fatalf("cache held %d entries right after the restart, want 0", cacheAtReturn)
	}
	// The re-announcement repopulates the peers' view of the churned host.
	if mac, ok := l.Gateway().Cache().Lookup(target.IP()); !ok || mac != target.MAC() {
		t.Fatal("gateway lost the churned host's binding despite the gratuitous re-announce")
	}
}

func TestCAMFlushClearsSwitchTable(t *testing.T) {
	l := labnet.New(labnet.Config{Seed: 7, Hosts: 4, WithAttacker: false, WithMonitor: false})
	l.SeedMutualCaches()
	ctl, err := faults.Apply(&faults.Plan{Events: []faults.Event{{
		Type: faults.TypeCAMFlush, AtSeconds: 5,
	}}}, l.FaultEnv())
	if err != nil {
		t.Fatal(err)
	}
	camAfter := -1
	l.Sched.At(5*time.Second+time.Millisecond, func() { camAfter = l.Switch.CAMLen() })
	if err := l.Run(6 * time.Second); err != nil {
		t.Fatal(err)
	}
	if camAfter != 0 {
		t.Fatalf("CAM held %d entries right after the flush", camAfter)
	}
	if ctl.Stats().CAMFlushes != 1 {
		t.Fatalf("stats: %+v", ctl.Stats())
	}
}

func TestDHCPOutageStarvesAndRecovers(t *testing.T) {
	l := labnet.New(labnet.Config{Seed: 8, Hosts: 2, WithAttacker: false, WithMonitor: false})
	sv := dhcp.NewServer(l.Sched, l.Gateway(), l.Subnet, l.Gateway().IP(), 100, 10)
	client := dhcp.NewClient(l.Sched, l.Hosts[1], nil)
	env := l.FaultEnv()
	env.DHCP = []*dhcp.Server{sv}
	ctl, err := faults.Apply(&faults.Plan{Events: []faults.Event{{
		Type: faults.TypeDHCPOutage, AtSeconds: 0, DurationSeconds: 30,
	}}}, env)
	if err != nil {
		t.Fatal(err)
	}
	l.Sched.At(time.Second, client.Acquire)
	stateDuringOutage := dhcp.StateBound
	l.Sched.At(25*time.Second, func() { stateDuringOutage = client.State() })
	if err := l.Run(90 * time.Second); err != nil {
		t.Fatal(err)
	}
	if stateDuringOutage == dhcp.StateBound {
		t.Fatal("client bound while the server was down")
	}
	if client.State() != dhcp.StateBound {
		t.Fatalf("client never recovered after the outage: state %v", client.State())
	}
	st := ctl.Stats()
	if st.DHCPOutages != 1 || st.DHCPDropped == 0 {
		t.Fatalf("outage stats: %+v", st)
	}
}

// TestPlanIsDeterministic runs the same faulted scenario twice and demands
// identical injection counts and end-state — the invariant that makes
// fault-swept experiments reproducible at any worker-pool width.
func TestPlanIsDeterministic(t *testing.T) {
	run := func() (faults.Stats, int) {
		l := labnet.New(labnet.Config{Seed: 42, Hosts: 6, WithAttacker: true, WithMonitor: true})
		l.SeedMutualCaches()
		chatter(l, 50*time.Millisecond)
		ctl, err := faults.Apply(&faults.Plan{Events: []faults.Event{
			{Type: faults.TypeGilbertElliott, AtSeconds: 2, DurationSeconds: 30, PGoodBad: 0.05, PBadGood: 0.2, LossBad: 0.8},
			{Type: faults.TypeReorder, Prob: 0.1, MaxDelayMillis: 3},
			{Type: faults.TypeDuplicate, Prob: 0.05},
			{Type: faults.TypeLinkFlap, AtSeconds: 10, DurationSeconds: 3, LinkAt: "lan:0/link:2"},
			{Type: faults.TypeHostChurn, AtSeconds: 20, DurationSeconds: 2, HostAt: "lan:0/host:3"},
			{Type: faults.TypeCAMFlush, AtSeconds: 25},
		}}, l.FaultEnv())
		if err != nil {
			t.Fatal(err)
		}
		if err := l.Run(40 * time.Second); err != nil {
			t.Fatal(err)
		}
		return ctl.Stats(), l.Gateway().Cache().Len()
	}
	s1, c1 := run()
	s2, c2 := run()
	if !reflect.DeepEqual(s1, s2) || c1 != c2 {
		t.Fatalf("two identical runs diverged:\n%+v (cache %d)\n%+v (cache %d)", s1, c1, s2, c2)
	}
	if s1.Total() == 0 {
		t.Fatal("plan injected nothing")
	}
}

// TestDisabledPlanIsInvisible pins the compiled-in-but-disabled guarantee:
// a run with no plan and a run with an empty plan produce identical
// end-state, and arming a plan whose windows never open changes nothing
// either (injector streams are derived, not taken from the shared stream).
func TestDisabledPlanIsInvisible(t *testing.T) {
	run := func(plan *faults.Plan) (uint64, int) {
		l := labnet.New(labnet.Config{
			Seed: 9, Hosts: 5, WithAttacker: true, WithMonitor: true,
			LinkJitter: 200 * time.Microsecond, LinkLoss: 0.05,
		})
		l.SeedMutualCaches()
		chatter(l, 100*time.Millisecond)
		if plan != nil {
			if _, err := faults.Apply(plan, l.FaultEnv()); err != nil {
				t.Fatal(err)
			}
		}
		if err := l.Run(30 * time.Second); err != nil {
			t.Fatal(err)
		}
		var rx uint64
		for _, h := range l.Hosts {
			rx += h.Stats().IPv4Rx
		}
		return rx, l.Switch.CAMLen()
	}
	rxNone, camNone := run(nil)
	rxEmpty, camEmpty := run(&faults.Plan{})
	// This window opens after the horizon: armed, never active.
	rxLate, camLate := run(&faults.Plan{Events: []faults.Event{{
		Type: faults.TypeGilbertElliott, AtSeconds: 3600, PGoodBad: 0.5, PBadGood: 0.1, LossBad: 1,
	}}})
	if rxNone != rxEmpty || camNone != camEmpty {
		t.Fatalf("empty plan perturbed the run: rx %d vs %d, cam %d vs %d", rxNone, rxEmpty, camNone, camEmpty)
	}
	if rxNone != rxLate || camNone != camLate {
		t.Fatalf("dormant plan perturbed the run: rx %d vs %d, cam %d vs %d", rxNone, rxLate, camNone, camLate)
	}
}

func TestTelemetryCountersAndEvents(t *testing.T) {
	reg := telemetry.New()
	l := labnet.New(labnet.Config{Seed: 10, Hosts: 4, WithAttacker: false, WithMonitor: false, Telemetry: reg})
	l.SeedMutualCaches()
	chatter(l, 100*time.Millisecond)
	env := l.FaultEnv()
	env.Registry = reg
	_, err := faults.Apply(&faults.Plan{Events: []faults.Event{
		{Type: faults.TypeGilbertElliott, AtSeconds: 1, PGoodBad: 0.5, PBadGood: 0.1, LossBad: 0.9},
		{Type: faults.TypeCAMFlush, AtSeconds: 5},
	}}, env)
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Run(20 * time.Second); err != nil {
		t.Fatal(err)
	}
	snap := reg.Snapshot()
	byType := make(map[string]uint64)
	for _, c := range snap.Counters {
		if c.Name == "faults_injected_total" {
			byType[c.Labels["type"]] = c.Value
		}
	}
	if byType[faults.TypeGilbertElliott] == 0 {
		t.Fatalf("no gilbert-elliott injections in telemetry: %v", byType)
	}
	if byType[faults.TypeCAMFlush] != 1 {
		t.Fatalf("cam-flush counter = %d, want 1", byType[faults.TypeCAMFlush])
	}
	found := false
	for _, ev := range reg.Events().Events() {
		if ev.Component == "faults" {
			found = true
			break
		}
	}
	if !found {
		t.Fatal("no structured events from the faults component")
	}
}

// TestHierarchicalAddressValidation pins the strict-decode behavior of the
// hierarchical selectors: malformed addresses fail at Apply with an error
// naming the event, and the unknown-type error lists every valid type.
func TestHierarchicalAddressValidation(t *testing.T) {
	l := labnet.New(labnet.Config{Seed: 11, Hosts: 4, WithAttacker: false, WithMonitor: false})
	env := l.FaultEnv()
	cases := []struct {
		name string
		ev   faults.Event
		want string
	}{
		{"bad linkAt", faults.Event{Type: faults.TypeLinkFlap, DurationSeconds: 1, LinkAt: "lan:0/port:3"}, "bad selector part"},
		{"garbage linkAt", faults.Event{Type: faults.TypeReorder, Prob: 0.5, LinkAt: "everything"}, `link address "everything"`},
		{"negative lan", faults.Event{Type: faults.TypeReorder, Prob: 0.5, LinkAt: "lan:-2/link:0"}, "non-negative"},
		{"bad hostAt", faults.Event{Type: faults.TypeHostChurn, DurationSeconds: 1, HostAt: "lan:0"}, "want lan:<i>/host:<j>"},
		{"wildcard host", faults.Event{Type: faults.TypeHostChurn, DurationSeconds: 1, HostAt: "lan:*/host:*"}, "concrete"},
		{"bad trunk", faults.Event{Type: faults.TypeTrunkPartition, DurationSeconds: 1, Trunk: "trunk:2"}, "want trunk:<from>-<to>"},
		{"bad lan", faults.Event{Type: faults.TypeCAMFlush, Lan: "site:3"}, "bad selector part"},
		{"linkAt lan out of range", faults.Event{Type: faults.TypeReorder, Prob: 0.5, LinkAt: "lan:7/link:0"}, "lan 7 out of range"},
		{"linkAt link out of range", faults.Event{Type: faults.TypeReorder, Prob: 0.5, LinkAt: "lan:0/link:99"}, "out of range"},
		{"hostAt out of range", faults.Event{Type: faults.TypeHostChurn, DurationSeconds: 1, HostAt: "lan:0/host:99"}, "out of range"},
		{"trunks on flat", faults.Event{Type: faults.TypeTrunkPartition, DurationSeconds: 1, Trunk: "trunk:*"}, "routed campus topology"},
		{"router flush on flat", faults.Event{Type: faults.TypeRouterFlush}, "routed campus topology"},
	}
	for _, tc := range cases {
		_, err := faults.Apply(&faults.Plan{Events: []faults.Event{tc.ev}}, env)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: err = %v, want substring %q", tc.name, err, tc.want)
		}
	}
	_, err := faults.Apply(&faults.Plan{Events: []faults.Event{{Type: "meteor-strike"}}}, env)
	if err == nil || !strings.Contains(err.Error(), "valid types") ||
		!strings.Contains(err.Error(), faults.TypeTrunkPartition) {
		t.Fatalf("unknown-type error should list valid types, got: %v", err)
	}
}
