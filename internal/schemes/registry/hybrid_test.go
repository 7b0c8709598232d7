package registry_test

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/attack"
	"repro/internal/ethaddr"
	"repro/internal/labnet"
	"repro/internal/schemes"
	"repro/internal/schemes/registry"
	"repro/internal/telemetry"
)

// guardLAN deploys the hybrid-guard preset on the default workbench (the
// gateway's binding is seeded by default) with params overlaid.
func guardLAN(t *testing.T, params registry.P, reg *telemetry.Registry) (*labnet.LAN, *schemes.Sink, *registry.Instance) {
	t.Helper()
	l := labnet.Default()
	sink := schemes.NewSink()
	if reg != nil {
		sink.Instrument(reg)
	}
	inst, err := registry.Deploy(l.Env(sink, reg), registry.NameHybridGuard, params)
	if err != nil {
		t.Fatal(err)
	}
	return l, sink, inst
}

// incidentFor returns the instance's incident for ip, if any.
func incidentFor(inst *registry.Instance, ip ethaddr.IPv4) (registry.Incident, bool) {
	for _, inc := range inst.Incidents() {
		if inc.IP == ip {
			return inc, true
		}
	}
	return registry.Incident{}, false
}

// poisonGateway re-poisons the victim's gateway binding every second until
// stop, then ends the run.
func poisonGateway(l *labnet.LAN, stop time.Duration) {
	gw, victim := l.Gateway(), l.Victim()
	l.Attacker.PoisonPeriodically(time.Second, victim.MAC(), victim.IP(), gw.MAC(), gw.IP())
	l.Sched.At(stop, func() { l.Attacker.StopPoisoning(); l.Sched.Stop() })
	_ = l.Run(time.Minute)
}

func TestHybridGuardDetectsAndConfirmsMITM(t *testing.T) {
	l, _, inst := guardLAN(t, nil, nil)
	poisonGateway(l, 10*time.Second)
	inc, ok := incidentFor(inst, l.Gateway().IP())
	if !ok {
		t.Fatal("no incident for the poisoned gateway IP")
	}
	if !inc.Confirmed {
		t.Fatalf("incident not confirmed by active verification: %+v", inc)
	}
	if inc.Suspect != l.Attacker.MAC() {
		t.Fatalf("suspect = %v", inc.Suspect)
	}
	if len(inst.ActionableIncidents()) < 1 {
		t.Fatal("confirmed incident not actionable")
	}
}

func TestHybridGuardFoldDampsAlertFlood(t *testing.T) {
	l, _, inst := guardLAN(t, nil, nil)
	// 30 seconds of 1 Hz re-poisoning: one incident, not thirty pages.
	poisonGateway(l, 30*time.Second)
	var gwIncidents int
	for _, inc := range inst.Incidents() {
		if inc.IP == l.Gateway().IP() {
			gwIncidents++
			if inc.Alerts < 2 {
				t.Fatalf("incident should fold multiple alerts: %+v", inc)
			}
			if inc.LastAt <= inc.FirstAt {
				t.Fatalf("incident time range: %+v", inc)
			}
		}
	}
	if gwIncidents != 1 {
		t.Fatalf("gateway incidents = %d, want 1 aggregated", gwIncidents)
	}
}

func TestHybridGuardPassiveOnlyNeverConfirms(t *testing.T) {
	l, sink, inst := guardLAN(t, registry.P{"active": false}, nil)
	gw := l.Gateway()
	l.Attacker.Poison(attack.VariantGratuitous, gw.IP(), l.Attacker.MAC(),
		l.Victim().MAC(), l.Victim().IP())
	if err := l.Run(3 * time.Second); err != nil {
		t.Fatal(err)
	}
	inc, ok := incidentFor(inst, gw.IP())
	if !ok {
		t.Fatal("passive layer missed the flip-flop")
	}
	if inc.Confirmed {
		t.Fatal("nothing should be confirmed without the active layer")
	}
	// Without the verifier, arpwatch pages and every incident is actionable.
	if sink.Len() == 0 || len(inst.ActionableIncidents()) == 0 {
		t.Fatalf("passive-only guard paged %d alerts, %d actionable incidents", sink.Len(), len(inst.ActionableIncidents()))
	}
}

func TestHybridGuardActiveOnlyConfirms(t *testing.T) {
	l, _, inst := guardLAN(t, registry.P{"passive": false}, nil)
	gw := l.Gateway()
	l.Attacker.Poison(attack.VariantUnsolicitedReply, gw.IP(), l.Attacker.MAC(),
		l.Victim().MAC(), l.Victim().IP())
	if err := l.Run(3 * time.Second); err != nil {
		t.Fatal(err)
	}
	inc, ok := incidentFor(inst, gw.IP())
	if !ok || !inc.Confirmed {
		t.Fatalf("active-only guard failed: %+v ok=%v", inc, ok)
	}
}

func TestHybridGuardProtectVictimPreventsCommit(t *testing.T) {
	l, _, inst := guardLAN(t, registry.P{"protectVictim": true}, nil)
	gw := l.Gateway()
	l.Attacker.Poison(attack.VariantUnsolicitedReply, gw.IP(), l.Attacker.MAC(),
		l.Victim().MAC(), l.Victim().IP())
	if err := l.Run(3 * time.Second); err != nil {
		t.Fatal(err)
	}
	if mac, ok := l.Victim().Cache().Lookup(gw.IP()); ok && mac == l.Attacker.MAC() {
		t.Fatal("protected host was poisoned")
	}
	inc, ok := incidentFor(inst, gw.IP())
	if !ok || !inc.Confirmed {
		t.Fatal("prevention should still produce a confirmed incident")
	}
}

func TestHybridGuardCleanLANRaisesNothing(t *testing.T) {
	l, sink, inst := guardLAN(t, nil, nil)
	l.SeedMutualCaches()
	if err := l.Run(5 * time.Second); err != nil {
		t.Fatal(err)
	}
	if n := len(inst.Incidents()); n != 0 || sink.Len() != 0 {
		t.Fatalf("clean LAN produced %d incidents: %v", n, sink.Alerts())
	}
}

// TestHybridGuardTelemetryAttribution: both layers contribute folded
// evidence, the verifier probes, and confirmation reaches the event log.
func TestHybridGuardTelemetryAttribution(t *testing.T) {
	reg := telemetry.New()
	l, _, _ := guardLAN(t, registry.P{"protectVictim": true}, reg)
	l.Sched.Instrument(reg)
	poisonGateway(l, 10*time.Second)

	if got := reg.Counter("guard_incidents_total", telemetry.L("state", "opened")).Value(); got == 0 {
		t.Fatal("no incidents opened")
	}
	if got := reg.Counter("guard_incidents_total", telemetry.L("state", "confirmed")).Value(); got == 0 {
		t.Fatal("incident confirmation not counted")
	}
	folded := make(map[string]uint64)
	probes := uint64(0)
	for _, c := range reg.Snapshot().Counters {
		switch c.Name {
		case "guard_alerts_folded_total":
			folded[c.Labels["component"]] += c.Value
		case "scheme_probes_sent_total":
			probes += c.Value
		}
	}
	if folded["arpwatch"] == 0 {
		t.Fatalf("passive layer contributed nothing: %v", folded)
	}
	if folded["active-probe"] == 0 {
		t.Fatalf("active layer contributed nothing: %v", folded)
	}
	if probes == 0 {
		t.Fatal("verifier sent no probes")
	}
	var confirmed bool
	for _, ev := range reg.Events().Events() {
		if ev.Component == "guard" && ev.Message == "incident confirmed" {
			confirmed = true
		}
	}
	if !confirmed {
		t.Fatal("no 'incident confirmed' event logged")
	}
}

// TestHybridGuardPagesCountedOnce: only the outer sink is instrumented, so
// scheme_alerts_total counts each page exactly once, and the demoted
// arpwatch layer, which folds but never pages, has no count at all.
func TestHybridGuardPagesCountedOnce(t *testing.T) {
	reg := telemetry.New()
	l, sink, _ := guardLAN(t, nil, reg)
	poisonGateway(l, 20*time.Second)

	paged := make(map[string]uint64)
	for _, c := range reg.Snapshot().Counters {
		if c.Name == "scheme_alerts_total" {
			paged[c.Labels["scheme"]] += c.Value
		}
	}
	want := make(map[string]uint64)
	for _, a := range sink.Alerts() {
		want[a.Scheme]++
	}
	if len(want) == 0 || fmt.Sprint(paged) != fmt.Sprint(want) {
		t.Fatalf("scheme_alerts_total = %v, paged alerts = %v", paged, want)
	}
	if paged["arpwatch"] != 0 {
		t.Fatalf("demoted arpwatch paged %d alerts", paged["arpwatch"])
	}
}

func TestHybridGuardConfirmedCountedOnce(t *testing.T) {
	reg := telemetry.New()
	l, _, inst := guardLAN(t, nil, reg)
	// Long re-poisoning window: many verify-failed alerts fold into one
	// incident, but the confirmed transition must count exactly once.
	poisonGateway(l, 20*time.Second)

	inc, ok := incidentFor(inst, l.Gateway().IP())
	if !ok || !inc.Confirmed {
		t.Fatalf("incident = %+v ok=%v", inc, ok)
	}
	var want uint64
	for _, inc := range inst.Incidents() {
		if inc.Confirmed {
			want++
		}
	}
	got := reg.Counter("guard_incidents_total", telemetry.L("state", "confirmed")).Value()
	if got != want {
		t.Fatalf("confirmed transitions = %d, want %d (one per confirmed incident)", got, want)
	}
	if inc.Alerts < 2 {
		t.Fatalf("expected repeated alerts to fold: %+v", inc)
	}
}

func TestHybridGuardWithoutTelemetryUnchanged(t *testing.T) {
	l, _, inst := guardLAN(t, registry.P{"protectVictim": true}, nil)
	poisonGateway(l, 5*time.Second)
	if _, ok := incidentFor(inst, l.Gateway().IP()); !ok {
		t.Fatal("guard stopped working without telemetry")
	}
}

// TestHybridGuardIncidentOrder: a bidirectional MITM opens the gateway and
// victim incidents at the same instant; Incidents breaks the tie by IP, the
// same way on every call.
func TestHybridGuardIncidentOrder(t *testing.T) {
	l, _, inst := guardLAN(t, nil, nil)
	gw, victim := l.Gateway(), l.Victim()
	victim.Resolve(gw.IP(), nil)
	l.Sched.At(2*time.Second, func() {
		l.Attacker.PoisonPeriodically(2*time.Second, victim.MAC(), victim.IP(), gw.MAC(), gw.IP())
	})
	if err := l.Run(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	incs := inst.Incidents()
	if len(incs) != 2 || incs[0].FirstAt != incs[1].FirstAt {
		t.Fatalf("want two incidents opened together: %+v", incs)
	}
	if incs[0].IP != victim.IP() || incs[1].IP != gw.IP() {
		t.Fatalf("incidents not in IP order: %+v", incs)
	}
	for i := 0; i < 20; i++ {
		if again := inst.Incidents(); fmt.Sprint(again) != fmt.Sprint(incs) {
			t.Fatalf("incident order changed between calls:\n%+v\n%+v", incs, again)
		}
	}
}

// Example_hybridGuard deploys the preset onto a LAN, lets an attacker claim
// the gateway's address, and reads the folded incident.
func Example_hybridGuard() {
	lan := labnet.Default()
	gateway := lan.Gateway()
	guard, err := registry.Deploy(lan.Env(schemes.NewSink(), nil), registry.NameHybridGuard, nil)
	if err != nil {
		fmt.Println("deploy:", err)
		return
	}

	lan.Attacker.Poison(attack.VariantGratuitous,
		gateway.IP(), lan.Attacker.MAC(), lan.Victim().MAC(), lan.Victim().IP())
	if err := lan.Run(5 * time.Second); err != nil {
		fmt.Println("run:", err)
		return
	}

	inc, ok := incidentFor(guard, gateway.IP())
	fmt.Printf("incident found: %v\n", ok)
	fmt.Printf("confirmed by probing: %v\n", inc.Confirmed)
	fmt.Printf("suspect is the attacker: %v\n", inc.Suspect == lan.Attacker.MAC())
	// Output:
	// incident found: true
	// confirmed by probing: true
	// suspect is the attacker: true
}

// Example_hybridGuardProtectVictim adds inline prevention on the victim:
// the forged binding is quarantined, contradicted, and never committed.
func Example_hybridGuardProtectVictim() {
	lan := labnet.Default()
	gateway, victim := lan.Gateway(), lan.Victim()
	_, err := registry.Deploy(lan.Env(schemes.NewSink(), nil), registry.NameHybridGuard,
		registry.P{"protectVictim": true})
	if err != nil {
		fmt.Println("deploy:", err)
		return
	}

	lan.Attacker.Poison(attack.VariantUnsolicitedReply,
		gateway.IP(), lan.Attacker.MAC(), victim.MAC(), victim.IP())
	if err := lan.Run(5 * time.Second); err != nil {
		fmt.Println("run:", err)
		return
	}

	mac, ok := victim.Cache().Lookup(gateway.IP())
	fmt.Printf("victim poisoned: %v\n", ok && mac == lan.Attacker.MAC())
	// Output:
	// victim poisoned: false
}
