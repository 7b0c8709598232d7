package integration

import (
	"bytes"
	"reflect"
	"testing"
	"time"

	"repro/internal/ethaddr"
	"repro/internal/labnet"
	"repro/internal/schemes"
	"repro/internal/schemes/registry"
	_ "repro/internal/schemes/registry/all"
	"repro/internal/telemetry"
	"repro/internal/telemetry/causal"
)

// tracedMITM assembles the standard workbench with causal tracing enabled,
// deploys one detection scheme, runs the periodic gateway MITM, and returns
// the registry, recorder, and sink.
func tracedMITM(t *testing.T, scheme string) (*telemetry.Registry, *causal.Recorder, *schemes.Sink) {
	t.Helper()
	reg := telemetry.New()
	l := labnet.New(labnet.Config{
		Seed:         11,
		Hosts:        4,
		WithAttacker: true,
		WithMonitor:  true,
		Telemetry:    reg,
		Tracing:      true,
	})
	rec := reg.Causal()
	if rec == nil {
		t.Fatal("tracing enabled but no recorder on the registry")
	}
	sink := schemes.NewSink()
	sink.Instrument(reg)
	if _, err := registry.Deploy(l.Env(sink, reg), scheme, nil); err != nil {
		t.Fatalf("deploy %s: %v", scheme, err)
	}
	for _, h := range l.Hosts {
		h := h
		l.Sched.Every(15*time.Second, h.SendGratuitous)
	}
	l.SeedMutualCaches()
	gw, victim := l.Gateway(), l.Victim()
	l.Sched.At(2*time.Second, func() {
		l.Attacker.PoisonPeriodically(2*time.Second, victim.MAC(), victim.IP(), gw.MAC(), gw.IP())
		l.Attacker.RelayBetween(victim.MAC(), victim.IP(), gw.MAC(), gw.IP())
	})
	if err := l.Run(15 * time.Second); err != nil {
		t.Fatal(err)
	}
	return reg, rec, sink
}

// TestMITMSpanTreeReachesAlert is the tentpole's acceptance story: with
// tracing on, a gateway-MITM run yields a complete causal chain from the
// injected attack frame through the wire and the victim's cache overwrite
// to the correlated alert.
func TestMITMSpanTreeReachesAlert(t *testing.T) {
	_, rec, sink := tracedMITM(t, registry.NameArpwatch)
	if sink.Len() == 0 {
		t.Fatal("arpwatch raised no alerts under MITM")
	}

	alerts := rec.Find(func(sp causal.Span) bool {
		return sp.Kind == "alert" && sp.Attr("scheme") == registry.NameArpwatch
	})
	if len(alerts) == 0 {
		t.Fatal("no alert spans recorded")
	}

	// At least one alert must chain all the way back to an attack root
	// through the expected hops.
	var full []causal.Span
	for _, al := range alerts {
		path := rec.PathToRoot(al.ID)
		if len(path) > 0 && path[0].Kind == "attack" {
			full = path
			break
		}
	}
	if full == nil {
		t.Fatalf("no alert span chains to an attack root; first alert path: %+v",
			rec.PathToRoot(alerts[0].ID))
	}
	seen := map[string]bool{}
	for _, sp := range full {
		seen[sp.Kind] = true
	}
	for _, kind := range []string{"attack", "tx", "link", "switch", "scheme", "alert"} {
		if !seen[kind] {
			t.Fatalf("chain missing %q hop: %v", kind, seen)
		}
	}

	// The same trace must contain the victim-side cache overwrite.
	root := full[0]
	overwrites := 0
	for _, sp := range rec.Descendants(root.ID) {
		if sp.Kind == "cache" && sp.Name == "changed" {
			overwrites++
		}
	}
	if overwrites == 0 {
		t.Fatal("attack trace contains no cache overwrite span")
	}

	// Stage attribution over the chain must account for the full latency.
	stages, total, ok := rec.Breakdown(full[len(full)-1].ID)
	if !ok || total <= 0 {
		t.Fatalf("breakdown: ok=%v total=%v", ok, total)
	}
	var sum time.Duration
	for _, d := range stages {
		sum += d
	}
	if sum > total {
		t.Fatalf("stage sum %v exceeds total %v", sum, total)
	}
	if stages["link"] <= 0 {
		t.Fatalf("no wire time attributed to the link stage: %v", stages)
	}

	// And the tree must render.
	var buf bytes.Buffer
	if err := rec.WriteTree(&buf, root.ID); err != nil {
		t.Fatal(err)
	}
	if buf.Len() == 0 {
		t.Fatal("rendered tree is empty")
	}
}

// TestVerifySpansAreDetachedLeaves pins the rule for lifecycle spans: each
// verification session opens a "scheme/verify" span that is a detached leaf
// under the inspection that raised it. Probes, timers and alerts therefore
// keep "scheme/inspect" as their cause, so detection-latency attribution
// (Table 10) cannot move, and every finished session is one span whose
// outcome matches the scheme's counters.
func TestVerifySpansAreDetachedLeaves(t *testing.T) {
	for _, tc := range []struct {
		scheme  string
		counter string
		// outcomes maps a verify span's outcome attr to the counter's.
		outcomes map[string]string
	}{
		{registry.NameActiveProbe, "scheme_verifications_total",
			map[string]string{"confirmed": "confirmed", "cleared": "cleared"}},
		{registry.NameMiddleware, "scheme_quarantines_total",
			map[string]string{"commit": "committed", "reject": "rejected"}},
	} {
		t.Run(tc.scheme, func(t *testing.T) {
			reg, rec, _ := tracedMITM(t, tc.scheme)
			if rec.Dropped() != 0 {
				t.Fatalf("span ring evicted %d spans; counts below would be partial", rec.Dropped())
			}
			verifies := rec.Find(func(sp causal.Span) bool { return sp.Kind == "scheme" && sp.Name == "verify" })
			if len(verifies) == 0 {
				t.Fatal("no verify spans recorded")
			}
			finished := map[string]uint64{}
			for _, v := range verifies {
				if kids := rec.ChildrenOf(v.ID); len(kids) != 0 {
					t.Fatalf("verify span %d has children %+v", v.ID, kids)
				}
				parent, ok := rec.Span(v.Parent)
				if !ok || parent.Kind != "scheme" || parent.Name != "inspect" {
					t.Fatalf("verify span %d parent = %+v, want scheme/inspect", v.ID, parent)
				}
				if v.Attr("scheme") != tc.scheme || v.Attr("target") == "" {
					t.Fatalf("verify span attrs = %+v", v.Attrs)
				}
				probes := 0
				for _, d := range rec.Descendants(parent.ID) {
					if d.Kind == "tx" && d.Attr("dst") == ethaddr.BroadcastMAC.String() {
						probes++
					}
				}
				if probes == 0 {
					t.Fatalf("no probe tx span under the inspection %d that opened verify %d", parent.ID, v.ID)
				}
				finished[v.Attr("outcome")]++
			}
			for outcome, counterOutcome := range tc.outcomes {
				want := reg.CounterValue(tc.counter,
					telemetry.L("scheme", tc.scheme), telemetry.L("outcome", counterOutcome))
				if finished[outcome] != want {
					t.Fatalf("%d verify spans with outcome %s, counter %s{outcome=%s} = %d",
						finished[outcome], outcome, tc.counter, counterOutcome, want)
				}
			}

			alerts := rec.Find(func(sp causal.Span) bool {
				return sp.Kind == "alert" && sp.Attr("scheme") == tc.scheme
			})
			if len(alerts) == 0 {
				t.Fatal("no alert spans recorded")
			}
			for _, al := range alerts {
				inspected := false
				for _, sp := range rec.PathToRoot(al.ID) {
					if sp.Name == "verify" {
						t.Fatalf("alert %d chains through verify span %d", al.ID, sp.ID)
					}
					inspected = inspected || (sp.Kind == "scheme" && sp.Name == "inspect")
				}
				if !inspected {
					t.Fatalf("alert %d has no scheme/inspect ancestor", al.ID)
				}
			}
		})
	}
}

// TestResolveSpansMatchResolutionCounters: with tracing on, every finished
// resolution is exactly one "stack/resolve" leaf span, and the spans per
// outcome agree with stack_resolutions_total.
func TestResolveSpansMatchResolutionCounters(t *testing.T) {
	reg, rec, _ := tracedMITM(t, registry.NameMiddleware)
	if rec.Dropped() != 0 {
		t.Fatalf("span ring evicted %d spans; counts below would be partial", rec.Dropped())
	}
	finished := map[string]uint64{}
	for _, sp := range rec.Find(func(sp causal.Span) bool { return sp.Kind == "stack" && sp.Name == "resolve" }) {
		if kids := rec.ChildrenOf(sp.ID); len(kids) != 0 {
			t.Fatalf("resolve span %d has children %+v", sp.ID, kids)
		}
		if sp.Attr("host") == "" || sp.Attr("target") == "" || sp.Attr("tries") == "" {
			t.Fatalf("resolve span attrs = %+v", sp.Attrs)
		}
		finished[sp.Attr("outcome")]++
	}
	// The counters label outcomes ok/fail; the spans commit/fail.
	spanOutcome := map[string]string{"ok": "commit", "fail": "fail"}
	counted := map[string]uint64{}
	for _, c := range reg.Snapshot().Counters {
		if c.Name == "stack_resolutions_total" && c.Value > 0 {
			counted[spanOutcome[c.Labels["outcome"]]] += c.Value
		}
	}
	if finished["commit"] == 0 {
		t.Fatalf("no committed resolutions traced: spans %v", finished)
	}
	if !reflect.DeepEqual(finished, counted) {
		t.Fatalf("resolve spans per outcome %v, counters %v", finished, counted)
	}
}

// TestTracingDoesNotPerturbSimulation pins the observer-effect guarantee:
// the same seed and scenario produce identical alerts and identical counters
// with tracing on and off — tracing adds spans, never behaviour.
func TestTracingDoesNotPerturbSimulation(t *testing.T) {
	run := func(tracing bool) ([]schemes.Alert, []telemetry.CounterPoint) {
		reg := telemetry.New()
		l := labnet.New(labnet.Config{
			Seed: 11, Hosts: 4, WithAttacker: true, WithMonitor: true,
			Telemetry: reg, Tracing: tracing,
			LinkJitter: 30 * time.Microsecond, // exercise the RNG path too
		})
		sink := schemes.NewSink()
		sink.Instrument(reg)
		if _, err := registry.Deploy(l.Env(sink, reg), registry.NameActiveProbe, nil); err != nil {
			t.Fatalf("deploy: %v", err)
		}
		l.SeedMutualCaches()
		gw, victim := l.Gateway(), l.Victim()
		l.Sched.At(2*time.Second, func() {
			l.Attacker.PoisonPeriodically(2*time.Second, victim.MAC(), victim.IP(), gw.MAC(), gw.IP())
		})
		if err := l.Run(10 * time.Second); err != nil {
			t.Fatal(err)
		}
		return sink.Alerts(), reg.Snapshot().Counters
	}
	off, offCounters := run(false)
	on, onCounters := run(true)
	if len(off) != len(on) {
		t.Fatalf("alert counts differ: off=%d on=%d", len(off), len(on))
	}
	for i := range off {
		if off[i] != on[i] {
			t.Fatalf("alert %d differs:\noff: %+v\non:  %+v", i, off[i], on[i])
		}
	}
	if !reflect.DeepEqual(offCounters, onCounters) {
		t.Fatalf("counter snapshots differ:\noff: %+v\non:  %+v", offCounters, onCounters)
	}
}
