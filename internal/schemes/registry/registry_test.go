package registry_test

import (
	"encoding/json"
	"fmt"
	"os"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/labnet"
	"repro/internal/schemes"
	"repro/internal/schemes/registry"
	_ "repro/internal/schemes/registry/all" // link every scheme factory
)

// TestRegistryCompleteness maps every sub-package under internal/schemes/ to
// a registered factory and back: adding a scheme package without a
// register.go — or a registration claiming a package that does not exist —
// fails here, so the catalogue can never silently lag the code.
func TestRegistryCompleteness(t *testing.T) {
	entries, err := os.ReadDir("..")
	if err != nil {
		t.Fatal(err)
	}
	byPackage := make(map[string]*registry.Factory)
	for _, f := range registry.Factories() {
		if f.Package != "" {
			if dup, ok := byPackage[f.Package]; ok {
				t.Fatalf("factories %q and %q both claim package %q", dup.Name, f.Name, f.Package)
			}
			byPackage[f.Package] = f
		}
	}
	for _, e := range entries {
		if !e.IsDir() || e.Name() == "registry" {
			continue
		}
		f, ok := byPackage[e.Name()]
		if !ok {
			t.Errorf("scheme package %q has no registered factory (missing register.go?)", e.Name())
			continue
		}
		delete(byPackage, e.Name())
		if f.Description == "" {
			t.Errorf("scheme %q registers no description", f.Name)
		}
		if f.Deployment.Vantage == "" || f.Deployment.Cost == "" {
			t.Errorf("scheme %q registers no deployment descriptor: %+v", f.Name, f.Deployment)
		}
	}
	for pkg, f := range byPackage {
		t.Errorf("factory %q claims package %q, which does not exist under internal/schemes", f.Name, pkg)
	}
	// The factories this package registers itself (the hybrid-guard preset
	// and the address defense) have Package unset; pin them so a lost
	// registration is caught.
	for _, name := range []string{registry.NameHybridGuard, registry.NameAddressDefense} {
		if _, ok := registry.Lookup(name); !ok {
			t.Errorf("registry-owned scheme %q is not registered", name)
		}
	}
}

// TestParamRoundTrip serializes every factory's defaults to JSON and loads
// them back through the deployment path: the result must equal a fresh set
// of defaults, proving the catalogue's printed parameters are exactly what a
// scenario file echoing them deploys.
func TestParamRoundTrip(t *testing.T) {
	for _, f := range registry.Factories() {
		if f.DefaultParams == nil {
			continue
		}
		raw, err := json.Marshal(f.DefaultParams())
		if err != nil {
			t.Errorf("scheme %q: marshal defaults: %v", f.Name, err)
			continue
		}
		got, err := registry.ResolveParams(f, json.RawMessage(raw))
		if err != nil {
			t.Errorf("scheme %q: reload defaults %s: %v", f.Name, raw, err)
			continue
		}
		if want := f.DefaultParams(); !reflect.DeepEqual(got, want) {
			t.Errorf("scheme %q: defaults did not survive the round trip:\n got %+v\nwant %+v", f.Name, got, want)
		}
		// Unknown keys must be rejected, not dropped.
		if err := registry.ValidateParams(f.Name, json.RawMessage(`{"noSuchKnob": 1}`)); err == nil {
			t.Errorf("scheme %q accepted an unknown parameter", f.Name)
		}
	}
}

// TestResolveParamsForms pins the three parameter forms — nil, a P
// overlay, a json.RawMessage — and that any other type, raw []byte and
// the factory's own parameter struct included, is an error.
func TestResolveParamsForms(t *testing.T) {
	f, ok := registry.Lookup(registry.NameArpwatch)
	if !ok {
		t.Fatal("arpwatch not registered")
	}
	for _, params := range []any{nil, registry.P{"seedVictim": true}, json.RawMessage(`{"seedVictim":true}`), json.RawMessage(nil)} {
		if _, err := registry.ResolveParams(f, params); err != nil {
			t.Errorf("ResolveParams(%T) = %v", params, err)
		}
	}
	for _, params := range []any{[]byte(`{"seedVictim":true}`), f.DefaultParams(), `{}`, 3} {
		_, err := registry.ResolveParams(f, params)
		if err == nil || !strings.Contains(err.Error(), fmt.Sprintf("got %T", params)) {
			t.Errorf("ResolveParams(%T): err = %v, want a rejection naming the type", params, err)
		}
	}
}

// TestDeployDefaultsSmoke deploys every runtime scheme with default
// parameters into a standard LAN and checks the instance comes back wired.
func TestDeployDefaultsSmoke(t *testing.T) {
	for _, f := range registry.Factories() {
		if f.ConstructionOnly() {
			continue
		}
		f := f
		t.Run(f.Name, func(t *testing.T) {
			l := labnet.New(labnet.Config{Seed: 1, Hosts: 4, WithAttacker: true, WithMonitor: true})
			sink := schemes.NewSink()
			inst, err := registry.Deploy(l.Env(sink, nil), f.Name, nil)
			if err != nil {
				t.Fatal(err)
			}
			if inst.Factory != f {
				t.Fatalf("instance factory = %v", inst.Factory)
			}
			if f.Deployment.Vantage == registry.VantageProtocolReplacement && len(inst.Resolvers) == 0 {
				t.Fatal("protocol replacement deployed no resolvers")
			}
			if err := l.Run(2 * time.Second); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestConstructionOnlyRejectedByDeploy pins the two-phase contract: schemes
// acting at host construction cannot be deployed into a built LAN.
func TestConstructionOnlyRejectedByDeploy(t *testing.T) {
	l := labnet.New(labnet.Config{Seed: 1, Hosts: 2})
	env := l.Env(schemes.NewSink(), nil)
	for _, name := range []string{registry.NameKernelPolicy, registry.NameAddressDefense} {
		if _, err := registry.Deploy(env, name, nil); err == nil ||
			!strings.Contains(err.Error(), "host construction") {
			t.Errorf("deploy %q: err = %v, want construction-time rejection", name, err)
		}
		opts, err := registry.HostOptions(name, nil)
		if err != nil || len(opts) == 0 {
			t.Errorf("HostOptions %q = %v, %v; want options", name, opts, err)
		}
	}
}

func TestUnknownSchemeErrorListsNames(t *testing.T) {
	_, err := registry.Deploy(nil, "nope", nil)
	if err == nil || !strings.Contains(err.Error(), "valid:") ||
		!strings.Contains(err.Error(), registry.NameArpwatch) {
		t.Fatalf("err = %v", err)
	}
}

func TestParseStack(t *testing.T) {
	st, err := registry.ParseStack("dai+arpwatch+port-security")
	if err != nil {
		t.Fatal(err)
	}
	if st.Label() != "dai+arpwatch+port-security" || len(st.Schemes) != 3 {
		t.Fatalf("stack: %+v", st)
	}
	if _, err := registry.ParseStack("dai+nope"); err == nil ||
		!strings.Contains(err.Error(), "valid:") {
		t.Fatalf("unknown member: %v", err)
	}
	if _, err := registry.ParseStack("dai++arpwatch"); err == nil {
		t.Fatal("empty member accepted")
	}
}

// TestStackCorrelation drives synthetic alerts through a deployed stack's
// inner sink and checks the de-duplication contract: the first (IP, kind)
// report forwards attributed to its scheme, repeats within the window are
// suppressed (cross-scheme ones counted), and a repeat after the window
// opens a fresh group.
func TestStackCorrelation(t *testing.T) {
	l := labnet.New(labnet.Config{Seed: 1, Hosts: 4, WithAttacker: true, WithMonitor: true})
	outer := schemes.NewSink()
	st, err := registry.ParseStack("arpwatch+flood-detect")
	if err != nil {
		t.Fatal(err)
	}
	si, err := registry.DeployStack(l.Env(outer, nil), st)
	if err != nil {
		t.Fatal(err)
	}
	if len(si.Members) != 2 {
		t.Fatalf("members: %d", len(si.Members))
	}

	ip := l.Gateway().IP()
	mk := func(at time.Duration, scheme string, kind schemes.AlertKind) schemes.Alert {
		return schemes.Alert{At: at, Scheme: scheme, Kind: kind, IP: ip}
	}
	si.Inner.Report(mk(10*time.Second, "arpwatch", schemes.AlertFlipFlop))   // forwarded
	si.Inner.Report(mk(12*time.Second, "arpwatch", schemes.AlertFlipFlop))   // suppressed, same scheme
	si.Inner.Report(mk(13*time.Second, "snort-like", schemes.AlertFlipFlop)) // suppressed, cross-scheme
	si.Inner.Report(mk(13*time.Second, "arpwatch", schemes.AlertFlood))      // forwarded: different kind
	si.Inner.Report(mk(30*time.Second, "arpwatch", schemes.AlertFlipFlop))   // forwarded: window expired

	cs := si.Correlation()
	want := registry.CorrelationStats{Forwarded: 3, Suppressed: 2, CrossScheme: 1}
	if cs != want {
		t.Fatalf("correlation = %+v, want %+v", cs, want)
	}
	if outer.Len() != 3 {
		t.Fatalf("outer sink has %d alerts, want 3:\n%v", outer.Len(), outer.Alerts())
	}
	if first := outer.Alerts()[0]; first.Scheme != "arpwatch" || first.At != 10*time.Second {
		t.Fatalf("first forwarded alert misattributed: %+v", first)
	}
	if si.Inner.Len() != 5 {
		t.Fatalf("inner sink retained %d raw alerts, want 5", si.Inner.Len())
	}
}

// TestStackDeterministicAlertStream pins the registry's determinism
// guarantee at the stack level: two identically-seeded LANs running the same
// stack under the same attack produce byte-identical alert streams.
func TestStackDeterministicAlertStream(t *testing.T) {
	runOnce := func() string {
		l := labnet.New(labnet.Config{Seed: 42, Hosts: 5, WithAttacker: true, WithMonitor: true})
		sink := schemes.NewSink()
		st, err := registry.ParseStack("dai+arpwatch")
		if err != nil {
			t.Fatal(err)
		}
		if _, err := registry.DeployStack(l.Env(sink, nil), st); err != nil {
			t.Fatal(err)
		}
		gw, victim := l.Gateway(), l.Victim()
		victim.Resolve(gw.IP(), nil)
		l.Sched.At(2*time.Second, func() {
			l.Attacker.PoisonPeriodically(2*time.Second, victim.MAC(), victim.IP(), gw.MAC(), gw.IP())
		})
		if err := l.Run(20 * time.Second); err != nil {
			t.Fatal(err)
		}
		var b strings.Builder
		for _, a := range sink.Alerts() {
			b.WriteString(a.String())
			b.WriteByte('\n')
		}
		return b.String()
	}
	first := runOnce()
	if first == "" {
		t.Fatal("stack saw nothing")
	}
	if second := runOnce(); first != second {
		t.Fatalf("alert streams diverged:\n--- first ---\n%s--- second ---\n%s", first, second)
	}
}
