package scenario

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

func load(t *testing.T, js string) *Spec {
	t.Helper()
	spec, err := Load(strings.NewReader(js))
	if err != nil {
		t.Fatal(err)
	}
	return spec
}

func TestLoadRejectsUnknownFields(t *testing.T) {
	if _, err := Load(strings.NewReader(`{"bogus": true}`)); err == nil {
		t.Fatal("unknown field accepted")
	}
	if _, err := Load(strings.NewReader(`not json`)); err == nil {
		t.Fatal("garbage accepted")
	}
	for _, bare := range []string{`"link": 3`, `"host": 4`} {
		js := `{"faults": {"events": [{"type": "host-churn", "durationSeconds": 3, ` + bare + `}]}}`
		if _, err := Load(strings.NewReader(js)); err == nil {
			t.Fatalf("fault target %s accepted; faults name targets with linkAt/hostAt", bare)
		}
	}
}

func TestGuardScenarioDetectsMITM(t *testing.T) {
	spec := load(t, `{
		"seed": 1, "hosts": 5, "durationSeconds": 60,
		"schemes": [{"name": "hybrid-guard"}],
		"attacks": [{"atSeconds": 10, "type": "mitm"}]
	}`)
	res, err := Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	if res.GuardIncidents == 0 || res.GuardConfirmed == 0 {
		t.Fatalf("guard result: %+v", res)
	}
	if res.PoisonedHosts == 0 {
		t.Fatal("detection-only scenario should leave the victim poisoned")
	}
	if res.AttackerSniffed == 0 {
		t.Fatal("relay should have captured payload")
	}
	var buf bytes.Buffer
	if err := res.Render(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "guard:") {
		t.Fatalf("render:\n%s", buf.String())
	}
}

func TestDAIScenarioPrevents(t *testing.T) {
	spec := load(t, `{
		"seed": 2, "durationSeconds": 30,
		"schemes": [{"name": "dai"}],
		"attacks": [
			{"atSeconds": 5, "type": "poison", "variant": "gratuitous"},
			{"atSeconds": 10, "type": "poison", "variant": "unsolicited-reply"}
		]
	}`)
	res, err := Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	if res.PoisonedHosts != 0 {
		t.Fatalf("DAI scenario poisoned %d hosts", res.PoisonedHosts)
	}
	if res.SwitchFiltered == 0 {
		t.Fatal("nothing filtered inline")
	}
	if res.AlertsByScheme["dai"] == 0 {
		t.Fatalf("alerts: %+v", res.AlertsByScheme)
	}
}

func TestPortSecurityScenarioStopsFloodAndSteal(t *testing.T) {
	spec := load(t, `{
		"seed": 3, "durationSeconds": 30,
		"schemes": [{"name": "port-security"}, {"name": "flood-detect"}],
		"attacks": [
			{"atSeconds": 5, "type": "cam-flood", "count": 300},
			{"atSeconds": 15, "type": "port-steal", "periodSeconds": 0.1}
		]
	}`)
	res, err := Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	if res.CAMEntries > 10 {
		t.Fatalf("CAM grew to %d through port security", res.CAMEntries)
	}
	if res.AttackerSniffed != 0 {
		t.Fatal("port steal succeeded through sticky MACs")
	}
	if res.AlertsByScheme["port-security"] == 0 {
		t.Fatalf("alerts: %+v", res.AlertsByScheme)
	}
}

func TestPolicyFieldRespected(t *testing.T) {
	// The attack fires off the background-traffic grid (multiples of 5s):
	// an unsolicited reply landing while a genuine resolution is pending
	// would be accepted as solicited — that is the race, not the push.
	spec := load(t, `{
		"seed": 4, "durationSeconds": 20, "policy": "solicited-only",
		"attacks": [{"atSeconds": 7, "type": "poison", "variant": "unsolicited-reply"}]
	}`)
	res, err := Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	if res.PoisonedHosts != 0 {
		t.Fatal("solicited-only hosts accepted an unsolicited reply")
	}

	// On this uniform-latency LAN the genuine owner wins the tie against
	// solicited-only caches (Figure 2 sweeps the latency handicap); against
	// naive caches the racer's trailing shot always lands.
	race := load(t, `{
		"seed": 4, "durationSeconds": 20, "policy": "naive",
		"attacks": [{"atSeconds": 7, "type": "poison", "variant": "reply-race"}]
	}`)
	res2, err := Run(race)
	if err != nil {
		t.Fatal(err)
	}
	if res2.PoisonedHosts == 0 {
		t.Fatal("the double-tap race should beat a naive cache")
	}
}

func TestUnknownNamesRejected(t *testing.T) {
	// Scheme names, parameters, stacks, and policies fail at load time, with
	// the error enumerating the valid names.
	if _, err := Load(strings.NewReader(`{"schemes": [{"name": "nope"}]}`)); err == nil ||
		!strings.Contains(err.Error(), "valid:") || !strings.Contains(err.Error(), "arpwatch") {
		t.Fatalf("unknown scheme: %v", err)
	}
	if _, err := Load(strings.NewReader(`{"schemes": [{"name": "dai", "params": {"bogus": 1}}]}`)); err == nil {
		t.Fatal("unknown scheme param accepted")
	}
	if _, err := Load(strings.NewReader(`{"stacks": [{"schemes": [{"name": "nope"}]}]}`)); err == nil ||
		!strings.Contains(err.Error(), "valid:") {
		t.Fatalf("unknown stack member: %v", err)
	}
	if _, err := Load(strings.NewReader(`{"stacks": [{"schemes": []}]}`)); err == nil {
		t.Fatal("empty stack accepted")
	}
	if _, err := Load(strings.NewReader(`{"policy": "nope"}`)); err == nil ||
		!strings.Contains(err.Error(), "solicited-only") {
		t.Fatalf("unknown policy: %v", err)
	}
	// Impossible sizes and timelines fail at load time too, naming the
	// field, instead of panicking (or never finishing) inside Run.
	for js, want := range map[string]string{
		`{"hosts": -1}`: "hosts -1",
		`{"hosts": 1, "attacks": [{"atSeconds": 1, "type": "mitm"}]}`: "hosts 1",
		`{"hosts": 66}`:           "hosts 66",
		`{"hosts": 300}`:          "hosts 300",
		`{"durationSeconds": -5}`: "durationSeconds -5",
		`{"attacks": [{"atSeconds": -1, "type": "mitm"}]}`:                          "attack 0: atSeconds",
		`{"attacks": [{"atSeconds": 1, "type": "mitm", "periodSeconds": 1e-9}]}`:    "periodSeconds 1e-09",
		`{"attacks": [{"atSeconds": 1, "type": "cam-flood", "count": 1000000000}]}`: "count 1000000000",
	} {
		if _, err := Load(strings.NewReader(js)); err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("%s: err = %v, want substring %q", js, err, want)
		}
	}
	// 65 flat hosts fill .1 to .65 and leave the attacker's .66 free.
	if _, err := Load(strings.NewReader(`{"hosts": 65}`)); err != nil {
		t.Fatalf("hosts 65 rejected: %v", err)
	}
	// Attack names still fail at run time.
	if _, err := Run(load(t, `{"attacks": [{"type": "nope"}]}`)); err == nil {
		t.Fatal("unknown attack accepted")
	}
	if _, err := Run(load(t, `{"attacks": [{"type": "poison", "variant": "nope"}]}`)); err == nil {
		t.Fatal("unknown variant accepted")
	}
}

func TestAddressDefenseScenario(t *testing.T) {
	spec := load(t, `{
		"seed": 5, "durationSeconds": 30,
		"schemes": [{"name": "address-defense"}],
		"attacks": [{"atSeconds": 5, "type": "poison", "variant": "gratuitous"}]
	}`)
	res, err := Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	// The gateway reasserted after the broadcast forgery: nobody stays
	// poisoned.
	if res.PoisonedHosts != 0 {
		t.Fatalf("defense failed: %d poisoned", res.PoisonedHosts)
	}
}

// TestDefenseInDepthScenario runs the bundled three-scheme stack end to end:
// the correlated deployment must stop the poisoning, surface per-stack
// correlation stats, and render them.
func TestDefenseInDepthScenario(t *testing.T) {
	f, err := os.Open(filepath.Join("..", "..", "scenarios", "defense-in-depth.json"))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	spec, err := Load(f)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	if res.PoisonedHosts != 0 {
		t.Fatalf("stack failed to prevent: %d poisoned", res.PoisonedHosts)
	}
	if len(res.StackStats) != 1 {
		t.Fatalf("stack stats: %+v", res.StackStats)
	}
	ss := res.StackStats[0]
	if ss.Stack != "perimeter" || ss.Forwarded == 0 {
		t.Fatalf("stack stats: %+v", ss)
	}
	if ss.Suppressed == 0 {
		t.Fatalf("overlapping vantages raised no duplicates to collapse: %+v", ss)
	}
	var buf bytes.Buffer
	if err := res.Render(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "stack perimeter:") {
		t.Fatalf("render missing the stack line:\n%s", buf.String())
	}
}

// updateGolden regenerates testdata/*.result.json instead of comparing.
var updateGolden = os.Getenv("UPDATE_GOLDEN") != ""

// TestGoldenAlertAccounting checks every flat bundled scenario's golden for
// one-count-per-page accounting: per scheme, scheme_alerts_total (counted by
// the instrumented outer sink) must equal alertsByScheme (the alerts that
// sink retained). Campus goldens are skipped: campus telemetry instruments
// only LAN 0 (registries are not goroutine-safe and shards run
// concurrently), while alertsByScheme sums every LAN's sink.
func TestGoldenAlertAccounting(t *testing.T) {
	paths, err := filepath.Glob(filepath.Join("..", "..", "scenarios", "*.json"))
	if err != nil {
		t.Fatal(err)
	}
	for _, path := range paths {
		name := strings.TrimSuffix(filepath.Base(path), ".json")
		t.Run(name, func(t *testing.T) {
			blob, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			spec, err := Load(bytes.NewReader(blob))
			if err != nil {
				t.Fatal(err)
			}
			if spec.Campus != nil {
				t.Skip("campus telemetry covers LAN 0 only")
			}
			blob, err = os.ReadFile(filepath.Join("testdata", name+".result.json"))
			if err != nil {
				t.Fatal(err)
			}
			var res Result
			if err := json.Unmarshal(blob, &res); err != nil {
				t.Fatal(err)
			}
			counted := make(map[string]int)
			for _, c := range res.Telemetry.Counters {
				if c.Name == "scheme_alerts_total" {
					counted[c.Labels["scheme"]] += int(c.Value)
				}
			}
			for scheme, n := range res.AlertsByScheme {
				if counted[scheme] != n {
					t.Errorf("%s: scheme_alerts_total = %d, alertsByScheme = %d", scheme, counted[scheme], n)
				}
			}
			for scheme, n := range counted {
				if _, ok := res.AlertsByScheme[scheme]; !ok {
					t.Errorf("%s: scheme_alerts_total = %d, absent from alertsByScheme", scheme, n)
				}
			}
		})
	}
}

// TestBundledScenariosRoundTrip walks every shipped scenarios/*.json through
// load → run → re-marshal → re-load: the Spec must survive a JSON round
// trip losslessly (no field silently dropped by a missing tag), every
// bundled file must actually run, and its marshaled Result must match the
// golden in testdata/ byte for byte (regenerate deliberately with
// UPDATE_GOLDEN=1).
func TestBundledScenariosRoundTrip(t *testing.T) {
	paths, err := filepath.Glob(filepath.Join("..", "..", "scenarios", "*.json"))
	if err != nil {
		t.Fatal(err)
	}
	if len(paths) < 5 {
		t.Fatalf("expected the 5 bundled scenarios, found %d: %v", len(paths), paths)
	}
	for _, path := range paths {
		path := path
		t.Run(filepath.Base(path), func(t *testing.T) {
			blob, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			spec, err := Load(bytes.NewReader(blob))
			if err != nil {
				t.Fatal(err)
			}
			res, err := Run(spec)
			if err != nil {
				t.Fatal(err)
			}
			got, err := json.Marshal(res)
			if err != nil {
				t.Fatal(err)
			}
			golden := filepath.Join("testdata", strings.TrimSuffix(filepath.Base(path), ".json")+".result.json")
			if updateGolden {
				if err := os.WriteFile(golden, got, 0o644); err != nil {
					t.Fatal(err)
				}
			}
			want, err := os.ReadFile(golden)
			if err != nil {
				t.Fatalf("read golden (run with UPDATE_GOLDEN=1 to create): %v", err)
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("result drifted from %s:\ngot:  %s\nwant: %s", golden, got, want)
			}
			remarshaled, err := json.Marshal(spec)
			if err != nil {
				t.Fatal(err)
			}
			reloaded, err := Load(bytes.NewReader(remarshaled))
			if err != nil {
				t.Fatalf("re-marshaled spec does not reload: %v\n%s", err, remarshaled)
			}
			if !reflect.DeepEqual(spec, reloaded) {
				t.Fatalf("spec did not survive the round trip:\n%+v\n%+v", spec, reloaded)
			}
		})
	}
}

// TestFaultedScenarioReportsStats runs the lossy-campus scenario end to end
// and checks the fault plan demonstrably executed: injection stats are
// populated and surfaced both in the structured result and the rendering.
func TestFaultedScenarioReportsStats(t *testing.T) {
	f, err := os.Open(filepath.Join("..", "..", "scenarios", "lossy-campus.json"))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	spec, err := Load(f)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	fs := res.FaultStats
	if fs == nil {
		t.Fatal("faulted scenario returned no FaultStats")
	}
	if fs.BurstDropped == 0 || fs.LinkFlaps != 1 || fs.HostChurns != 1 || fs.CAMFlushes != 1 {
		t.Fatalf("fault stats: %+v", fs)
	}
	// The MITM must still be detected through the degraded network.
	if res.GuardIncidents == 0 {
		t.Fatalf("guard saw nothing through the faults: %+v", res)
	}
	var buf bytes.Buffer
	if err := res.Render(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "faults:") {
		t.Fatalf("render missing the faults line:\n%s", buf.String())
	}
}

// TestFaultSectionValidatedAtRun confirms a scenario with a bad fault event
// fails loudly at Run, not silently.
func TestFaultSectionValidatedAtRun(t *testing.T) {
	spec := load(t, `{
		"seed": 1, "durationSeconds": 10,
		"faults": {"events": [{"type": "dhcp-outage", "atSeconds": 1}]}
	}`)
	if _, err := Run(spec); err == nil || !strings.Contains(err.Error(), "no DHCP server") {
		t.Fatalf("err = %v, want dhcp-outage rejection (scenarios deploy no DHCP server)", err)
	}
}

// TestScanCountClampsToSubnet: a scan walks hosts 1..count, stopping at the
// last host address of the attacker's segment — a /24 has 254 — however
// large the count.
func TestScanCountClampsToSubnet(t *testing.T) {
	for _, tt := range []struct{ count, want int }{{254, 254}, {255, 254}, {256, 254}, {500, 254}} {
		spec := &Spec{
			DurationSeconds: 5,
			Attacks:         []AttackSpec{{Type: "scan", Count: tt.count}},
		}
		res, err := Run(spec)
		if err != nil {
			t.Fatal(err)
		}
		if res.AttackerForged != uint64(tt.want) {
			t.Fatalf("count %d forged %d scan requests, want %d", tt.count, res.AttackerForged, tt.want)
		}
	}
}

// TestPoisonAgainstCryptoSchemes: S-ARP and TARP hosts ignore plain ARP, so
// a poison on their segment also forges a secured reply — each scheme must
// reject and report it, and no host may end up poisoned.
func TestPoisonAgainstCryptoSchemes(t *testing.T) {
	for _, scheme := range []string{"s-arp", "tarp"} {
		for _, variant := range []string{"gratuitous", "unsolicited-reply", "request-spoof"} {
			spec := &Spec{
				DurationSeconds: 10,
				Schemes:         []SchemeSpec{{Name: scheme}},
				Attacks:         []AttackSpec{{AtSeconds: 2, Type: "poison", Variant: variant}},
			}
			res, err := Run(spec)
			if err != nil {
				t.Fatal(err)
			}
			if res.AlertsByScheme[scheme] == 0 {
				t.Fatalf("%s vs %s raised no alert: %v", scheme, variant, res.AlertsByScheme)
			}
			if res.PoisonedHosts != 0 {
				t.Fatalf("%s vs %s poisoned %d hosts", scheme, variant, res.PoisonedHosts)
			}
		}
	}
}
