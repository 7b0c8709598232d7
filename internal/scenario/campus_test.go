package scenario

import (
	"bytes"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/telemetry"
)

// TestCampusSectionStrictlyValidated: the campus schema is held to the same
// load-time strictness as everything else — unknown keys (top-level and
// nested), impossible topologies, and malformed deployment scoping all fail
// before anything runs, with errors that list the valid alternatives.
func TestCampusSectionStrictlyValidated(t *testing.T) {
	cases := map[string]struct{ js, want string }{
		"unknown top-level key": {`{"campu": {"lans": 4}}`, "campu"},
		"unknown campus key":    {`{"campus": {"bogus": 1}}`, "bogus"},
		"addressing plan":       {`{"campus": {"lans": 300}}`, "max 250"},
		"lonely victim":         {`{"campus": {"lans": 4, "activeHostsPerLAN": 1}}`, "at least 2"},
		"negative LANs":         {`{"campus": {"lans": -1}}`, "lans -1"},
		"negative population":   {`{"campus": {"hostsPerLAN": -4}}`, "hostsPerLAN -4"},
		"one-station LANs":      {`{"campus": {"hostsPerLAN": 1}}`, "hostsPerLAN 1"},
		"negative actives":      {`{"campus": {"activeHostsPerLAN": -2}}`, "activeHostsPerLAN -2"},
		"attacker off the map":  {`{"campus": {"lans": 4, "attackerLan": 7}}`, "attackerLan 7 outside"},
		"bad selector":          {`{"campus": {"lans": 4, "deployments": [{"lans": "everywhere", "schemes": [{"name": "dai"}]}]}}`, `valid: "*"`},
		"selector off the map":  {`{"campus": {"lans": 4, "deployments": [{"lans": "2-9", "schemes": [{"name": "dai"}]}]}}`, "outside the campus"},
		"empty deployment":      {`{"campus": {"lans": 4, "deployments": [{"lans": "*"}]}}`, "deploys nothing"},
		"bad deployment scheme": {`{"campus": {"lans": 4, "deployments": [{"lans": "*", "schemes": [{"name": "nope"}]}]}}`, "unknown scheme"},
	}
	for name, tc := range cases {
		_, err := Load(strings.NewReader(tc.js))
		if err == nil {
			t.Errorf("%s accepted", name)
			continue
		}
		if !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: err = %v, want substring %q", name, err, tc.want)
		}
	}
	// The PR 9 rejections are gone: stacks and fault plans are first-class
	// on a campus now.
	accepted := []string{
		`{"campus": {"lans": 4}, "faults": {"events": [{"type": "duplicate", "atSeconds": 0, "prob": 0.1}]}}`,
		`{"campus": {"lans": 4}, "stacks": [{"schemes": [{"name": "dai"}, {"name": "arpwatch"}]}]}`,
		`{"campus": {"lans": 4}, "faults": {"events": [{"type": "trunk-partition", "atSeconds": 1, "durationSeconds": 5, "trunk": "trunk:2-*"}]}}`,
	}
	for _, js := range accepted {
		if _, err := Load(strings.NewReader(js)); err != nil {
			t.Errorf("valid campus spec rejected: %v\n%s", err, js)
		}
	}
}

// TestCampusScenarioDetectsMITM runs a small routed campus end to end: the
// per-LAN arpwatch deployment must catch the LAN-0 router MITM, the fabric
// must demonstrably carry cross-LAN traffic, and the campus figures must
// surface in both the structured result and the rendering.
func TestCampusScenarioDetectsMITM(t *testing.T) {
	spec := load(t, `{
		"seed": 1, "durationSeconds": 30,
		"campus": {"lans": 4, "hostsPerLAN": 64},
		"schemes": [{"name": "arpwatch", "params": {"seedGateway": false}}],
		"attacks": [{"atSeconds": 10, "type": "mitm"}]
	}`)
	res, err := Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	if res.Campus == nil {
		t.Fatal("campus run returned no campus figures")
	}
	if res.Campus.LANs != 4 || res.Campus.Hosts != 4*64 {
		t.Fatalf("campus shape: %+v", res.Campus)
	}
	if res.Campus.FabricFrames == 0 || res.Campus.CrossLANFrames == 0 {
		t.Fatalf("fabric idle: %+v", res.Campus)
	}
	if res.AlertsByScheme["arpwatch"] == 0 {
		t.Fatalf("MITM undetected: %+v", res.AlertsByScheme)
	}
	if res.PoisonedHosts == 0 {
		t.Fatal("detection-only scenario should leave the victim poisoned")
	}
	var buf bytes.Buffer
	if err := res.Render(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "campus: 4 LANs, 256 hosts") {
		t.Fatalf("render missing the campus line:\n%s", out)
	}
	if !strings.Contains(out, "lan0 ") {
		t.Fatalf("first alerts not LAN-attributed:\n%s", out)
	}
}

// TestCampusScenarioWidthParity is the determinism contract at the scenario
// level: the whole Result — merged alerts, poisoning census, fabric and
// capture figures — is identical whether the shards run under 1, 2, or 8
// workers. Only the telemetry snapshot is excluded: engine counters like
// sync waits legitimately depend on worker interleaving.
func TestCampusScenarioWidthParity(t *testing.T) {
	run := func(workers int) (*Result, string) {
		spec := load(t, `{
			"seed": 3, "durationSeconds": 30,
			"campus": {"lans": 4, "hostsPerLAN": 48},
			"schemes": [{"name": "arpwatch", "params": {"seedGateway": false}}],
			"attacks": [{"atSeconds": 7, "type": "mitm"}]
		}`)
		spec.Campus.Workers = workers
		res, err := Run(spec)
		if err != nil {
			t.Fatal(err)
		}
		res.Telemetry = telemetry.Snapshot{}
		var buf bytes.Buffer
		if err := res.Render(&buf); err != nil {
			t.Fatal(err)
		}
		return res, buf.String()
	}
	ref, refOut := run(1)
	if ref.AlertsByScheme["arpwatch"] == 0 {
		t.Fatalf("reference run detected nothing: %+v", ref.AlertsByScheme)
	}
	for _, w := range []int{2, 8} {
		got, gotOut := run(w)
		if gotOut != refOut {
			t.Fatalf("render differs at workers=%d:\n--- workers=1 ---\n%s--- workers=%d ---\n%s",
				w, refOut, w, gotOut)
		}
		if !reflect.DeepEqual(ref, got) {
			t.Fatalf("result differs at workers=%d:\n%+v\n%+v", w, ref, got)
		}
	}
}

// TestCampusFaultedStacksScenario round-trips the bundled
// campus-faulted-stacks.json and runs it end to end: 16 LANs with two
// different per-segment stacks, a trunk partition isolating the attacker's
// LAN, an impaired segment, and a campus-wide router flush — all through
// the same JSON front end a flat run uses.
func TestCampusFaultedStacksScenario(t *testing.T) {
	f, err := os.Open(filepath.Join("..", "..", "scenarios", "campus-faulted-stacks.json"))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	spec, err := Load(f)
	if err != nil {
		t.Fatal(err)
	}
	if spec.Campus == nil || spec.Campus.LANs != 16 {
		t.Fatalf("campus shape: %+v", spec.Campus)
	}
	if spec.Campus.AttackerLAN != 3 {
		t.Fatalf("attackerLan = %d, want 3", spec.Campus.AttackerLAN)
	}
	if len(spec.Campus.Deployments) != 2 {
		t.Fatalf("deployments: %+v", spec.Campus.Deployments)
	}
	res, err := Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	if res.Campus == nil || res.Campus.LANs != 16 {
		t.Fatalf("campus figures: %+v", res.Campus)
	}
	fs := res.FaultStats
	if fs == nil {
		t.Fatal("fault plan ran but Result has no FaultStats")
	}
	if fs.TrunkPartitions == 0 || fs.TrunkDropped == 0 {
		t.Fatalf("trunk partition left no trace: %+v", fs)
	}
	if fs.RouterFlushes != 16 {
		t.Fatalf("router-flush on lan:* flushed %d routers, want 16", fs.RouterFlushes)
	}
	if res.AlertsByScheme["arpwatch"] == 0 {
		t.Fatalf("MITM undetected: %+v", res.AlertsByScheme)
	}
	labels := make(map[string]bool)
	for _, st := range res.StackStats {
		labels[st.Stack] = true
	}
	if len(labels) != 2 {
		t.Fatalf("want the two per-segment stacks in StackStats, got %+v", res.StackStats)
	}
	var buf bytes.Buffer
	if err := res.Render(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "campus faults:") {
		t.Fatalf("render missing the campus faults line:\n%s", buf.String())
	}
}

// TestCampusFaultedWidthParity extends the scenario-level determinism
// contract to the faulted, stack-laden case: the whole Result — fault
// accounting included — is identical whether the shards run under 1, 2,
// or 8 workers. Only the telemetry snapshot is excluded: engine counters
// like sync waits legitimately depend on worker interleaving.
func TestCampusFaultedWidthParity(t *testing.T) {
	run := func(workers int) (*Result, string) {
		spec := load(t, `{
			"seed": 5, "durationSeconds": 30,
			"campus": {"lans": 4, "hostsPerLAN": 48, "attackerLan": 1,
				"deployments": [
					{"lans": "0-1", "stacks": [{"schemes": [{"name": "dai"}, {"name": "arpwatch", "params": {"seedGateway": false}}]}]},
					{"lans": "2-3", "schemes": [{"name": "snort-like"}]}
				]},
			"attacks": [{"atSeconds": 7, "type": "mitm"}],
			"faults": {"events": [
				{"type": "gilbert-elliott", "atSeconds": 3, "durationSeconds": 20, "pGoodBad": 0.05, "pBadGood": 0.2, "lossBad": 0.6, "linkAt": "lan:2/link:*"},
				{"type": "trunk-partition", "atSeconds": 12, "durationSeconds": 8, "trunk": "trunk:1-*"},
				{"type": "router-flush", "atSeconds": 20, "lan": "lan:*"}
			]}
		}`)
		spec.Campus.Workers = workers
		res, err := Run(spec)
		if err != nil {
			t.Fatal(err)
		}
		res.Telemetry = telemetry.Snapshot{}
		var buf bytes.Buffer
		if err := res.Render(&buf); err != nil {
			t.Fatal(err)
		}
		return res, buf.String()
	}
	ref, refOut := run(1)
	if ref.FaultStats == nil || ref.FaultStats.TrunkPartitions == 0 {
		t.Fatalf("reference run armed no trunk partitions: %+v", ref.FaultStats)
	}
	if ref.AlertsByScheme["arpwatch"] == 0 {
		t.Fatalf("reference run detected nothing: %+v", ref.AlertsByScheme)
	}
	for _, w := range []int{2, 8} {
		got, gotOut := run(w)
		if gotOut != refOut {
			t.Fatalf("render differs at workers=%d:\n--- workers=1 ---\n%s--- workers=%d ---\n%s",
				w, refOut, w, gotOut)
		}
		if !reflect.DeepEqual(ref, got) {
			t.Fatalf("result differs at workers=%d:\n%+v\n%+v", w, ref, got)
		}
	}
}

// TestCampusMillionScenarioShape pins the bundled campus-million.json to
// what its name promises: a full million-station campus. (The bundled
// round-trip test actually runs it.)
func TestCampusMillionScenarioShape(t *testing.T) {
	f, err := os.Open(filepath.Join("..", "..", "scenarios", "campus-million.json"))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	spec, err := Load(f)
	if err != nil {
		t.Fatal(err)
	}
	if spec.Campus == nil {
		t.Fatal("campus-million.json has no campus section")
	}
	if got := spec.Campus.LANs * spec.Campus.HostsPerLAN; got != 1_000_000 {
		t.Fatalf("campus-million.json describes %d hosts", got)
	}
}
