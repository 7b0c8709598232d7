package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

func TestEverySchemeAgainstGratuitous(t *testing.T) {
	// Which schemes keep the victim clean, and which only alert, is the
	// analysis' core claim set; this pins each CLI path to it.
	tests := []struct {
		scheme    string
		wantClean bool
		wantAlert bool
	}{
		{"arpwatch", false, true}, // detects, cannot prevent
		{"active-probe", false, true},
		// middleware holds the warmed-up gateway binding, so the forged
		// broadcast is a conflicting rebind: it gets verified against the
		// wire, rejected, and paged (see the middleware package tests).
		{"middleware", true, true},
		{"static-arp", true, false}, // prevents silently
		{"dai", true, true},
		{"s-arp", true, true}, // plain ARP ignored; forged secured reply alerts
		{"tarp", true, true},
		{"hybrid-guard", true, true},
	}
	for _, tt := range tests {
		t.Run(tt.scheme, func(t *testing.T) {
			var buf bytes.Buffer
			if err := run(&buf, []string{"-scheme", tt.scheme, "-attack", "gratuitous"}); err != nil {
				t.Fatal(err)
			}
			out := buf.String()
			clean := strings.Contains(out, "victim cache: clean")
			if clean != tt.wantClean {
				t.Fatalf("%s clean=%v, want %v:\n%s", tt.scheme, clean, tt.wantClean, out)
			}
			alerted := !strings.Contains(out, "alerts: 0")
			if alerted != tt.wantAlert {
				t.Fatalf("%s alerted=%v, want %v:\n%s", tt.scheme, alerted, tt.wantAlert, out)
			}
		})
	}
}

func TestHybridGuardAgainstMITM(t *testing.T) {
	var buf bytes.Buffer
	if err := run(&buf, []string{"-scheme", "hybrid-guard", "-attack", "mitm"}); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "victim cache: clean") {
		t.Fatalf("protected victim poisoned:\n%s", out)
	}
	if !strings.Contains(out, "confirmed=true") {
		t.Fatalf("incident not confirmed:\n%s", out)
	}
}

// TestHybridGuardIncidentOrder: the MITM opens the victim and gateway
// incidents at the same instant (2.00005s), so their order rests on the
// (FirstAt, IP) sort alone; every run must print the same lines.
func TestHybridGuardIncidentOrder(t *testing.T) {
	var first []string
	for i := 0; i < 10; i++ {
		var buf bytes.Buffer
		if err := run(&buf, []string{"-scheme", "hybrid-guard", "-attack", "mitm"}); err != nil {
			t.Fatal(err)
		}
		var incs []string
		for _, line := range strings.Split(buf.String(), "\n") {
			if strings.HasPrefix(line, "incident: ") {
				incs = append(incs, line)
			}
		}
		if i == 0 {
			if len(incs) != 2 || !strings.Contains(incs[0], "ip=192.168.88.2 ") ||
				!strings.Contains(incs[1], "ip=192.168.88.254 ") ||
				!strings.Contains(incs[0], "window=[2.00005s..") || !strings.Contains(incs[1], "window=[2.00005s..") {
				t.Fatalf("want the victim then the gateway incident, both opened at 2.00005s:\n%s", strings.Join(incs, "\n"))
			}
			first = incs
		} else if strings.Join(incs, "\n") != strings.Join(first, "\n") {
			t.Fatalf("run %d printed incidents in another order:\n%s\nwant:\n%s", i, strings.Join(incs, "\n"), strings.Join(first, "\n"))
		}
	}
}

func TestFloodDetectAgainstScan(t *testing.T) {
	var buf bytes.Buffer
	if err := run(&buf, []string{"-scheme", "flood-detect", "-attack", "scan"}); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "arp scan") {
		t.Fatalf("scan not named:\n%s", out)
	}
	if !strings.Contains(out, "victim cache: clean") {
		t.Fatalf("a scan poisons nothing:\n%s", out)
	}
}

// TestMetricsSnapshot pins the -metrics contract: the snapshot must carry
// switch CAM counters, the stack resolution-latency histogram, and
// per-detector alert counts.
func TestMetricsSnapshot(t *testing.T) {
	path := filepath.Join(t.TempDir(), "metrics.json")
	var buf bytes.Buffer
	if err := run(&buf, []string{"-scheme", "hybrid-guard", "-attack", "mitm", "-metrics", path}); err != nil {
		t.Fatal(err)
	}
	blob, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var snap struct {
		Counters []struct {
			Name   string            `json:"name"`
			Labels map[string]string `json:"labels"`
			Value  uint64            `json:"value"`
		} `json:"counters"`
		Histograms []struct {
			Name  string `json:"name"`
			Count uint64 `json:"count"`
		} `json:"histograms"`
	}
	if err := json.Unmarshal(blob, &snap); err != nil {
		t.Fatalf("metrics file not json: %v", err)
	}
	totals := make(map[string]uint64)
	alertSchemes := make(map[string]uint64)
	for _, c := range snap.Counters {
		totals[c.Name] += c.Value
		if c.Name == "scheme_alerts_total" {
			alertSchemes[c.Labels["scheme"]] += c.Value
		}
	}
	if totals["switch_cam_inserts_total"] == 0 {
		t.Fatalf("no switch CAM counters in snapshot; have %v", totals)
	}
	if len(alertSchemes) == 0 {
		t.Fatalf("no per-detector alert counts in snapshot; have %v", totals)
	}
	var latency bool
	for _, h := range snap.Histograms {
		if h.Name == "stack_resolution_latency_seconds" && h.Count > 0 {
			latency = true
		}
	}
	if !latency {
		t.Fatal("resolution-latency histogram missing from snapshot")
	}
}

// TestTraceFlag pins the -trace contract: the run prints the attack's span
// tree and attributes the detection latency per stage, and the stage
// histograms land in the -metrics snapshot.
func TestTraceFlag(t *testing.T) {
	path := filepath.Join(t.TempDir(), "metrics.json")
	var buf bytes.Buffer
	if err := run(&buf, []string{"-scheme", "active-probe", "-attack", "mitm", "-trace", "-metrics", path}); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"causal trace",
		"attack/unsolicited-reply", // the tree's root
		"scheme/inspect",           // the scheme hop
		"detection latency",
		"inspect=500ms", // the probe window, charged to inspection
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("-trace output missing %q:\n%s", want, out)
		}
	}
	blob, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var snap struct {
		Histograms []struct {
			Name   string            `json:"name"`
			Labels map[string]string `json:"labels"`
			Count  uint64            `json:"count"`
		} `json:"histograms"`
	}
	if err := json.Unmarshal(blob, &snap); err != nil {
		t.Fatal(err)
	}
	staged := false
	for _, h := range snap.Histograms {
		if h.Name == "detection_stage_seconds" && h.Labels["stage"] == "inspect" && h.Count > 0 {
			staged = true
		}
	}
	if !staged {
		t.Fatal("detection_stage_seconds{stage=inspect} missing from traced snapshot")
	}
}

// TestHTTPParity pins that serving -http leaves a run alone: the
// narration is byte-identical, and the -metrics snapshot differs only in
// the two families the virtual-second publish tick moves.
func TestHTTPParity(t *testing.T) {
	for _, tc := range []struct {
		name    string
		args    []string
		metrics string
	}{
		{"arpwatch-mitm", []string{"-scheme", "arpwatch", "-attack", "mitm"}, "m.prom"},
		{"hybrid-guard-mitm-trace", []string{"-scheme", "hybrid-guard", "-attack", "mitm", "-trace"}, "m.json"},
		{"stack-gratuitous", []string{"-scheme", "dai+arpwatch+port-security", "-attack", "gratuitous"}, "m.prom"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), tc.metrics)
			runOnce := func(extra ...string) (string, string) {
				var buf bytes.Buffer
				if err := run(&buf, append(append([]string{"-metrics", path}, tc.args...), extra...)); err != nil {
					t.Fatal(err)
				}
				blob, err := os.ReadFile(path)
				if err != nil {
					t.Fatal(err)
				}
				return buf.String(), string(blob)
			}
			without, metricsWithout := runOnce()
			with, metricsWith := runOnce("-http", "127.0.0.1:0")
			if with != without {
				t.Fatalf("serving ops changed the narration:\nwith:\n%s\nwithout:\n%s", with, without)
			}
			tickOnly(t, "-metrics "+tc.metrics, metricsWithout, metricsWith)
		})
	}
}

func TestUnknownSchemeAndAttack(t *testing.T) {
	var buf bytes.Buffer
	if err := run(&buf, []string{"-scheme", "nonsense"}); err == nil {
		t.Fatal("unknown scheme accepted")
	}
	if err := run(&buf, []string{"-attack", "nonsense"}); err == nil {
		t.Fatal("unknown attack accepted")
	}
}

// tickFigures matches the values of the two metric families the -http
// publish tick moves (one more scheduler event per virtual second, a queue
// up to one deeper), in Prometheus text and in an indented JSON snapshot.
var tickFigures = regexp.MustCompile(`(sim_events_executed_total|sim_queue_depth_highwater)(",\s*"value":)? \d+`)

// tickOnly fails t unless with differs from without in tickFigures values
// and nowhere else.
func tickOnly(t *testing.T, what, without, with string) {
	t.Helper()
	if with == without {
		t.Fatalf("%s: identical with -http; the publish tick never ran", what)
	}
	masked := func(s string) string { return tickFigures.ReplaceAllString(s, "$1 N") }
	if masked(with) != masked(without) {
		t.Fatalf("%s differs outside the tick's two families:\nwith:\n%s\nwithout:\n%s", what, with, without)
	}
}
