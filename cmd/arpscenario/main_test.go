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

func repoScenario(t *testing.T, name string) string {
	t.Helper()
	path := filepath.Join("..", "..", "scenarios", name)
	if _, err := os.Stat(path); err != nil {
		t.Fatalf("missing bundled scenario: %v", err)
	}
	return path
}

func TestBundledScenariosRun(t *testing.T) {
	for _, name := range []string{"soho-guard.json", "enterprise-dai.json", "hardened-access.json", "signature-nids.json", "lossy-campus.json"} {
		t.Run(name, func(t *testing.T) {
			var buf bytes.Buffer
			if err := run(&buf, []string{repoScenario(t, name)}); err != nil {
				t.Fatal(err)
			}
			if !strings.Contains(buf.String(), "scenario finished") {
				t.Fatalf("output:\n%s", buf.String())
			}
		})
	}
}

func TestJSONOutput(t *testing.T) {
	var buf bytes.Buffer
	if err := run(&buf, []string{"-json", repoScenario(t, "enterprise-dai.json")}); err != nil {
		t.Fatal(err)
	}
	var res map[string]any
	if err := json.Unmarshal(buf.Bytes(), &res); err != nil {
		t.Fatalf("not json: %v\n%s", err, buf.String())
	}
	if res["poisonedHosts"].(float64) != 0 {
		t.Fatalf("DAI scenario should prevent: %v", res["poisonedHosts"])
	}
}

// TestResultIncludesCaptureAndTelemetry checks the structured result now
// embeds the wire-capture summary and the telemetry snapshot.
func TestResultIncludesCaptureAndTelemetry(t *testing.T) {
	var buf bytes.Buffer
	if err := run(&buf, []string{"-json", repoScenario(t, "soho-guard.json")}); err != nil {
		t.Fatal(err)
	}
	var res struct {
		CaptureStats struct {
			Frames uint64            `json:"frames"`
			Bytes  uint64            `json:"bytes"`
			ByType map[string]uint64 `json:"byType"`
		} `json:"captureStats"`
		Telemetry struct {
			Counters []struct {
				Name   string            `json:"name"`
				Labels map[string]string `json:"labels"`
				Value  uint64            `json:"value"`
			} `json:"counters"`
			Histograms []struct {
				Name  string `json:"name"`
				Count uint64 `json:"count"`
			} `json:"histograms"`
		} `json:"telemetry"`
	}
	if err := json.Unmarshal(buf.Bytes(), &res); err != nil {
		t.Fatalf("not json: %v\n%s", err, buf.String())
	}
	if res.CaptureStats.Frames == 0 || res.CaptureStats.Bytes == 0 {
		t.Fatalf("empty capture stats: %+v", res.CaptureStats)
	}
	if res.CaptureStats.ByType["ARP"] == 0 {
		t.Fatalf("no ARP frames in capture byType: %v", res.CaptureStats.ByType)
	}
	counters := make(map[string]uint64)
	for _, c := range res.Telemetry.Counters {
		counters[c.Name] += c.Value
	}
	for _, want := range []string{
		"sim_events_executed_total",
		"switch_cam_inserts_total",
		"switch_frames_forwarded_total",
		"scheme_alerts_total",
		"guard_incidents_total",
		"stack_cache_created_total",
	} {
		if counters[want] == 0 {
			t.Fatalf("counter %s missing or zero; have %v", want, counters)
		}
	}
	var latency bool
	for _, h := range res.Telemetry.Histograms {
		if h.Name == "stack_resolution_latency_seconds" && h.Count > 0 {
			latency = true
		}
	}
	if !latency {
		t.Fatal("resolution latency histogram missing from snapshot")
	}
}

// TestMetricsFlag checks -metrics writes both export formats.
func TestMetricsFlag(t *testing.T) {
	dir := t.TempDir()
	jsonPath := filepath.Join(dir, "metrics.json")
	promPath := filepath.Join(dir, "metrics.prom")
	var buf bytes.Buffer
	if err := run(&buf, []string{"-metrics", jsonPath, repoScenario(t, "soho-guard.json")}); err != nil {
		t.Fatal(err)
	}
	if err := run(&buf, []string{"-metrics", promPath, repoScenario(t, "soho-guard.json")}); err != nil {
		t.Fatal(err)
	}
	blob, err := os.ReadFile(jsonPath)
	if err != nil {
		t.Fatal(err)
	}
	var snap map[string]any
	if err := json.Unmarshal(blob, &snap); err != nil {
		t.Fatalf("metrics file not json: %v", err)
	}
	if _, ok := snap["counters"]; !ok {
		t.Fatal("metrics snapshot missing counters")
	}
	prom, err := os.ReadFile(promPath)
	if err != nil {
		t.Fatal(err)
	}
	text := string(prom)
	if !strings.Contains(text, "# TYPE switch_frames_forwarded_total counter") {
		t.Fatalf("prometheus output missing TYPE line:\n%.400s", text)
	}
	if !strings.Contains(text, `stack_resolution_latency_seconds_bucket`) {
		t.Fatal("prometheus output missing histogram buckets")
	}
}

// TestHTTPParity pins that serving -http leaves every bundled scenario
// alone, campus ones included: the text result is byte-identical, and the
// -json result and the -metrics exposition differ only in the two families
// site 0's virtual-second publish tick moves.
func TestHTTPParity(t *testing.T) {
	paths, err := filepath.Glob(filepath.Join("..", "..", "scenarios", "*.json"))
	if err != nil || len(paths) == 0 {
		t.Fatalf("no bundled scenarios: %v", err)
	}
	for _, scen := range paths {
		t.Run(filepath.Base(scen), func(t *testing.T) {
			prom := filepath.Join(t.TempDir(), "m.prom")
			runOnce := func(args ...string) (string, string) {
				var buf bytes.Buffer
				if err := run(&buf, append(append([]string{"-metrics", prom}, args...), scen)); err != nil {
					t.Fatal(err)
				}
				blob, err := os.ReadFile(prom)
				if err != nil {
					t.Fatal(err)
				}
				return buf.String(), string(blob)
			}
			const serve = "-http=127.0.0.1:0"
			text, metrics := runOnce()
			textWith, metricsWith := runOnce(serve)
			if textWith != text {
				t.Fatalf("serving ops changed the result:\nwith:\n%s\nwithout:\n%s", textWith, text)
			}
			tickOnly(t, "-metrics", metrics, metricsWith)
			js, _ := runOnce("-json")
			jsWith, _ := runOnce("-json", serve)
			tickOnly(t, "-json", js, jsWith)
		})
	}
}

func TestUsageErrors(t *testing.T) {
	var buf bytes.Buffer
	if err := run(&buf, nil); err == nil {
		t.Fatal("missing arg accepted")
	}
	if err := run(&buf, []string{"/nonexistent.json"}); err == nil {
		t.Fatal("missing file accepted")
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
