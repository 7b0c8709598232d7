package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// writeRuns writes one synthetic run file per seed into dir: a line of
// progress chatter, then the result line with the given metric values.
func writeRuns(t *testing.T, dir string, metrics map[string][]float64) {
	t.Helper()
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	for seed := 1; seed <= 10; seed++ {
		var fields []string
		for name, vs := range metrics {
			fields = append(fields, fmt.Sprintf("%q:{\"value\":%g}", name, vs[seed-1]))
		}
		body := fmt.Sprintf("warming up\n{\"attempted\":5,\"failed\":0,\"metrics\":{%s}}\n", strings.Join(fields, ","))
		if err := os.WriteFile(filepath.Join(dir, fmt.Sprintf("wl.%d.out", seed)), []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

// series returns base, base+step, … ten values.
func series(base, step float64) []float64 {
	out := make([]float64, 10)
	for i := range out {
		out[i] = base + step*float64(i)
	}
	return out
}

func TestVerdictColumn(t *testing.T) {
	dir := t.TempDir()
	spec := `{
		"end_to_end": [
			{"name": "op_p50_ms", "unit": "ms", "better": "lower", "bound": 0.25},
			{"name": "ops_per_s", "unit": "1/s", "better": "higher", "bound": 0.25},
			{"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25}
		],
		"per_layer": [
			{"name": "sim.cpu_ms", "unit": "ms", "better": "lower"},
			{"name": "sim.events", "unit": "count", "better": "lower"}
		]
	}`
	specPath := filepath.Join(dir, "BENCHMARK.json")
	if err := os.WriteFile(specPath, []byte(spec), 0o644); err != nil {
		t.Fatal(err)
	}
	// A's op_p50_ms runs 100..109 (quartiles 101.75 and 107.25).
	a := map[string][]float64{
		"op_p50_ms":  series(100, 1),
		"ops_per_s":  series(10, 0.1),
		"setup_s":    series(1, 0.01),
		"sim.cpu_ms": series(100, 1),
		"sim.events": series(500, 0),
	}
	b := map[string][]float64{
		// Faster in every pair by 20 ms, far beyond A's 5.5 ms IQR.
		"op_p50_ms": series(80, 1),
		// 30% lower throughput: worse than the 25% bound.
		"ops_per_s": series(7, 0.07),
		// Faster in every pair, but by 0.01 s while A's IQR is 0.055 s.
		"setup_s": series(0.99, 0.01),
		// 40% slower, but a per-layer metric has no bound.
		"sim.cpu_ms": series(140, 1),
		// Identical: no pair won.
		"sim.events": series(500, 0),
	}
	writeRuns(t, filepath.Join(dir, "a"), a)
	writeRuns(t, filepath.Join(dir, "b"), b)

	var out bytes.Buffer
	if err := run(&out, specPath, filepath.Join(dir, "a"), filepath.Join(dir, "b")); err != nil {
		t.Fatal(err)
	}
	want := map[string]string{
		"op_p50_ms":  "gain",
		"ops_per_s":  "worse>bound",
		"setup_s":    "within",
		"sim.cpu_ms": "within",
		"sim.events": "within",
	}
	got := map[string]string{}
	for _, line := range strings.Split(out.String(), "\n") {
		f := strings.Fields(line)
		if len(f) > 2 && f[0] == "wl" {
			got[f[1]] = f[len(f)-1]
		}
	}
	for name, v := range want {
		if got[name] != v {
			t.Errorf("%s verdict %q, want %q\n%s", name, got[name], v, out.String())
		}
	}
	if !strings.Contains(out.String(), "104.5 [101.8 107.2]") {
		t.Errorf("A's op_p50_ms median and quartiles missing\n%s", out.String())
	}
	if !strings.Contains(out.String(), "wl: 10 pairs; failed/attempted A 0/50, B 0/50") {
		t.Errorf("pair summary missing\n%s", out.String())
	}
}

// TestVerdictAcrossSets pins the summary over several sets: a verdict
// every set gives is printed, one the sets split on reads "disagree", and
// a metric every set calls within is left out.
func TestVerdictAcrossSets(t *testing.T) {
	dir := t.TempDir()
	spec := `{
		"end_to_end": [
			{"name": "op_p50_ms", "unit": "ms", "better": "lower", "bound": 0.25},
			{"name": "ops_per_s", "unit": "1/s", "better": "higher", "bound": 0.25},
			{"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25}
		]
	}`
	specPath := filepath.Join(dir, "BENCHMARK.json")
	if err := os.WriteFile(specPath, []byte(spec), 0o644); err != nil {
		t.Fatal(err)
	}
	a := map[string][]float64{
		"op_p50_ms": series(100, 1),
		"ops_per_s": series(10, 0.1),
		"setup_s":   series(1, 0.01),
	}
	// Set 1 calls op_p50_ms a gain; set 2's gain is inside A's IQR. Both
	// sets find ops_per_s worse than its bound and setup_s within.
	b1 := map[string][]float64{"op_p50_ms": series(80, 1), "ops_per_s": series(7, 0.07), "setup_s": series(1, 0.01)}
	b2 := map[string][]float64{"op_p50_ms": series(99, 1), "ops_per_s": series(7, 0.07), "setup_s": series(1, 0.01)}
	var dirs []string
	for k, b := range []map[string][]float64{b1, b2} {
		da, db := filepath.Join(dir, fmt.Sprint(k), "a"), filepath.Join(dir, fmt.Sprint(k), "b")
		writeRuns(t, da, a)
		writeRuns(t, db, b)
		dirs = append(dirs, da, db)
	}

	var out bytes.Buffer
	if err := run(&out, specPath, dirs...); err != nil {
		t.Fatal(err)
	}
	_, summary, ok := strings.Cut(out.String(), "==> verdicts over 2 sets")
	if !ok {
		t.Fatalf("no summary over sets\n%s", out.String())
	}
	got := map[string]string{}
	for _, line := range strings.Split(summary, "\n") {
		if f := strings.Fields(line); len(f) == 4 && f[0] == "wl" {
			got[f[1]] = f[2] + " " + f[3]
		}
	}
	want := map[string]string{
		"op_p50_ms": "gain,within disagree",
		"ops_per_s": "worse>bound,worse>bound worse>bound",
	}
	if len(got) != len(want) {
		t.Errorf("summary rows %v, want %v\n%s", got, want, out.String())
	}
	for name, v := range want {
		if got[name] != v {
			t.Errorf("%s: summary %q, want %q\n%s", name, got[name], v, out.String())
		}
	}
}
