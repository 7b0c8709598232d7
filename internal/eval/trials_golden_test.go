package eval

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
	"time"

	"repro/internal/schemes/registry"
)

// TestTrialsGolden pins every field of every detection-trial result on a
// small grid per caller: Tables 3/8/9/10 and Figures 1/4/8 at three seeds
// each, Figures 9/10 at 500 and 1000 hosts, two seeds, on one and two
// shard workers.
// The rendered artifacts show only medians and proportions; this file also
// records alert, suppression, churn, frame and fault counts and per-stage
// nanoseconds, so a trial whose random draws move cannot hide behind an
// unchanged median. Regenerate deliberately with UPDATE_GOLDEN=1.
func TestTrialsGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("trial golden grid skipped in -short")
	}
	var cells []func() string
	add := func(cell func() string) { cells = append(cells, cell) }

	// detection renders a churn-workload trial (Tables 3/9, Figures 1/4).
	detection := func(exp, label string, cfg trialConfig) {
		add(func() string {
			r := runTrial(cfg)
			return fmt.Sprintf("%s %s seed=%d churns=%d detected=%v latency=%d fp=%d churned=%d alerts=%d suppressed=%d",
				exp, label, cfg.seed, cfg.churns, r.detected, r.latency, r.churnAlerts, r.churns, r.alerts, r.suppressed)
		})
	}
	for _, scheme := range DetectionSchemes() {
		for seed := int64(1); seed <= 3; seed++ {
			detection("table3", scheme, trialConfig{scheme: scheme, seed: seed, hosts: 8, churns: 4,
				attackAt: 60 * time.Second, horizon: 120 * time.Second})
			detection("figure1", scheme, trialConfig{scheme: scheme, seed: seed + 1000, hosts: 8, churns: 2,
				attackAt: 60 * time.Second, horizon: 120 * time.Second, stop: stopAtDecision})
		}
		// No churn events, but the churn step's shuffle still draws.
		detection("table3", scheme, trialConfig{scheme: scheme, seed: 1, hosts: 8,
			attackAt: 60 * time.Second, horizon: 120 * time.Second})
	}
	seen := make(map[string]bool)
	for _, composite := range table9Stacks() {
		deployments := []registry.Stack{composite}
		for _, sel := range composite.Schemes {
			deployments = append(deployments, registry.Stack{Schemes: []registry.Selection{sel}})
		}
		for _, st := range deployments {
			if seen[st.Label()] {
				continue
			}
			seen[st.Label()] = true
			for seed := int64(9001); seed <= 9003; seed++ {
				detection("table9", st.Label(), trialConfig{stack: st, seed: seed, hosts: 8, churns: 4,
					attackAt: 60 * time.Second, horizon: 120 * time.Second})
			}
		}
	}
	for _, scheme := range []string{"arpwatch", "active-probe", "hybrid-guard"} {
		for _, churns := range []int{0, 1, 2, 4, 8, 16} {
			hosts := churns + 4
			if hosts < 8 {
				hosts = 8
			}
			for seed := int64(5001); seed <= 5003; seed++ {
				detection("figure4", scheme, trialConfig{scheme: scheme, seed: seed, hosts: hosts, churns: churns,
					attackAt: 10*time.Minute + time.Hour, horizon: 10 * time.Minute})
			}
		}
	}

	// fault renders a fault-intensity trial (Table 8, Figure 8).
	fault := func(exp, scheme string, seed int64, x float64) {
		add(func() string {
			r := runTrial(trialConfig{scheme: scheme, seed: seed, intensity: x, hosts: 8, churns: noChurn,
				attackAt: 60 * time.Second, horizon: 120 * time.Second})
			return fmt.Sprintf("%s %s seed=%d intensity=%.2f detected=%v latency=%d fp=%d",
				exp, scheme, seed, x, r.detected, r.latency, r.strayAlerts)
		})
	}
	for _, scheme := range DetectionSchemes() {
		for seed := int64(1); seed <= 3; seed++ {
			for _, x := range table8Intensities {
				fault("table8", scheme, seed+8000, x)
			}
			for _, x := range []float64{0, 0.25, 0.5, 0.75, 1.0} {
				fault("figure8", scheme, seed+9000, x)
			}
		}
	}

	// Table 10: traced attribution trials.
	for _, scheme := range DetectionSchemes() {
		for seed := int64(10001); seed <= 10003; seed++ {
			scheme, seed := scheme, seed
			add(func() string {
				r := runTrial(trialConfig{scheme: scheme, seed: seed, hosts: 8, churns: noChurn,
					attackAt: 60 * time.Second, horizon: 90 * time.Second, stop: stopAttributed})
				stages := make([]string, 0, len(r.stages))
				for st, d := range r.stages {
					stages = append(stages, fmt.Sprintf("%s=%d", st, d))
				}
				sort.Strings(stages)
				return fmt.Sprintf("table10 %s seed=%d attributed=%v total=%d stages=[%s]",
					scheme, seed, r.stages != nil, r.total, strings.Join(stages, " "))
			})
		}
	}

	// campus renders a campus trial (Figures 9/10).
	campus := func(exp, label string, cfg trialConfig) {
		add(func() string {
			r := runTrial(cfg)
			return fmt.Sprintf("%s %s size=%d seed=%d workers=%d hosts=%d detected=%v latency=%d frames=%d faults=%d",
				exp, label, cfg.hosts, cfg.seed, cfg.workers, r.hosts, r.detected, r.latencyOr(cfg.horizon-r.attackAt), r.frames, r.faults)
		})
	}
	for _, size := range []int{500, 1000} {
		for _, workers := range []int{1, 2} {
			for seed := int64(11001); seed <= 11002; seed++ {
				campus("figure9", registry.NameArpwatch, trialConfig{scheme: registry.NameArpwatch,
					campus: true, hosts: size, seed: seed, workers: workers, horizon: 30 * time.Second})
			}
			for _, d := range figure10Deployments() {
				for seed := int64(12001); seed <= 12002; seed++ {
					campus("figure10", d.label, trialConfig{scheme: d.scheme, stack: d.stack, intensity: 1,
						campus: true, hosts: size, seed: seed, workers: workers, horizon: 30 * time.Second, stop: stopAtDecision})
				}
			}
		}
	}

	var buf bytes.Buffer
	for _, line := range Map(cells, func(cell func() string) string { return cell() }) {
		buf.WriteString(line)
		buf.WriteByte('\n')
	}
	golden := filepath.Join("testdata", "trials.golden")
	if os.Getenv("UPDATE_GOLDEN") != "" {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %s", golden)
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("read golden (run with UPDATE_GOLDEN=1 to create): %v", err)
	}
	if got := buf.String(); got != string(want) {
		gotLines, wantLines := strings.Split(got, "\n"), strings.Split(string(want), "\n")
		for i := 0; i < len(gotLines) && i < len(wantLines); i++ {
			if gotLines[i] != wantLines[i] {
				t.Fatalf("trial results drifted from %s at line %d:\ngot:  %s\nwant: %s", golden, i+1, gotLines[i], wantLines[i])
			}
		}
		t.Fatalf("trial results drifted from %s: %d lines, want %d", golden, len(gotLines), len(wantLines))
	}
}
