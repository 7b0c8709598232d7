package eval

import (
	"fmt"
	"testing"
	"time"
)

// The stop-at-detection equivalence tests. A trial that stops at its
// deciding alert must report the same (detected, latency) as the same
// trial run to the horizon. They fail when the stop fires on an alert the
// post-run scan would not pick, and when the stop's sink hook displaces an
// OnAlert a deployment installed on the trial's sink, since either changes
// what the stopped run detects.

// TestFigure10StopAtDetectionMatchesFullRun covers every Figure 10
// deployment at three campus sizes, two seeds and shard widths 1 and 2.
func TestFigure10StopAtDetectionMatchesFullRun(t *testing.T) {
	stoppedEarly := 0
	for _, d := range figure10Deployments() {
		for _, size := range []int{100, 1000, 10000} {
			for _, seed := range []int64{12001, 12002} {
				for _, workers := range []int{1, 2} {
					cfg := campusTrialConfig{
						scheme: d.scheme, stack: d.stack, faulted: true,
						size: size, seed: seed, workers: workers, horizon: 30 * time.Second,
					}
					full := runCampusTrial(cfg)
					cfg.stopAtDetection = true
					stopped := runCampusTrial(cfg)
					name := fmt.Sprintf("%s size=%d seed=%d workers=%d", d.label, size, seed, workers)
					if stopped.detected != full.detected || stopped.latency != full.latency {
						t.Errorf("%s: stopped run gave (%v, %v), full run (%v, %v)",
							name, stopped.detected, stopped.latency, full.detected, full.latency)
					}
					if stopped.frames < full.frames {
						stoppedEarly++
					}
				}
			}
		}
	}
	if stoppedEarly == 0 {
		t.Fatal("no trial stopped before the horizon")
	}
}

// TestFigure1StopAtDetectionMatchesFullRun covers every detection scheme
// over six Figure 1 seeds.
func TestFigure1StopAtDetectionMatchesFullRun(t *testing.T) {
	stoppedEarly := 0
	for _, scheme := range DetectionSchemes() {
		for seed := int64(1001); seed <= 1006; seed++ {
			cfg := detectionTrialConfig{
				scheme: scheme, seed: seed, hosts: 8, churns: 2,
				attackAt: 60 * time.Second, horizon: 120 * time.Second,
			}
			full := runDetectionTrial(cfg)
			cfg.stopAtDetection = true
			stopped := runDetectionTrial(cfg)
			if stopped.detected != full.detected || stopped.latency != full.latency {
				t.Errorf("%s seed=%d: stopped run gave (%v, %v), full run (%v, %v)",
					scheme, seed, stopped.detected, stopped.latency, full.detected, full.latency)
			}
			if stopped.alerts < full.alerts {
				stoppedEarly++
			}
		}
	}
	if stoppedEarly == 0 {
		t.Fatal("no trial stopped before the horizon")
	}
}
