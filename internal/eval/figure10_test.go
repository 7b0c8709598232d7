package eval

import (
	"bytes"
	"strings"
	"testing"
	"time"
)

// figure10Small renders a scaled-down Figure 10 (still multi-LAN, still
// partitioning the backbone) at a given shard worker width.
func figure10Small(workers int) Artifact {
	return Figure10FaultedCampus([]int{100, 1000}, 2, workers, 30*time.Second)
}

// TestFigure10RendersAllDeployments: every compared deployment — the five
// detection schemes and the Table 9 stack — produces a series at every
// requested population.
func TestFigure10RendersAllDeployments(t *testing.T) {
	f := Figure10FaultedCampus([]int{100, 1000}, 1, 1, 30*time.Second)
	var buf bytes.Buffer
	if err := f.Render(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	want := append([]string{"dai+arpwatch+port-security", "100", "1000"}, DetectionSchemes()...)
	for _, w := range want {
		if !strings.Contains(out, w) {
			t.Fatalf("rendered figure missing %q:\n%s", w, out)
		}
	}
}

// TestFigure10TrialSurvivesTheFaultPlan: a single trial demonstrably runs
// the adversity script — faults inject, the backbone partition bites — and
// the per-LAN deployment still catches the LAN-0 MITM from inside the
// isolated segment.
func TestFigure10TrialSurvivesTheFaultPlan(t *testing.T) {
	res := runCampusTrial(campusTrialConfig{
		scheme: "arpwatch", faulted: true, size: 500, seed: 1, workers: 1, horizon: 30 * time.Second,
	})
	if res.faults == 0 {
		t.Fatal("fault plan injected nothing")
	}
	if !res.detected {
		t.Fatal("faulted campus MITM went undetected")
	}
	if res.latency <= 0 || res.latency > 15*time.Second {
		t.Fatalf("implausible detection latency %v", res.latency)
	}
	if res.hosts < 500 {
		t.Fatalf("campus undersized: %d hosts", res.hosts)
	}
}

// TestFigure10StackDeploysAtScale: the defense-in-depth deployment — with
// its construction-time members — assembles and detects on a campus too.
func TestFigure10StackDeploysAtScale(t *testing.T) {
	res := runCampusTrial(campusTrialConfig{
		stack: table9Stacks()[0], faulted: true, size: 500, seed: 1, workers: 1, horizon: 30 * time.Second,
	})
	if !res.detected {
		t.Fatal("stacked campus MITM went undetected")
	}
	if res.faults == 0 {
		t.Fatal("fault plan injected nothing")
	}
}

// TestFigure10ByteIdenticalAcrossWidths is the cross-shard determinism
// contract for the faulted sweep: rendered output is byte-identical across
// both the trial pool width (CachedMap parallelism) and the shard worker
// width, fault plan and all.
func TestFigure10ByteIdenticalAcrossWidths(t *testing.T) {
	assertByteIdenticalAcrossWidths(t, func() Artifact { return figure10Small(1) })
	ref := renderAtWidth(t, 1, func() Artifact { return figure10Small(1) })
	for _, w := range []int{2, 8} {
		w := w
		if got := renderAtWidth(t, 1, func() Artifact { return figure10Small(w) }); got != ref {
			t.Fatalf("output differs at shard workers=%d:\n--- workers=1 ---\n%s--- workers=%d ---\n%s",
				w, ref, w, got)
		}
	}
}
