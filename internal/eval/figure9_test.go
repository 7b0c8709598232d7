package eval

import (
	"bytes"
	"strings"
	"testing"
	"time"
)

// figure9Small renders a scaled-down Figure 9 (still multi-LAN, still
// crossing the backbone) at a given shard worker width.
func figure9Small(workers int) Artifact {
	return Figure9CampusScaling([]int{100, 1000, 4000}, 2, workers, 20*time.Second)
}

// TestFigure9RendersAllSizes: every requested population produces both the
// latency and the throughput series.
func TestFigure9RendersAllSizes(t *testing.T) {
	f := Figure9CampusScaling([]int{100, 1000}, 1, 1, 20*time.Second)
	var buf bytes.Buffer
	if err := f.Render(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"arpwatch_latency_ms", "fabric_frames_per_sec", "100", "1000"} {
		if !strings.Contains(out, want) {
			t.Fatalf("rendered figure missing %q:\n%s", want, out)
		}
	}
}

// TestFigure9DetectsTheMITM: the per-LAN arpwatch deployment actually
// catches the LAN-0 MITM rather than reporting censored horizons.
func TestFigure9DetectsTheMITM(t *testing.T) {
	res := runTrial(trialConfig{scheme: "arpwatch", campus: true, hosts: 500, seed: 1, workers: 1, horizon: 20 * time.Second})
	if !res.detected {
		t.Fatal("campus MITM went undetected")
	}
	if res.latency <= 0 || res.latency > 10*time.Second {
		t.Fatalf("implausible detection latency %v", res.latency)
	}
	if res.hosts < 500 {
		t.Fatalf("campus undersized: %d hosts", res.hosts)
	}
	if res.frames == 0 {
		t.Fatal("fabric carried no frames")
	}
}

// TestFigure9ByteIdenticalAcrossWidths is the cross-shard determinism
// contract end to end: rendered output is byte-identical across both the
// trial pool width (Map parallelism) and the shard worker width.
func TestFigure9ByteIdenticalAcrossWidths(t *testing.T) {
	assertByteIdenticalAcrossWidths(t, func() Artifact { return figure9Small(1) })
	ref := renderAtWidth(t, 1, func() Artifact { return figure9Small(1) })
	for _, w := range []int{2, 8} {
		w := w
		if got := renderAtWidth(t, 1, func() Artifact { return figure9Small(w) }); got != ref {
			t.Fatalf("output differs at shard workers=%d:\n--- workers=1 ---\n%s--- workers=%d ---\n%s",
				w, ref, w, got)
		}
	}
}

// TestFigure9MillionHostBudget: the 10⁶-host point completes in one
// process within the CI bench budget. `make regen` (-trials 10) runs it
// 10 times in Figure 9 and 12 times in Figure 10; a single trial staying
// well under a minute keeps that honest.
func TestFigure9MillionHostBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("million-host point skipped in -short")
	}
	start := time.Now()
	res := runTrial(trialConfig{scheme: "arpwatch", campus: true, hosts: 1_000_000, seed: 1, workers: 0, horizon: 30 * time.Second})
	elapsed := time.Since(start)
	if res.hosts < 1_000_000 {
		t.Fatalf("campus undersized: %d hosts", res.hosts)
	}
	t.Logf("million-host trial: %d hosts, detected=%v latency=%v frames=%d in %v",
		res.hosts, res.detected, res.latency, res.frames, elapsed)
	if !res.detected {
		t.Fatal("million-host MITM went undetected")
	}
	if elapsed > time.Minute {
		t.Fatalf("million-host point took %v, beyond the CI bench budget", elapsed)
	}
}
