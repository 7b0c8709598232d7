package replay

import (
	"bytes"
	"runtime"
	"testing"
	"time"

	"repro/internal/schemes/registry"
	_ "repro/internal/schemes/registry/all"
)

// TestReplaySteadyStateAllocFree gates the steady-state ingest pipeline
// at width 1 on pcap: after one warmup pass has attached every injector
// NIC, grown the CAM, carved the first arena epochs, pooled the round
// storage and sized the scheme's state, replaying further traffic from
// the same stations must stay near allocation-free. The budget is
// TestReplayShardedAllocFree's 0.05 allocs/frame, so both formats and
// both kinds of width are held to one bar: it leaves room for the
// amortized costs inherent to unbounded streaming — fresh arena slabs on
// rotation, per-Run pipeline state — while catching any per-frame
// allocation outright.
func TestReplaySteadyStateAllocFree(t *testing.T) {
	const (
		warmFrames = 20000
		hotFrames  = 40000
		sources    = 32
		// 1ms spacing puts epoch boundaries ≥ arenaRetention apart, so
		// arena rotation actually recycles instead of degrading to heap.
		spacing = time.Millisecond
	)
	warm := synthPCAP(t, warmFrames, sources, 0, spacing)
	// The hot capture resumes past the warm horizon (warm end + drain) so
	// its timestamps keep the virtual clock monotonic.
	hot := synthPCAP(t, hotFrames, sources, time.Duration(warmFrames)*spacing+15*time.Second, spacing)

	st, err := registry.ParseStack(registry.NameArpwatch)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := New(Config{Stack: st})
	if err != nil {
		t.Fatal(err)
	}
	warmSrc, err := NewPCAPSource(bytes.NewReader(warm))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Run(warmSrc); err != nil {
		t.Fatal(err)
	}
	hotSrc, err := NewPCAPSource(bytes.NewReader(hot))
	if err != nil {
		t.Fatal(err)
	}

	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	stats, err := eng.Run(hotSrc)
	runtime.ReadMemStats(&m1)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Frames != warmFrames+hotFrames {
		t.Fatalf("injected %d frames, want %d", stats.Frames, warmFrames+hotFrames)
	}
	perFrame := float64(m1.Mallocs-m0.Mallocs) / hotFrames
	t.Logf("steady state: %.4f allocs/frame (%d allocs / %d frames)",
		perFrame, m1.Mallocs-m0.Mallocs, hotFrames)
	if perFrame > 0.05 {
		t.Fatalf("steady-state replay: %.4f allocs/frame, budget 0.05", perFrame)
	}
}

// TestReplayShardedAllocFree gates the NDJSON pipeline the same way at
// width 2, where a helper may parse alongside the injector: once a first
// Run has pooled its round storage and warmed the engine, a second Run
// parses into the pooled rounds' wire slabs and must stay within 0.05
// allocations per record — per Run and per round costs only, nothing per
// record.
func TestReplayShardedAllocFree(t *testing.T) {
	const (
		warmFrames = 20000
		hotFrames  = 40000
		sources    = 32
		spacing    = time.Millisecond
	)
	warm := synthNDJSON(t, warmFrames, sources, 0, spacing)
	hot := synthNDJSON(t, hotFrames, sources, time.Duration(warmFrames)*spacing+15*time.Second, spacing)

	st, err := registry.ParseStack(registry.NameArpwatch)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := New(Config{Stack: st, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Run(NewNDJSONSource(bytes.NewReader(warm))); err != nil {
		t.Fatal(err)
	}
	hotSrc := NewNDJSONSource(bytes.NewReader(hot))

	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	stats, err := eng.Run(hotSrc)
	runtime.ReadMemStats(&m1)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Frames != warmFrames+hotFrames {
		t.Fatalf("injected %d frames, want %d", stats.Frames, warmFrames+hotFrames)
	}
	perRecord := float64(m1.Mallocs-m0.Mallocs) / hotFrames
	t.Logf("sharded steady state: %.4f allocs/record (%d allocs / %d records)",
		perRecord, m1.Mallocs-m0.Mallocs, hotFrames)
	if perRecord > 0.05 {
		t.Fatalf("sharded replay: %.4f allocs/record, budget 0.05", perRecord)
	}
}
