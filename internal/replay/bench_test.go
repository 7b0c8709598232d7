package replay

import (
	"bytes"
	"runtime"
	"sync"
	"testing"
	"time"

	"repro/internal/schemes/registry"
	_ "repro/internal/schemes/registry/all"
)

// Replay throughput benchmarks: frames/sec through the full engine —
// read, parse, normalize into pooled frames, inject through the switch
// with arpwatch deployed. Each format runs single-thread and sharded;
// NDJSON is parse-bound (JSON + base64), which is what
// sharding parallelizes, while a pcap record is copied once, out of the
// reader's buffered window.
const (
	benchFrames  = 120_000
	benchSources = 64
	// 500µs spacing keeps arena epochs ≥ arenaRetention apart so the
	// benchmark measures the pooled path, not heap fallback.
	benchSpacing = 500 * time.Microsecond
)

var benchBlob struct {
	once   sync.Once
	pcap   []byte
	ndjson []byte
}

func benchCaptures(b *testing.B) ([]byte, []byte) {
	benchBlob.once.Do(func() {
		benchBlob.pcap = synthPCAP(b, benchFrames, benchSources, 0, benchSpacing)
		benchBlob.ndjson = synthNDJSON(b, benchFrames, benchSources, 0, benchSpacing)
	})
	return benchBlob.pcap, benchBlob.ndjson
}

func shardWidth() int {
	w := runtime.NumCPU()
	if w > 8 {
		w = 8
	}
	if w < 2 {
		w = 2
	}
	return w
}

func benchReplay(b *testing.B, blob []byte, format string, workers int) {
	st, err := registry.ParseStack(registry.NameArpwatch)
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(len(blob)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		eng, err := New(Config{Stack: st, Workers: workers, Drain: time.Second})
		if err != nil {
			b.Fatal(err)
		}
		var src Source
		if format == "pcap" {
			src, err = NewPCAPSource(bytes.NewReader(blob))
			if err != nil {
				b.Fatal(err)
			}
		} else {
			src = NewNDJSONSource(bytes.NewReader(blob))
		}
		stats, err := eng.Run(src)
		if err != nil {
			b.Fatal(err)
		}
		if stats.Frames != benchFrames {
			b.Fatalf("injected %d frames, want %d", stats.Frames, benchFrames)
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(benchFrames)*float64(b.N)/b.Elapsed().Seconds(), "frames/s")
}

func BenchmarkReplayPCAPSingle(b *testing.B) {
	pcap, _ := benchCaptures(b)
	benchReplay(b, pcap, "pcap", 1)
}

func BenchmarkReplayPCAPSharded(b *testing.B) {
	pcap, _ := benchCaptures(b)
	benchReplay(b, pcap, "pcap", shardWidth())
}

func BenchmarkReplayNDJSONSingle(b *testing.B) {
	_, ndjson := benchCaptures(b)
	benchReplay(b, ndjson, "ndjson", 1)
}

func BenchmarkReplayNDJSONSharded(b *testing.B) {
	_, ndjson := benchCaptures(b)
	benchReplay(b, ndjson, "ndjson", shardWidth())
}
