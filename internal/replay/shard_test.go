package replay

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/arppkt"
	"repro/internal/ethaddr"
	"repro/internal/frame"
	"repro/internal/netsim"
	"repro/internal/schemes/registry"
	"repro/internal/trace"
)

// parityStack is deployed by the pipeline parity tests: two passive
// schemes that alert on the rogue claims paritySynth plants.
const parityStack = registry.NameArpwatch + "+" + registry.NameSnortLike

// paritySynth is synthCapture's benign storm from 32 stations with a rogue
// station claiming one of their addresses every 701st frame, so the
// replay raises alerts all along the stream.
func paritySynth(tb testing.TB, n int, start time.Duration) []string {
	tb.Helper()
	macs, ips := synthStations(32)
	rogue := ethaddr.MustParseMAC("02:66:66:66:66:66")
	c := trace.NewCapture(n)
	tap := c.Tap()
	for j := 0; j < n; j++ {
		src := j % len(macs)
		next := (src + 1) % len(macs)
		f := &frame.Frame{Dst: ethaddr.BroadcastMAC, Src: macs[src], Type: frame.TypeARP}
		switch {
		case j%701 == 700:
			f.Src = rogue
			f.Payload = arppkt.NewGratuitousReply(rogue, ips[src]).Encode()
		case j%3 == 0:
			f.Payload = arppkt.NewGratuitousRequest(macs[src], ips[src]).Encode()
		case j%3 == 1:
			f.Payload = arppkt.NewRequest(macs[src], ips[src], ips[next]).Encode()
		default:
			f.Dst = macs[next]
			f.Payload = arppkt.NewReply(macs[src], ips[src], macs[next], ips[next]).Encode()
		}
		tap(netsim.TapEvent{At: start + time.Duration(j)*time.Millisecond, Frame: f, WireLen: f.WireLen()})
	}
	var buf bytes.Buffer
	if err := c.WriteNDJSON(&buf); err != nil {
		tb.Fatal(err)
	}
	return strings.SplitAfter(strings.TrimSuffix(buf.String(), "\n"), "\n")
}

// withLongInfo returns line with its info member padded to about n bytes:
// a valid, canonical line whose raw length closes rounds and chunks on
// their byte bounds rather than their item counts.
func withLongInfo(line string, n int) string {
	return strings.Replace(line, `"info":"`, `"info":"`+strings.Repeat("x", n), 1)
}

// malformedLines are the kinds of bad record a stream can carry: not JSON,
// JSON whose wire is too short to be Ethernet, JSON without wire bytes,
// and a canonical-looking line with an escape the fast path hands to the
// decoder.
var malformedLines = []string{
	"not json at all\n",
	`{"at":1000,"src":"02:00:00:00:00:01","wire":"AAAA"}` + "\n",
	`{"at":1000,"port":1,"wire":""}` + "\n",
	`{"at":1000,"port":1,"info":"esc\"aped","wire":"AA=A"}` + "\n",
}

// parityStream builds a stream of n records with malformed lines at the
// chunk and round edges of an item-bound layout, and long lines that move
// later rounds onto their byte bound, carrying the overflowing line over.
func parityStream(tb testing.TB, n int, start time.Duration) []byte {
	tb.Helper()
	lines := paritySynth(tb, n, start)
	bad := map[int]bool{}
	for _, edge := range []int{0, chunkItems, 2 * chunkItems, roundItems, 2 * roundItems} {
		for _, d := range []int{-1, 0, 1} {
			if i := edge + d; i >= 0 && i < len(lines) {
				bad[i] = true
			}
		}
	}
	var b strings.Builder
	for i, line := range lines {
		if bad[i] {
			b.WriteString(malformedLines[i%len(malformedLines)])
		}
		switch {
		case i > roundItems && i%997 == 0:
			line = withLongInfo(line, roundBytes/3)
		case i > roundItems && i%89 == 0:
			line = withLongInfo(line, chunkBytes/2)
		}
		b.WriteString(line)
	}
	return []byte(b.String())
}

// replayResult is everything a Run reports: the alert stream, the stats
// and the error.
type replayResult struct {
	alerts string
	stats  Stats
	err    string
}

func replayStream(tb testing.TB, r io.Reader, workers int) replayResult {
	tb.Helper()
	return replayWith(tb, r, workers, (*Engine).Run)
}

// replayWith replays r through a fresh engine at the given width, by run.
func replayWith(tb testing.TB, r io.Reader, workers int, run func(*Engine, Source) (Stats, error)) replayResult {
	tb.Helper()
	st, err := registry.ParseStack(parityStack)
	if err != nil {
		tb.Fatal(err)
	}
	var alerts bytes.Buffer
	eng, err := New(Config{Stack: st, Workers: workers, Alerts: &alerts})
	if err != nil {
		tb.Fatal(err)
	}
	stats, err := run(eng, NewNDJSONSource(r))
	res := replayResult{alerts: alerts.String(), stats: stats}
	if err != nil {
		res.err = err.Error()
	}
	return res
}

// emptySource is a stream with no records.
type emptySource struct{}

func (emptySource) ReadRaw(buf []byte) ([]byte, time.Duration, error) { return buf, 0, io.EOF }

func (emptySource) Parse([]byte, time.Duration, *trace.WireRecord) error { return nil }

// referenceRun is the roundless ingest loop the parity tests hold the
// pipeline to: read, parse and inject one record at a time on the
// caller's goroutine, through the same ReadRaw, Parse and inject the
// pipeline composes, with no rounds or chunks to cut. After the stream
// ends it drains and flushes by running the engine over an empty source,
// exactly as Run finishes; a read error returns before the drain, as Run's
// does.
func referenceRun(e *Engine, src Source) (Stats, error) {
	var rec trace.WireRecord
	var buf []byte
	for {
		item, at, err := src.ReadRaw(buf[:0])
		buf = item
		if err == io.EOF {
			return e.Run(emptySource{})
		}
		if err != nil {
			return e.stats, err
		}
		if err := src.Parse(item, at, &rec); err != nil {
			e.stats.Malformed++
			e.mMalformed.Inc()
			continue
		}
		e.inject(&rec)
	}
}

// checkParity replays a fresh stream from reader through referenceRun,
// then through the pipeline at widths 0, 1, 2, 3 and 8 under GOMAXPROCS 1
// and 2, and requires the same alerts, stats and error from every run. It
// returns the reference result.
func checkParity(t *testing.T, name string, reader func() io.Reader) replayResult {
	t.Helper()
	want := replayWith(t, reader(), 1, referenceRun)
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, procs := range []int{1, 2} {
		runtime.GOMAXPROCS(procs)
		for _, workers := range []int{0, 1, 2, 3, 8} {
			got := replayStream(t, reader(), workers)
			if got.alerts != want.alerts {
				t.Errorf("%s GOMAXPROCS=%d workers=%d: alert stream differs from the reference loop\ngot:\n%s\nwant:\n%s",
					name, procs, workers, got.alerts, want.alerts)
			}
			if got.stats != want.stats || got.err != want.err {
				t.Errorf("%s GOMAXPROCS=%d workers=%d: stats %+v, error %q; reference %+v, %q",
					name, procs, workers, got.stats, got.err, want.stats, want.err)
			}
		}
	}
	return want
}

// TestShardedParity pins the pipeline to the reference loop byte for byte
// on a stream that spans several rounds, with malformed lines on chunk
// and round edges and long lines that close rounds on their byte bound.
func TestShardedParity(t *testing.T) {
	blob := parityStream(t, 3*roundItems+roundItems/2, 0)
	want := checkParity(t, "parity", func() io.Reader { return bytes.NewReader(blob) })
	if want.stats.Alerts == 0 || want.stats.Malformed == 0 || want.stats.Frames == 0 {
		t.Fatalf("stream exercises too little: %+v", want.stats)
	}
}

// failAfter yields data, then fails every further read.
type failAfter struct {
	data []byte
	err  error
}

func (f *failAfter) Read(p []byte) (int, error) {
	if len(f.data) == 0 {
		return 0, f.err
	}
	n := copy(p, f.data)
	f.data = f.data[n:]
	return n, nil
}

// TestShardedReadErrorMidRound pins that a read failure in the middle of
// a round surfaces from every width with the records before it injected,
// exactly as from the reference loop.
func TestShardedReadErrorMidRound(t *testing.T) {
	lines := paritySynth(t, roundItems+roundItems/2, 0)
	blob := []byte(strings.Join(lines[:roundItems+roundItems/3], ""))
	boom := errors.New("capture truncated")
	want := checkParity(t, "read error", func() io.Reader { return &failAfter{data: blob, err: boom} })
	if !strings.Contains(want.err, boom.Error()) || want.stats.Frames == 0 {
		t.Fatalf("reference replay: stats %+v, error %q", want.stats, want.err)
	}
}

// TestShardedRecycledRounds runs replays back to back, each picking up
// the rounds the previous one left on the pool, and pins each to the
// reference loop: a long-line stream, then a short stream whose
// malformed lines land where the previous fill held valid records.
func TestShardedRecycledRounds(t *testing.T) {
	streams := [][]byte{
		parityStream(t, 2*roundItems+7, 0),
		[]byte(strings.Join(malformedLines, "") + strings.Join(paritySynth(t, 300, time.Hour), "")),
		parityStream(t, roundItems+1, 0),
	}
	for i, blob := range streams {
		checkParity(t, fmt.Sprintf("stream %d", i), func() io.Reader { return bytes.NewReader(blob) })
	}
	roundPool.mu.Lock()
	pooled := len(roundPool.free)
	roundPool.mu.Unlock()
	if pooled == 0 {
		t.Fatal("no round storage left on the pool after pipeline runs")
	}
}

// itemSource yields one item per listed length.
type itemSource struct{ sizes []int }

func (s *itemSource) ReadRaw(buf []byte) ([]byte, time.Duration, error) {
	if len(s.sizes) == 0 {
		return buf, 0, io.EOF
	}
	n := s.sizes[0]
	s.sizes = s.sizes[1:]
	return append(buf, make([]byte, n)...), 0, nil
}

func (s *itemSource) Parse([]byte, time.Duration, *trace.WireRecord) error { return nil }

// TestRoundBounds pins how fills cut a stream: a round closes at
// roundItems items or before the item that would take it past roundBytes,
// which then opens the next round — alone when it is longer than
// roundBytes itself — and chunks close at chunkItems or chunkBytes.
func TestRoundBounds(t *testing.T) {
	big := roundBytes + 10
	third := roundBytes / 3
	sizes := []int{third, third, third, third, big, 100, big}
	for i := 0; i < roundItems+5; i++ {
		sizes = append(sizes, 10)
	}
	p := &pipeline{src: &itemSource{sizes: sizes}}
	r := getRound()
	defer putRound(r)
	var rounds [][]int
	for end := false; !end; {
		end = p.read(r)
		var lens []int
		for _, it := range r.items {
			lens = append(lens, it.end-it.off)
		}
		rounds = append(rounds, lens)
		for c := range r.chunks {
			items := r.chunks[c] - r.chunkStart(c)
			size := r.items[r.chunks[c]-1].end - r.items[r.chunkStart(c)].off
			last := c == len(r.chunks)-1
			if items > chunkItems || (!last && items < chunkItems && size < chunkBytes) {
				t.Errorf("round %d chunk %d: %d items, %d bytes", len(rounds)-1, c, items, size)
			}
		}
		if n := len(r.items); n > 0 && r.chunks[len(r.chunks)-1] != n {
			t.Errorf("round %d: chunks end at item %d of %d", len(rounds)-1, r.chunks[len(r.chunks)-1], n)
		}
	}
	want := [][]int{{third, third, third}, {third}, {big}, {100}, {big}}
	for i, w := range want {
		if fmt.Sprint(rounds[i]) != fmt.Sprint(w) {
			t.Errorf("round %d holds items %v, want %v", i, rounds[i], w)
		}
	}
	if n := len(rounds[len(want)]); n != roundItems {
		t.Errorf("round %d holds %d small items, want %d", len(want), n, roundItems)
	}
	if n := len(rounds[len(want)+1]); n != 5 {
		t.Errorf("last round holds %d items, want 5", n)
	}
}

// TestShardedLongLinesBounded pins that round storage is bounded by
// bytes, not only by record count: a stream of long but valid lines must
// not be buffered a round of 4096 records at a time. After a first Run
// has pooled its rounds, a second Run over 16 MiB of 64 KiB lines
// allocates far less than its input.
func TestShardedLongLinesBounded(t *testing.T) {
	lines := paritySynth(t, 256, 0)
	var b strings.Builder
	for _, line := range lines {
		b.WriteString(withLongInfo(line, 64<<10))
	}
	blob := []byte(b.String())
	run := func() (Stats, uint64) {
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		res := replayStream(t, bytes.NewReader(blob), 2)
		runtime.ReadMemStats(&m1)
		if res.err != "" {
			t.Fatal(res.err)
		}
		return res.stats, m1.TotalAlloc - m0.TotalAlloc
	}
	run()
	stats, alloc := run()
	t.Logf("%d records, %d MiB of input: second Run allocated %.2f MiB", stats.Frames, len(blob)>>20, float64(alloc)/(1<<20))
	if stats.Frames != uint64(len(lines)) {
		t.Fatalf("injected %d of %d records", stats.Frames, len(lines))
	}
	if alloc > uint64(len(blob))/4 {
		t.Fatalf("second Run allocated %d bytes for %d bytes of input", alloc, len(blob))
	}
}
