package telemetry

import (
	"bytes"
	"encoding/json"
	"math"
	"testing"
	"time"
)

func TestCounterTableDriven(t *testing.T) {
	tests := []struct {
		name string
		ops  func(c *Counter)
		want uint64
	}{
		{"zero", func(c *Counter) {}, 0},
		{"inc", func(c *Counter) { c.Inc(); c.Inc(); c.Inc() }, 3},
		{"add", func(c *Counter) { c.Add(10); c.Add(5) }, 15},
		{"mixed", func(c *Counter) { c.Inc(); c.Add(41) }, 42},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			r := New()
			c := r.Counter("test_total")
			tt.ops(c)
			if got := c.Value(); got != tt.want {
				t.Fatalf("Value() = %d, want %d", got, tt.want)
			}
		})
	}
}

func TestCounterValueReadsWithoutCreating(t *testing.T) {
	r := New()
	r.Counter("hits_total", L("experiment", "table3")).Add(7)

	if got := r.CounterValue("hits_total", L("experiment", "table3")); got != 7 {
		t.Fatalf("CounterValue = %d, want 7", got)
	}
	// Label order must not matter (identities sort labels).
	r.Counter("multi_total", L("b", "2"), L("a", "1")).Inc()
	if got := r.CounterValue("multi_total", L("a", "1"), L("b", "2")); got != 1 {
		t.Fatalf("CounterValue with reordered labels = %d, want 1", got)
	}
	// Reads of unknown identities return zero and register nothing.
	if got := r.CounterValue("hits_total", L("experiment", "nope")); got != 0 {
		t.Fatalf("unknown identity CounterValue = %d, want 0", got)
	}
	if n := len(r.Snapshot().Counters); n != 2 {
		t.Fatalf("read created a counter: %d registered, want 2", n)
	}
	var nilReg *Registry
	if got := nilReg.CounterValue("hits_total"); got != 0 {
		t.Fatalf("nil registry CounterValue = %d, want 0", got)
	}
}

func TestHistogramSnapshotReadsWithoutCreating(t *testing.T) {
	r := New()
	h := r.Histogram("stage_seconds", []float64{0.001, 0.1, 1}, L("stage", "wire"))
	h.Observe(0.0005)
	h.Observe(0.05)
	h.Observe(5)

	// Label order must not matter (identities sort labels); the point must
	// match what Snapshot exports: cumulative buckets, sum, count.
	p, ok := r.HistogramSnapshot("stage_seconds", L("stage", "wire"))
	if !ok {
		t.Fatal("known identity not found")
	}
	if p.Name != "stage_seconds" || p.Labels["stage"] != "wire" {
		t.Fatalf("identity = %s %v", p.Name, p.Labels)
	}
	if p.Count != 3 || math.Abs(p.Sum-5.0505) > 1e-12 {
		t.Fatalf("count=%d sum=%v, want 3 and 5.0505", p.Count, p.Sum)
	}
	wantBuckets := []Bucket{{LE: 0.001, Count: 1}, {LE: 0.1, Count: 2}, {LE: 1, Count: 2}}
	if len(p.Buckets) != len(wantBuckets) {
		t.Fatalf("buckets = %v", p.Buckets)
	}
	for i, b := range wantBuckets {
		if p.Buckets[i] != b {
			t.Fatalf("bucket %d = %+v, want %+v", i, p.Buckets[i], b)
		}
	}

	// Reads of unknown identities report !ok and register nothing.
	if _, ok := r.HistogramSnapshot("stage_seconds", L("stage", "nope")); ok {
		t.Fatal("unknown identity reported ok")
	}
	if n := len(r.Snapshot().Histograms); n != 1 {
		t.Fatalf("read created a histogram: %d registered, want 1", n)
	}
	var nilReg *Registry
	if _, ok := nilReg.HistogramSnapshot("stage_seconds"); ok {
		t.Fatal("nil registry reported ok")
	}
}

func TestGaugeTableDriven(t *testing.T) {
	tests := []struct {
		name string
		ops  func(g *Gauge)
		want float64
	}{
		{"zero", func(g *Gauge) {}, 0},
		{"set", func(g *Gauge) { g.Set(7.5) }, 7.5},
		{"add", func(g *Gauge) { g.Set(2); g.Add(-0.5) }, 1.5},
		{"setmax up", func(g *Gauge) { g.SetMax(3); g.SetMax(9) }, 9},
		{"setmax down ignored", func(g *Gauge) { g.SetMax(9); g.SetMax(3) }, 9},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			r := New()
			g := r.Gauge("test_gauge")
			tt.ops(g)
			if got := g.Value(); got != tt.want {
				t.Fatalf("Value() = %v, want %v", got, tt.want)
			}
		})
	}
}

func TestHistogramTableDriven(t *testing.T) {
	bounds := []float64{0.1, 1, 10}
	tests := []struct {
		name        string
		samples     []float64
		wantBuckets []uint64 // cumulative, per finite bound
		wantCount   uint64
		wantSum     float64
	}{
		{"empty", nil, []uint64{0, 0, 0}, 0, 0},
		{"one per bucket", []float64{0.05, 0.5, 5}, []uint64{1, 2, 3}, 3, 5.55},
		{"boundary is inclusive", []float64{0.1, 1, 10}, []uint64{1, 2, 3}, 3, 11.1},
		{"overflow", []float64{100, 200}, []uint64{0, 0, 0}, 2, 300},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			r := New()
			h := r.Histogram("test_seconds", bounds)
			for _, s := range tt.samples {
				h.Observe(s)
			}
			if h.Count() != tt.wantCount {
				t.Fatalf("Count() = %d, want %d", h.Count(), tt.wantCount)
			}
			if h.Sum() != tt.wantSum {
				t.Fatalf("Sum() = %v, want %v", h.Sum(), tt.wantSum)
			}
			snap := r.Snapshot()
			if len(snap.Histograms) != 1 {
				t.Fatalf("snapshot histograms = %d", len(snap.Histograms))
			}
			for i, want := range tt.wantBuckets {
				if got := snap.Histograms[0].Buckets[i].Count; got != want {
					t.Fatalf("bucket[%d] = %d, want %d", i, got, want)
				}
			}
		})
	}
}

func TestHistogramObserveDuration(t *testing.T) {
	r := New()
	h := r.Histogram("lat_seconds", nil) // default latency buckets
	h.ObserveDuration(50 * time.Microsecond)
	h.ObserveDuration(2 * time.Second)
	if h.Count() != 2 {
		t.Fatalf("Count() = %d", h.Count())
	}
	if h.Sum() != 2.00005 {
		t.Fatalf("Sum() = %v", h.Sum())
	}
}

func TestNilRegistryAndInstrumentsAreNoOps(t *testing.T) {
	var r *Registry
	c := r.Counter("x_total")
	g := r.Gauge("x")
	h := r.Histogram("x_seconds", nil)
	c.Inc()
	c.Add(5)
	g.Set(1)
	g.SetMax(2)
	h.Observe(3)
	h.ObserveDuration(time.Second)
	if c.Value() != 0 || g.Value() != 0 || h.Count() != 0 {
		t.Fatal("nil instruments must read zero")
	}
	r.Events().Log(SevInfo, "test", "ignored")
	r.Events().Infof("test", "ignored %d", 1)
	if rec := r.EnableCausal(nil, 0); rec != nil || r.Causal() != nil {
		t.Fatalf("nil registry handed out a causal recorder: %v", rec)
	}
	if got := r.Events().Events(); got != nil {
		t.Fatalf("nil event log events = %v", got)
	}
	snap := r.Snapshot()
	if len(snap.Counters)+len(snap.Gauges)+len(snap.Histograms) != 0 {
		t.Fatal("nil snapshot must be empty")
	}
	var buf bytes.Buffer
	if err := r.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	if buf.Len() != 0 {
		t.Fatalf("nil registry wrote %q", buf.String())
	}
}

func TestRegistryIdentity(t *testing.T) {
	r := New()
	a := r.Counter("hits_total", L("host", "h1"))
	b := r.Counter("hits_total", L("host", "h1"))
	c := r.Counter("hits_total", L("host", "h2"))
	if a != b {
		t.Fatal("same identity must return the same counter")
	}
	if a == c {
		t.Fatal("different labels must return different counters")
	}
	// Label order must not matter.
	d := r.Counter("multi_total", L("b", "2"), L("a", "1"))
	e := r.Counter("multi_total", L("a", "1"), L("b", "2"))
	if d != e {
		t.Fatal("label order must not change identity")
	}
}

func TestSnapshotDeterministicOrderAndJSON(t *testing.T) {
	r := New()
	r.Counter("z_total").Add(1)
	r.Counter("a_total").Add(2)
	r.Gauge("m").Set(3)
	r.Histogram("h_seconds", []float64{1}).Observe(0.5)
	snap := r.Snapshot()
	if snap.Counters[0].Name != "a_total" || snap.Counters[1].Name != "z_total" {
		t.Fatalf("counters not sorted: %+v", snap.Counters)
	}
	var buf bytes.Buffer
	if err := r.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var decoded Snapshot
	if err := json.Unmarshal(buf.Bytes(), &decoded); err != nil {
		t.Fatalf("snapshot JSON invalid: %v", err)
	}
	if len(decoded.Counters) != 2 || decoded.Counters[1].Value != 1 {
		t.Fatalf("round-trip mismatch: %+v", decoded.Counters)
	}
}

// clockCtx is a causal.Context over an adjustable virtual clock.
type clockCtx struct {
	now   time.Duration
	cause uint64
}

func (c *clockCtx) Now() time.Duration { return c.now }
func (c *clockCtx) Cause() uint64      { return c.cause }
func (c *clockCtx) SetCause(id uint64) (prev uint64) {
	prev, c.cause = c.cause, id
	return prev
}

// TestSetNowFeedsSpansAndEvents: events are stamped by the SetNow clock,
// and a finished causal span is mirrored into the event log at that time.
func TestSetNowFeedsSpansAndEvents(t *testing.T) {
	r := New()
	ctx := &clockCtx{}
	r.SetNow(ctx.Now)
	rec := r.EnableCausal(ctx, 0)
	if r.Causal() != rec {
		t.Fatal("Causal() does not return the enabled recorder")
	}
	sp := rec.Begin("stack", "resolve")
	ctx.now = 3 * time.Second
	sp.End()
	spans := rec.Spans()
	if len(spans) != 1 || spans[0].Duration() != 3*time.Second {
		t.Fatalf("span duration = %+v", spans)
	}
	r.Events().Log(SevInfo, "c", "m")
	evs := r.Events().Events()
	if len(evs) != 2 || evs[0].Component != "causal" || evs[0].Message != "stack/resolve" {
		t.Fatalf("span not mirrored into the event log: %+v", evs)
	}
	for _, ev := range evs {
		if ev.At != 3*time.Second {
			t.Fatalf("event timestamp = %+v", ev)
		}
	}
}
