// Package telemetry is the framework's unified observability layer: a
// zero-dependency metrics registry (counters, gauges, histograms keyed by
// component labels), a structured event log with severity levels and
// bounded ring retention, and (optionally) the causal span recorder of
// package causal, which every span in the framework goes through.
//
// The design constraint is the single-threaded deterministic simulator:
// every instrument is a plain pointer whose methods are nil-safe no-ops, so
// an uninstrumented component pays one nil check per site and nothing else,
// and an instrumented run stays deterministic because nothing here consults
// wall clocks or spawns goroutines. Virtual time enters through a clock
// function (usually sim.Scheduler.Now) installed with Registry.SetNow.
//
// A Registry is owned by exactly one simulation and is not safe for
// concurrent use, matching the engine it instruments.
package telemetry

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"strconv"
	"strings"
	"time"

	"repro/internal/telemetry/causal"
)

// Label is one key=value dimension attached to a metric.
type Label struct {
	Key   string
	Value string
}

// L is shorthand for constructing a Label.
func L(key, value string) Label { return Label{Key: key, Value: value} }

// Counter is a monotonically increasing count. The nil Counter is a valid
// no-op, which is how uninstrumented components stay free.
type Counter struct{ v uint64 }

// Inc adds one.
func (c *Counter) Inc() {
	if c != nil {
		c.v++
	}
}

// Add adds n.
func (c *Counter) Add(n uint64) {
	if c != nil {
		c.v += n
	}
}

// Value returns the current count (0 for a nil Counter).
func (c *Counter) Value() uint64 {
	if c == nil {
		return 0
	}
	return c.v
}

// Gauge is a value that can move both ways. The nil Gauge is a valid no-op.
type Gauge struct{ v float64 }

// Set replaces the value.
func (g *Gauge) Set(v float64) {
	if g != nil {
		g.v = v
	}
}

// Add moves the value by delta.
func (g *Gauge) Add(delta float64) {
	if g != nil {
		g.v += delta
	}
}

// SetMax keeps the high-water mark: the gauge only moves up.
func (g *Gauge) SetMax(v float64) {
	if g != nil && v > g.v {
		g.v = v
	}
}

// Value returns the current value (0 for a nil Gauge).
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	return g.v
}

// Histogram is a fixed-bucket distribution. Bounds are inclusive upper
// limits ("le" in Prometheus terms); one implicit overflow bucket catches
// everything above the last bound. The nil Histogram is a valid no-op.
type Histogram struct {
	bounds []float64
	counts []uint64 // len(bounds)+1; the last slot is the +Inf bucket
	sum    float64
	count  uint64
}

// Observe records one sample.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	i := sort.SearchFloat64s(h.bounds, v)
	h.counts[i]++
	h.sum += v
	h.count++
}

// ObserveDuration records a virtual-time duration in seconds, the unit every
// latency histogram in the framework uses.
func (h *Histogram) ObserveDuration(d time.Duration) { h.Observe(d.Seconds()) }

// Count returns the number of samples (0 for a nil Histogram).
func (h *Histogram) Count() uint64 {
	if h == nil {
		return 0
	}
	return h.count
}

// Sum returns the sum of samples (0 for a nil Histogram).
func (h *Histogram) Sum() float64 {
	if h == nil {
		return 0
	}
	return h.sum
}

// LatencyBuckets are the default histogram bounds for resolution and
// detection latencies, in seconds. They are virtual-time-aware: the
// simulated LAN resolves in tens of microseconds on an idle segment and in
// whole seconds when retries and verification windows stack, so the buckets
// span 10µs to 10s geometrically.
var LatencyBuckets = []float64{
	0.00001, 0.000025, 0.00005, 0.0001, 0.00025, 0.0005,
	0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5,
	1, 2.5, 5, 10,
}

// entry pairs an instrument with its identity for export.
type entry[T any] struct {
	name   string
	labels []Label
	m      T
}

// Registry holds every instrument of one simulation plus its event log and
// causal recorder. The zero value is not usable; construct with New. All
// methods are nil-safe: a nil *Registry hands out nil instruments, so
// instrumentation can be wired unconditionally.
type Registry struct {
	now        func() time.Duration
	counters   map[string]*entry[*Counter]
	gauges     map[string]*entry[*Gauge]
	histograms map[string]*entry[*Histogram]
	events     *EventLog
	causal     *causal.Recorder
}

// New creates an empty registry whose clock reads zero until SetNow.
func New() *Registry {
	r := &Registry{
		counters:   make(map[string]*entry[*Counter]),
		gauges:     make(map[string]*entry[*Gauge]),
		histograms: make(map[string]*entry[*Histogram]),
	}
	r.now = func() time.Duration { return 0 }
	r.events = newEventLog(func() time.Duration { return r.now() }, 4096)
	return r
}

// SetNow installs the virtual clock that stamps events; pass
// sim.Scheduler.Now. sim.Scheduler.Instrument does this automatically.
func (r *Registry) SetNow(fn func() time.Duration) {
	if r != nil && fn != nil {
		r.now = fn
	}
}

// Events returns the registry's event log (nil for a nil Registry).
func (r *Registry) Events() *EventLog {
	if r == nil {
		return nil
	}
	return r.events
}

// EnableCausal attaches a causal span recorder to the registry, bound to
// the given propagation context (a *sim.Scheduler) and retaining at most
// limit finished spans (causal.DefaultLimit when <= 0). Every finished span
// is mirrored into the event log as a debug-severity "causal" event, so the
// NDJSON event stream interleaves hop spans with the rest of the run's
// structured log. Calling it again replaces the recorder. A nil Registry
// returns nil.
func (r *Registry) EnableCausal(ctx causal.Context, limit int) *causal.Recorder {
	if r == nil {
		return nil
	}
	rec := causal.New(ctx, limit)
	rec.OnFinish(func(sp causal.Span) {
		r.events.Log(SevDebug, "causal", sp.Kind+"/"+sp.Name,
			"trace", strconv.FormatUint(uint64(sp.Trace), 10),
			"span", strconv.FormatUint(uint64(sp.ID), 10),
			"parent", strconv.FormatUint(uint64(sp.Parent), 10),
			"start", sp.Start.String(),
			"end", sp.End.String(),
		)
	})
	r.causal = rec
	return rec
}

// Causal returns the recorder installed by EnableCausal — nil when tracing
// is disabled, which every call site treats as the no-op recorder.
func (r *Registry) Causal() *causal.Recorder {
	if r == nil {
		return nil
	}
	return r.causal
}

// metricID builds the registry key: name plus sorted labels.
func metricID(name string, labels []Label) string {
	if len(labels) == 0 {
		return name
	}
	var sb strings.Builder
	sb.WriteString(name)
	for _, l := range labels {
		sb.WriteByte(0xff)
		sb.WriteString(l.Key)
		sb.WriteByte('=')
		sb.WriteString(l.Value)
	}
	return sb.String()
}

// sortLabels returns a copy of labels sorted by key.
func sortLabels(labels []Label) []Label {
	out := make([]Label, len(labels))
	copy(out, labels)
	sort.Slice(out, func(i, j int) bool { return out[i].Key < out[j].Key })
	return out
}

// Counter returns (creating if needed) the counter with this identity.
func (r *Registry) Counter(name string, labels ...Label) *Counter {
	if r == nil {
		return nil
	}
	labels = sortLabels(labels)
	id := metricID(name, labels)
	if e, ok := r.counters[id]; ok {
		return e.m
	}
	e := &entry[*Counter]{name: name, labels: labels, m: &Counter{}}
	r.counters[id] = e
	return e.m
}

// CounterValue reads the current value of the counter with this identity
// without creating it: zero for an unknown identity or a nil registry. It
// is the read-side counterpart of Counter for assertions and summaries.
func (r *Registry) CounterValue(name string, labels ...Label) uint64 {
	if r == nil {
		return 0
	}
	labels = sortLabels(labels)
	if e, ok := r.counters[metricID(name, labels)]; ok {
		return e.m.Value()
	}
	return 0
}

// Gauge returns (creating if needed) the gauge with this identity.
func (r *Registry) Gauge(name string, labels ...Label) *Gauge {
	if r == nil {
		return nil
	}
	labels = sortLabels(labels)
	id := metricID(name, labels)
	if e, ok := r.gauges[id]; ok {
		return e.m
	}
	e := &entry[*Gauge]{name: name, labels: labels, m: &Gauge{}}
	r.gauges[id] = e
	return e.m
}

// Histogram returns (creating if needed) the histogram with this identity.
// bounds must be sorted ascending; nil selects LatencyBuckets. Bounds are
// fixed on first registration; later calls with the same identity return
// the existing instrument regardless of bounds.
func (r *Registry) Histogram(name string, bounds []float64, labels ...Label) *Histogram {
	if r == nil {
		return nil
	}
	labels = sortLabels(labels)
	id := metricID(name, labels)
	if e, ok := r.histograms[id]; ok {
		return e.m
	}
	if bounds == nil {
		bounds = LatencyBuckets
	}
	b := make([]float64, len(bounds))
	copy(b, bounds)
	e := &entry[*Histogram]{name: name, labels: labels, m: &Histogram{
		bounds: b,
		counts: make([]uint64, len(b)+1),
	}}
	r.histograms[id] = e
	return e.m
}

// HistogramSnapshot reads the current state of the histogram with this
// identity without creating it, as the same cumulative-bucket point
// Snapshot exports. ok is false for an unknown identity or a nil registry.
// It is the read-side counterpart of Histogram, mirroring CounterValue.
func (r *Registry) HistogramSnapshot(name string, labels ...Label) (HistogramPoint, bool) {
	if r == nil {
		return HistogramPoint{}, false
	}
	labels = sortLabels(labels)
	e, ok := r.histograms[metricID(name, labels)]
	if !ok {
		return HistogramPoint{}, false
	}
	h := e.m
	buckets := make([]Bucket, len(h.bounds))
	var cum uint64
	for i, b := range h.bounds {
		cum += h.counts[i]
		buckets[i] = Bucket{LE: b, Count: cum}
	}
	return HistogramPoint{
		Name: e.name, Labels: labelMap(e.labels),
		Buckets: buckets, Sum: h.sum, Count: h.count,
	}, true
}

// CounterPoint is one exported counter sample.
type CounterPoint struct {
	Name   string            `json:"name"`
	Labels map[string]string `json:"labels,omitempty"`
	Value  uint64            `json:"value"`
}

// GaugePoint is one exported gauge sample.
type GaugePoint struct {
	Name   string            `json:"name"`
	Labels map[string]string `json:"labels,omitempty"`
	Value  float64           `json:"value"`
}

// Bucket is one cumulative histogram bucket: the count of samples ≤ LE.
type Bucket struct {
	LE    float64 `json:"le"`
	Count uint64  `json:"count"`
}

// HistogramPoint is one exported histogram.
type HistogramPoint struct {
	Name    string            `json:"name"`
	Labels  map[string]string `json:"labels,omitempty"`
	Buckets []Bucket          `json:"buckets"`
	Sum     float64           `json:"sum"`
	Count   uint64            `json:"count"`
}

// Snapshot is a point-in-time export of everything the registry holds,
// ordered deterministically so snapshots diff cleanly across runs.
type Snapshot struct {
	Counters   []CounterPoint   `json:"counters"`
	Gauges     []GaugePoint     `json:"gauges"`
	Histograms []HistogramPoint `json:"histograms"`
	Events     EventStats       `json:"events"`
}

// labelMap converts sorted labels for JSON export.
func labelMap(labels []Label) map[string]string {
	if len(labels) == 0 {
		return nil
	}
	m := make(map[string]string, len(labels))
	for _, l := range labels {
		m[l.Key] = l.Value
	}
	return m
}

// Snapshot captures the current state of every instrument. A nil Registry
// yields an empty (but valid) snapshot.
func (r *Registry) Snapshot() Snapshot {
	var snap Snapshot
	if r == nil {
		return snap
	}
	for _, id := range sortedKeys(r.counters) {
		e := r.counters[id]
		snap.Counters = append(snap.Counters, CounterPoint{
			Name: e.name, Labels: labelMap(e.labels), Value: e.m.Value(),
		})
	}
	for _, id := range sortedKeys(r.gauges) {
		e := r.gauges[id]
		snap.Gauges = append(snap.Gauges, GaugePoint{
			Name: e.name, Labels: labelMap(e.labels), Value: e.m.Value(),
		})
	}
	for _, id := range sortedKeys(r.histograms) {
		e := r.histograms[id]
		h := e.m
		buckets := make([]Bucket, len(h.bounds))
		var cum uint64
		for i, b := range h.bounds {
			cum += h.counts[i]
			buckets[i] = Bucket{LE: b, Count: cum}
		}
		snap.Histograms = append(snap.Histograms, HistogramPoint{
			Name: e.name, Labels: labelMap(e.labels),
			Buckets: buckets, Sum: h.sum, Count: h.count,
		})
	}
	snap.Events = r.events.Stats()
	return snap
}

// sortedKeys returns the map keys in sorted order.
func sortedKeys[T any](m map[string]*entry[T]) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// WriteJSON writes the snapshot as one indented JSON document.
func (r *Registry) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(r.Snapshot()); err != nil {
		return fmt.Errorf("encode telemetry snapshot: %w", err)
	}
	return nil
}

// WriteFile exports the registry to path, choosing the format by suffix:
// Prometheus text exposition for ".prom", a JSON snapshot otherwise. This
// is what the CLIs' -metrics flag calls.
func (r *Registry) WriteFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("create metrics file: %w", err)
	}
	defer f.Close()
	if strings.HasSuffix(path, ".prom") {
		err = r.WritePrometheus(f)
	} else {
		err = r.WriteJSON(f)
	}
	if err != nil {
		return err
	}
	return f.Close()
}
