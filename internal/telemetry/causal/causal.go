// Package causal records cause-and-effect span trees across the simulated
// LAN: an injected attack frame, the link hops it takes, the switch that
// forwards it, the victim cache mutation it causes, and the alert a scheme
// eventually raises all share one trace, hop-stamped in virtual time.
//
// The propagation mechanism is deliberately minimal. The scheduler carries a
// single "cause" word (the ID of the active span); scheduling an event
// captures it and the run loop restores it before each callback, so causality
// flows across timers, link latencies, and probe windows without any
// component threading context by hand. Components that open spans do so
// through a *Recorder; a nil Recorder is a valid no-op, so the disabled path
// costs one pointer check and zero allocations.
//
// The package is self-contained — internal/telemetry imports it (a Registry
// can own a Recorder), never the reverse.
package causal

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"time"
)

// ID identifies a span (or a trace, which is named by its root span's ID).
// Zero means "none": no trace is active.
type ID uint64

// Attr is one key/value annotation on a span. Attrs are kept as an ordered
// slice (insertion order) but serialize as a JSON object with sorted keys so
// encoded output is deterministic.
type Attr struct {
	Key   string
	Value string
}

// Span is one completed hop in a trace. Start and End are virtual
// timestamps; instantaneous spans (cache mutations, alerts) have Start==End.
type Span struct {
	Trace  ID
	ID     ID
	Parent ID
	Kind   string
	Name   string
	Start  time.Duration
	End    time.Duration
	Attrs  []Attr
}

// Duration returns the span's virtual extent.
func (s Span) Duration() time.Duration { return s.End - s.Start }

// Attr returns the value of the named attribute ("" when absent).
func (s Span) Attr(key string) string {
	for _, a := range s.Attrs {
		if a.Key == key {
			return a.Value
		}
	}
	return ""
}

// spanJSON is the NDJSON wire schema for a span. Durations encode as
// nanosecond integers; attrs as an object (encoding/json sorts the keys).
type spanJSON struct {
	Trace  ID                `json:"trace"`
	Span   ID                `json:"span"`
	Parent ID                `json:"parent,omitempty"`
	Kind   string            `json:"kind"`
	Name   string            `json:"name"`
	Start  time.Duration     `json:"start"`
	End    time.Duration     `json:"end"`
	Attrs  map[string]string `json:"attrs,omitempty"`
}

// MarshalJSON encodes the span in the NDJSON schema.
func (s Span) MarshalJSON() ([]byte, error) {
	out := spanJSON{Trace: s.Trace, Span: s.ID, Parent: s.Parent, Kind: s.Kind,
		Name: s.Name, Start: s.Start, End: s.End}
	if len(s.Attrs) > 0 {
		out.Attrs = make(map[string]string, len(s.Attrs))
		for _, a := range s.Attrs {
			out.Attrs[a.Key] = a.Value
		}
	}
	return json.Marshal(out)
}

// UnmarshalJSON decodes the NDJSON schema back into a Span (attr order is
// the encoded object's sorted-key order).
func (s *Span) UnmarshalJSON(b []byte) error {
	var in spanJSON
	if err := json.Unmarshal(b, &in); err != nil {
		return err
	}
	*s = Span{Trace: in.Trace, ID: in.Span, Parent: in.Parent, Kind: in.Kind,
		Name: in.Name, Start: in.Start, End: in.End}
	if len(in.Attrs) > 0 {
		keys := make([]string, 0, len(in.Attrs))
		for k := range in.Attrs {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			s.Attrs = append(s.Attrs, Attr{Key: k, Value: in.Attrs[k]})
		}
	}
	return nil
}

// Context is the propagation surface a Recorder drives: the virtual clock
// plus the causal word carried by scheduler events. *sim.Scheduler
// implements it.
type Context interface {
	Now() time.Duration
	Cause() uint64
	SetCause(id uint64) (prev uint64)
}

// traceMapLimit bounds the ID→trace index to the most recent IDs: a span
// whose parent is more than traceMapLimit IDs older than itself starts a
// fresh trace, which only matters for runs holding millions of
// concurrently-referenced spans.
const traceMapLimit = 1 << 16

// Recorder files finished spans into a bounded ring (a flight recorder:
// oldest evicted first) and assigns IDs from a per-recorder sequence, so
// parallel trials that each own a recorder stay byte-identical regardless
// of interleaving. The nil Recorder is a valid no-op.
type Recorder struct {
	ctx     Context
	limit   int
	nextID  uint64
	ring    []Span
	head    int
	n       int
	started uint64
	dropped uint64
	// traces maps span ID id to its trace at traces[(id-1)%traceMapLimit].
	// IDs are sequential, so the slots hold exactly the latest
	// traceMapLimit IDs; it grows by append up to that bound.
	traces   []uint64
	onFinish func(Span)
}

// DefaultLimit is the span-ring bound used when New is given a
// non-positive limit.
const DefaultLimit = 8192

// New creates a recorder bound to ctx retaining at most limit finished
// spans (DefaultLimit when limit <= 0).
func New(ctx Context, limit int) *Recorder {
	if limit <= 0 {
		limit = DefaultLimit
	}
	return &Recorder{ctx: ctx, limit: limit}
}

// OnFinish registers a hook invoked with every finished span (NDJSON
// mirroring into an event log, live stage attribution). Pass nil to clear.
func (r *Recorder) OnFinish(fn func(Span)) {
	if r == nil {
		return
	}
	r.onFinish = fn
}

// carrier is anything a recorder can be attached to opaquely —
// *sim.Scheduler's SetTraceRecorder/TraceRecorder pair.
type carrier interface{ TraceRecorder() any }

// Of retrieves the Recorder attached to a scheduler (or any carrier),
// returning nil when tracing is not enabled. Components call it once at
// construction and keep the result, so the disabled path stays a nil check.
func Of(v any) *Recorder {
	c, ok := v.(carrier)
	if !ok {
		return nil
	}
	r, _ := c.TraceRecorder().(*Recorder)
	return r
}

// ActiveSpan is a span being recorded. The nil ActiveSpan (from a nil
// Recorder) is a valid no-op, so call sites need no enabled-checks.
type ActiveSpan struct {
	r      *Recorder
	span   Span
	prev   uint64
	active bool // this span currently owns the scheduler's cause word
	done   bool
}

// Begin opens a span parented to the current causal context (a root when
// none is active) and activates it: events scheduled before Detach/End
// inherit it as their cause.
func (r *Recorder) Begin(kind, name string) *ActiveSpan {
	if r == nil {
		return nil
	}
	r.started++
	r.nextID++
	id := r.nextID
	parent := r.ctx.Cause()
	trace := id
	if parent != 0 && parent < id && id-parent <= traceMapLimit {
		trace = r.traces[(parent-1)%traceMapLimit]
	}
	r.indexTrace(id, trace)
	prev := r.ctx.SetCause(id)
	now := r.ctx.Now()
	return &ActiveSpan{
		r:      r,
		span:   Span{Trace: ID(trace), ID: ID(id), Parent: ID(parent), Kind: kind, Name: name, Start: now, End: now},
		prev:   prev,
		active: true,
	}
}

// indexTrace records id→trace, overwriting the slot of the ID
// traceMapLimit older once the index is full.
func (r *Recorder) indexTrace(id, trace uint64) {
	if len(r.traces) < traceMapLimit {
		r.traces = append(r.traces, trace)
		return
	}
	r.traces[(id-1)%traceMapLimit] = trace
}

// Attr annotates the span; it returns the span for chaining.
func (s *ActiveSpan) Attr(key, value string) *ActiveSpan {
	if s == nil || s.done {
		return s
	}
	s.span.Attrs = append(s.span.Attrs, Attr{Key: key, Value: value})
	return s
}

// ID returns the span's identifier (0 for the no-op span).
func (s *ActiveSpan) ID() ID {
	if s == nil {
		return 0
	}
	return s.span.ID
}

// Detach restores the caller's causal context while leaving the span open —
// the shape link transit wants: schedule the delivery under the span, hand
// control back, and Finish when the frame lands.
func (s *ActiveSpan) Detach() {
	if s == nil || !s.active {
		return
	}
	s.active = false
	s.r.ctx.SetCause(s.prev)
}

// Finish stamps the span's end at the current virtual instant and files it.
// It does not touch the causal context (Detach first, or use End); the
// delivery-side wrapper relies on that, finishing the link span while the
// delivery event still runs under it. Finishing twice is a no-op.
func (s *ActiveSpan) Finish() {
	if s == nil || s.done {
		return
	}
	s.done = true
	s.span.End = s.r.ctx.Now()
	s.r.file(s.span)
}

// End closes a synchronous section: Detach then Finish.
func (s *ActiveSpan) End() {
	s.Detach()
	s.Finish()
}

// file appends a finished span to the ring.
func (r *Recorder) file(sp Span) {
	if r.n < r.limit {
		r.ring = append(r.ring, sp)
		r.n++
	} else {
		r.ring[r.head] = sp
		r.head = (r.head + 1) % r.limit
		r.dropped++
	}
	if r.onFinish != nil {
		r.onFinish(sp)
	}
}

// Started returns how many spans have been opened.
func (r *Recorder) Started() uint64 {
	if r == nil {
		return 0
	}
	return r.started
}

// Dropped returns how many finished spans the ring has evicted.
func (r *Recorder) Dropped() uint64 {
	if r == nil {
		return 0
	}
	return r.dropped
}

// Len returns the number of retained finished spans.
func (r *Recorder) Len() int {
	if r == nil {
		return 0
	}
	return r.n
}

// Spans returns the retained finished spans, oldest first. The slice is a
// copy.
func (r *Recorder) Spans() []Span {
	if r == nil {
		return nil
	}
	out := make([]Span, 0, r.n)
	for i := 0; i < r.n; i++ {
		out = append(out, r.ring[(r.head+i)%len(r.ring)])
	}
	return out
}

// Find returns the retained spans matching pred, oldest first.
func (r *Recorder) Find(pred func(Span) bool) []Span {
	if r == nil {
		return nil
	}
	var out []Span
	for i := 0; i < r.n; i++ {
		sp := r.ring[(r.head+i)%len(r.ring)]
		if pred(sp) {
			out = append(out, sp)
		}
	}
	return out
}

// WriteNDJSON writes the retained spans, oldest first, one JSON object per
// line in the spanJSON schema.
func (r *Recorder) WriteNDJSON(w io.Writer) error {
	if r == nil {
		return nil
	}
	enc := json.NewEncoder(w)
	for _, sp := range r.Spans() {
		if err := enc.Encode(sp); err != nil {
			return fmt.Errorf("encode span: %w", err)
		}
	}
	return nil
}

// sortAttrs is used by rendering helpers that want stable attr order.
func sortAttrs(attrs []Attr) []Attr {
	out := append([]Attr(nil), attrs...)
	sort.Slice(out, func(i, j int) bool { return out[i].Key < out[j].Key })
	return out
}
