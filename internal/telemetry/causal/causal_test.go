package causal

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// fakeCtx is a hand-driven propagation context standing in for the
// scheduler: tests advance the clock and move the cause word explicitly.
type fakeCtx struct {
	now   time.Duration
	cause uint64
}

func (c *fakeCtx) Now() time.Duration { return c.now }
func (c *fakeCtx) Cause() uint64      { return c.cause }
func (c *fakeCtx) SetCause(id uint64) (prev uint64) {
	prev = c.cause
	c.cause = id
	return prev
}

func TestNilRecorderIsNoOp(t *testing.T) {
	var r *Recorder
	sp := r.Begin("kind", "name")
	if sp != nil {
		t.Fatalf("nil recorder Begin = %v, want nil", sp)
	}
	sp.Attr("k", "v")
	sp.Detach()
	sp.Finish()
	sp.End()
	if r.Len() != 0 || r.Started() != 0 || r.Dropped() != 0 {
		t.Fatal("nil recorder reported non-zero stats")
	}
	if got := r.Spans(); got != nil {
		t.Fatalf("nil recorder Spans = %v, want nil", got)
	}
	if err := r.WriteNDJSON(os.Stderr); err != nil {
		t.Fatalf("nil recorder WriteNDJSON: %v", err)
	}
}

func TestBeginActivatesAndEndRestores(t *testing.T) {
	ctx := &fakeCtx{}
	r := New(ctx, 0)

	root := r.Begin("attack", "gratuitous")
	if ctx.Cause() != uint64(root.ID()) {
		t.Fatalf("cause after Begin = %d, want %d", ctx.Cause(), root.ID())
	}
	child := r.Begin("tx", "arp")
	if child == nil || ctx.Cause() != uint64(child.ID()) {
		t.Fatalf("cause after nested Begin = %d, want %d", ctx.Cause(), child.ID())
	}
	ctx.now = 5 * time.Microsecond
	child.End()
	if ctx.Cause() != uint64(root.ID()) {
		t.Fatalf("cause after child End = %d, want parent %d", ctx.Cause(), root.ID())
	}
	root.End()
	if ctx.Cause() != 0 {
		t.Fatalf("cause after root End = %d, want 0", ctx.Cause())
	}

	spans := r.Spans()
	if len(spans) != 2 {
		t.Fatalf("retained %d spans, want 2", len(spans))
	}
	// Children file before parents (End order), and both share the root's
	// trace.
	if spans[0].Kind != "tx" || spans[1].Kind != "attack" {
		t.Fatalf("filing order = %s, %s", spans[0].Kind, spans[1].Kind)
	}
	if spans[0].Trace != spans[1].Trace || spans[0].Trace != spans[1].ID {
		t.Fatalf("trace ids: child %d, root trace %d id %d", spans[0].Trace, spans[1].Trace, spans[1].ID)
	}
	if spans[0].Parent != spans[1].ID {
		t.Fatalf("child parent = %d, want %d", spans[0].Parent, spans[1].ID)
	}
	if spans[0].Duration() != 5*time.Microsecond {
		t.Fatalf("child duration = %v, want 5µs", spans[0].Duration())
	}
}

func TestDetachKeepsSpanOpenAcrossEvents(t *testing.T) {
	ctx := &fakeCtx{}
	r := New(ctx, 0)

	sp := r.Begin("link", "transit")
	id := sp.ID()
	sp.Detach()
	if ctx.Cause() != 0 {
		t.Fatalf("cause after Detach = %d, want 0", ctx.Cause())
	}
	if r.Len() != 0 {
		t.Fatal("span filed before Finish")
	}
	// Simulate the delivery event running later under the span's cause.
	ctx.now = 120 * time.Microsecond
	ctx.SetCause(uint64(id))
	sp.Finish()
	if r.Len() != 1 {
		t.Fatal("span not filed by Finish")
	}
	got := r.Spans()[0]
	if got.Duration() != 120*time.Microsecond {
		t.Fatalf("transit duration = %v, want 120µs", got.Duration())
	}
	if ctx.Cause() != uint64(id) {
		t.Fatal("Finish must not touch the causal context")
	}
	sp.Finish() // double finish is a no-op
	if r.Len() != 1 || r.Started() != 1 {
		t.Fatal("double Finish filed a second span")
	}
}

func TestRingBoundAndDropCount(t *testing.T) {
	ctx := &fakeCtx{}
	r := New(ctx, 4)
	for i := 0; i < 10; i++ {
		r.Begin("k", "n").End()
		ctx.cause = 0 // each span is its own root
	}
	if r.Len() != 4 {
		t.Fatalf("retained %d, want 4", r.Len())
	}
	if r.Dropped() != 6 {
		t.Fatalf("dropped %d, want 6", r.Dropped())
	}
	spans := r.Spans()
	if spans[0].ID != 7 || spans[3].ID != 10 {
		t.Fatalf("ring kept %d..%d, want 7..10", spans[0].ID, spans[3].ID)
	}
}

// TestTraceIndexBoundary pins the trace index's horizon: a parent exactly
// traceMapLimit IDs back still lends its trace, through the slot the new
// span then overwrites; one ID further back starts a fresh trace.
func TestTraceIndexBoundary(t *testing.T) {
	for _, tc := range []struct {
		name      string
		back      int // IDs between the root and the child
		wantTrace ID
	}{
		{"at the limit", traceMapLimit, 1},
		{"one past the limit", traceMapLimit + 1, traceMapLimit + 2},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ctx := &fakeCtx{}
			r := New(ctx, 1)
			root := r.Begin("root", "r")
			root.End()
			for i := 1; i < tc.back; i++ {
				r.Begin("k", "filler").End()
			}
			ctx.cause = uint64(root.ID())
			child := r.Begin("child", "c")
			if child.ID() != root.ID()+ID(tc.back) {
				t.Fatalf("child ID %d, want %d", child.ID(), root.ID()+ID(tc.back))
			}
			if child.span.Trace != tc.wantTrace {
				t.Fatalf("child trace %d, want %d", child.span.Trace, tc.wantTrace)
			}
			grandchild := r.Begin("grandchild", "g")
			if grandchild.span.Trace != tc.wantTrace {
				t.Fatalf("grandchild trace %d, want %d", grandchild.span.Trace, tc.wantTrace)
			}
		})
	}
}

// buildAttackTrace assembles the canonical poisoning chain by hand:
// attack → tx → link → switch → {scheme → alert, cache}.
func buildAttackTrace(t *testing.T, ctx *fakeCtx, r *Recorder) (alert ID) {
	t.Helper()
	atk := r.Begin("attack", "unsolicited-reply").Attr("victim", "192.168.88.2")
	tx := r.Begin("tx", "ARP")
	link := r.Begin("link", "transit")
	link.Detach()
	tx.End()
	atk.End()

	// Delivery event 50µs later, under the link span.
	ctx.now = 50 * time.Microsecond
	ctx.SetCause(uint64(link.ID()))
	link.Finish()
	sw := r.Begin("switch", "ingress")
	scheme := r.Begin("scheme", "inspect").Attr("scheme", "arpwatch")
	ctx.now = 62 * time.Microsecond
	al := r.Begin("alert", "flip-flop").Attr("scheme", "arpwatch")
	alertID := al.ID()
	al.End()
	scheme.End()
	cache := r.Begin("cache", "changed").Attr("ip", "192.168.88.254")
	cache.End()
	sw.End()
	ctx.SetCause(0)
	return alertID
}

func TestTreeQueriesAndBreakdown(t *testing.T) {
	ctx := &fakeCtx{}
	r := New(ctx, 0)
	alertID := buildAttackTrace(t, ctx, r)

	roots := r.Roots()
	if len(roots) != 1 || roots[0].Kind != "attack" {
		t.Fatalf("roots = %+v, want one attack span", roots)
	}
	path := r.PathToRoot(alertID)
	var kinds []string
	for _, sp := range path {
		kinds = append(kinds, sp.Kind)
	}
	want := "attack/tx/link/switch/scheme/alert"
	if got := strings.Join(kinds, "/"); got != want {
		t.Fatalf("path kinds = %s, want %s", got, want)
	}
	desc := r.Descendants(ID(roots[0].ID))
	if len(desc) != 6 {
		t.Fatalf("descendants = %d, want 6", len(desc))
	}

	stages, total, ok := r.Breakdown(alertID)
	if !ok {
		t.Fatal("Breakdown not ok")
	}
	if total != 62*time.Microsecond {
		t.Fatalf("total = %v, want 62µs", total)
	}
	if stages["link"] != 50*time.Microsecond {
		t.Fatalf("link stage = %v, want 50µs", stages["link"])
	}
	if stages["scheme"] != 12*time.Microsecond {
		t.Fatalf("scheme stage = %v, want 12µs", stages["scheme"])
	}
	if stages["attack"] != 0 || stages["tx"] != 0 || stages["switch"] != 0 {
		t.Fatalf("instant stages non-zero: %v", stages)
	}

	var tree bytes.Buffer
	if err := r.WriteTree(&tree, ID(roots[0].ID)); err != nil {
		t.Fatalf("WriteTree: %v", err)
	}
	for _, needle := range []string{"attack/unsolicited-reply", "  tx/ARP", "alert/flip-flop", "scheme=arpwatch"} {
		if !strings.Contains(tree.String(), needle) {
			t.Fatalf("tree missing %q:\n%s", needle, tree.String())
		}
	}
}

// TestNDJSONGolden pins the span wire schema: the NDJSON emitted for the
// canonical attack chain must match testdata/spans.golden byte for byte.
// Regenerate deliberately with -update when the schema changes.
var update = os.Getenv("UPDATE_GOLDEN") != ""

func TestNDJSONGolden(t *testing.T) {
	ctx := &fakeCtx{}
	r := New(ctx, 0)
	buildAttackTrace(t, ctx, r)

	var buf bytes.Buffer
	if err := r.WriteNDJSON(&buf); err != nil {
		t.Fatalf("WriteNDJSON: %v", err)
	}
	golden := filepath.Join("testdata", "spans.golden")
	if update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("read golden (run with UPDATE_GOLDEN=1 to create): %v", err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Fatalf("NDJSON schema drifted from golden.\ngot:\n%s\nwant:\n%s", buf.Bytes(), want)
	}
	// Every line must round-trip as JSON with the required fields.
	for _, line := range strings.Split(strings.TrimSpace(buf.String()), "\n") {
		var m map[string]any
		if err := json.Unmarshal([]byte(line), &m); err != nil {
			t.Fatalf("line %q: %v", line, err)
		}
		for _, field := range []string{"trace", "span", "kind", "name", "start", "end"} {
			if _, ok := m[field]; !ok {
				t.Fatalf("line %q missing field %q", line, field)
			}
		}
	}
}

func TestOfReturnsNilForNonCarriers(t *testing.T) {
	if rec := Of(42); rec != nil {
		t.Fatalf("Of(non-carrier) = %v, want nil", rec)
	}
	if rec := Of(nil); rec != nil {
		t.Fatalf("Of(nil) = %v, want nil", rec)
	}
}
