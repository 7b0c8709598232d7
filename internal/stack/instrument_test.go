package stack

import (
	"testing"
	"time"

	"repro/internal/arppkt"
	"repro/internal/ethaddr"
	"repro/internal/telemetry"
	"repro/internal/telemetry/causal"
)

// traceTestLAN attaches a causal recorder to l's scheduler; hosts added
// afterwards record a "stack/resolve" span per resolution.
func traceTestLAN(l *lan) *causal.Recorder {
	rec := causal.New(l.s, 0)
	l.s.SetTraceRecorder(rec)
	return rec
}

// resolveSpans returns the finished "stack/resolve" spans, oldest first.
func resolveSpans(rec *causal.Recorder) []causal.Span {
	return rec.Find(func(sp causal.Span) bool { return sp.Kind == "stack" && sp.Name == "resolve" })
}

func TestHostInstrumentResolutionMetrics(t *testing.T) {
	l := newTestLAN(1)
	reg := telemetry.New()
	l.s.Instrument(reg)
	rec := traceTestLAN(l)
	a := l.addHost("a", "02:42:ac:00:00:01", "10.0.0.1")
	b := l.addHost("b", "02:42:ac:00:00:02", "10.0.0.2")
	a.Instrument(reg)

	a.Resolve(b.IP(), nil)
	if err := l.s.Run(); err != nil {
		t.Fatal(err)
	}

	host := telemetry.L("host", "a")
	if got := reg.Counter("stack_resolutions_total", host, telemetry.L("outcome", "ok")).Value(); got != 1 {
		t.Fatalf("ok resolutions = %d", got)
	}
	h := reg.Histogram("stack_resolution_latency_seconds", nil, host)
	if h.Count() != 1 {
		t.Fatalf("latency samples = %d", h.Count())
	}
	if h.Sum() <= 0 || h.Sum() > 1 {
		t.Fatalf("latency sum = %v, want a small positive virtual latency", h.Sum())
	}

	// Exactly one resolve span, committed on the first request, spanning
	// the same virtual interval the latency histogram observed. (b's reply
	// resolves nothing on b's side: b learned a from the request.)
	spans := resolveSpans(rec)
	if len(spans) != 1 {
		t.Fatalf("resolve spans = %+v, want 1", spans)
	}
	sp := spans[0]
	if sp.Attr("host") != "a" || sp.Attr("target") != b.IP().String() ||
		sp.Attr("outcome") != "commit" || sp.Attr("tries") != "1" {
		t.Fatalf("resolve span attrs = %+v", sp.Attrs)
	}
	if sp.Duration().Seconds() != h.Sum() {
		t.Fatalf("span duration %v, histogram observed %vs", sp.Duration(), h.Sum())
	}
}

func TestHostInstrumentFailureAndRetries(t *testing.T) {
	l := newTestLAN(1)
	reg := telemetry.New()
	l.s.Instrument(reg)
	rec := traceTestLAN(l)
	a := l.addHost("a", "02:42:ac:00:00:01", "10.0.0.1",
		WithResolveRetry(3, 100*time.Millisecond))
	a.Instrument(reg)

	a.Resolve(ethaddr.MustParseIPv4("10.0.0.99"), nil)
	if err := l.s.Run(); err != nil {
		t.Fatal(err)
	}

	host := telemetry.L("host", "a")
	if got := reg.Counter("stack_resolutions_total", host, telemetry.L("outcome", "fail")).Value(); got != 1 {
		t.Fatalf("failed resolutions = %d", got)
	}
	if got := reg.Counter("stack_resolve_retries_total", host).Value(); got != 2 {
		t.Fatalf("retries = %d, want 2 (3 tries = initial + 2 retries)", got)
	}
	// The failure produced one span with outcome "fail" after all three
	// tries, and a warn event.
	spans := resolveSpans(rec)
	if len(spans) != 1 {
		t.Fatalf("resolve spans = %+v, want 1", spans)
	}
	if sp := spans[0]; sp.Attr("target") != "10.0.0.99" || sp.Attr("outcome") != "fail" ||
		sp.Attr("tries") != "3" || sp.Duration() != 300*time.Millisecond {
		t.Fatalf("resolve span = %+v", sp)
	}
	if reg.Snapshot().Events.Warn == 0 {
		t.Fatal("resolution failure should log a warn event")
	}
}

func TestCacheInstrumentCounters(t *testing.T) {
	l := newTestLAN(1)
	reg := telemetry.New()
	l.s.Instrument(reg)
	a := l.addHost("a", "02:42:ac:00:00:01", "10.0.0.1",
		WithPolicy(PolicyNoOverwrite))
	b := l.addHost("b", "02:42:ac:00:00:02", "10.0.0.2")
	a.Instrument(reg)

	a.Resolve(b.IP(), nil)
	if err := l.s.Run(); err != nil {
		t.Fatal(err)
	}
	host := telemetry.L("host", "a")
	if got := reg.Counter("stack_cache_created_total", host).Value(); got != 1 {
		t.Fatalf("created = %d", got)
	}
	if _, ok := a.Cache().Lookup(b.IP()); !ok {
		t.Fatal("entry missing after resolution")
	}
	if got := reg.Counter("stack_cache_hits_total", host).Value(); got == 0 {
		t.Fatal("lookup of a live entry should count as a hit")
	}

	// An overwrite attempt under the no-overwrite policy is a policy reject.
	pkt := arppkt.NewReply(
		ethaddr.MustParseMAC("02:42:ac:00:00:66"), b.IP(), a.MAC(), a.IP())
	a.ProcessARP(pkt)
	if got := reg.Counter("stack_cache_policy_rejects_total", host).Value(); got != 1 {
		t.Fatalf("policy rejects = %d", got)
	}
}
