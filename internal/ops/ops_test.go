package ops

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"regexp"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/labnet"
	"repro/internal/scenario"
	"repro/internal/schemes"
	"repro/internal/sim"
	"repro/internal/telemetry"
)

// tracedRun produces a registry with real state to publish: a short traced
// MITM run with alerts, spans, and events.
func tracedRun(t *testing.T) *telemetry.Registry {
	t.Helper()
	reg := telemetry.New()
	l := labnet.New(labnet.Config{
		Seed: 3, Hosts: 4, WithAttacker: true, WithMonitor: true,
		Telemetry: reg, Tracing: true,
	})
	sink := schemes.NewSink()
	sink.Instrument(reg)
	l.SeedMutualCaches()
	gw, victim := l.Gateway(), l.Victim()
	l.Sched.At(time.Second, func() {
		l.Attacker.PoisonPeriodically(2*time.Second, victim.MAC(), victim.IP(), gw.MAC(), gw.IP())
	})
	if err := l.Run(5 * time.Second); err != nil {
		t.Fatal(err)
	}
	return reg
}

func get(t *testing.T, h http.Handler, path string) (*http.Response, string) {
	t.Helper()
	srv := httptest.NewServer(h)
	defer srv.Close()
	resp, err := http.Get(srv.URL + path)
	if err != nil {
		t.Fatalf("GET %s: %v", path, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp, string(body)
}

func TestHealthz(t *testing.T) {
	s := newServer(nil)
	resp, body := get(t, s.mux, "/healthz")
	if resp.StatusCode != http.StatusOK || strings.TrimSpace(body) != "ok" {
		t.Fatalf("healthz: %d %q", resp.StatusCode, body)
	}
}

func TestMetricsServesPublishedExposition(t *testing.T) {
	reg := tracedRun(t)
	s := newServer(reg)
	// Before any publish: valid response, empty document.
	resp, body := get(t, s.mux, "/metrics")
	if resp.StatusCode != http.StatusOK || body != "" {
		t.Fatalf("unpublished /metrics: %d %q", resp.StatusCode, body)
	}

	s.publish()
	resp, body = get(t, s.mux, "/metrics")
	if got := resp.Header.Get("Content-Type"); got != ContentTypePrometheus {
		t.Fatalf("content type = %q, want %q", got, ContentTypePrometheus)
	}
	for _, want := range []string{"sim_events_executed_total", "# TYPE"} {
		if !strings.Contains(body, want) {
			t.Fatalf("/metrics missing %q:\n%s", want, body[:min(len(body), 400)])
		}
	}

	// A later publish replaces the document.
	reg.Counter("ops_test_counter_total").Inc()
	s.publish()
	_, body = get(t, s.mux, "/metrics")
	if !strings.Contains(body, "ops_test_counter_total") {
		t.Fatal("republished document missing new counter")
	}
}

// shardSample is the strict exposition grammar for one sample line of a
// shard-engine family — name, optional {k="v",...} block with only valid
// escapes in values, then the value. Scrapers parse with exactly this
// grammar, so any drift is a hard fail.
var shardSample = regexp.MustCompile(
	`^(shard_rounds_total|shard_sync_waits_total|cross_lan_frames_total|` +
		`shard_lookahead_stall_seconds(?:_bucket|_sum|_count))` +
		`(\{[a-zA-Z_][a-zA-Z0-9_]*="(?:[^"\\\n]|\\\\|\\n|\\")*"` +
		`(?:,[a-zA-Z_][a-zA-Z0-9_]*="(?:[^"\\\n]|\\\\|\\n|\\")*")*\})?` +
		` (\+Inf|[0-9eE.+-]+)$`)

// TestMetricsExposeShardEngineFamilies publishes a sharded campus run and
// checks the engine's synchronization metrics come out of /metrics as
// well-formed exposition text: a TYPE line per family, every sample
// matching the label grammar, le-labelled stall buckets, and a cross-LAN
// counter that proves the backbone actually carried frames.
func TestMetricsExposeShardEngineFamilies(t *testing.T) {
	reg := telemetry.New()
	c := labnet.NewCampus(labnet.CampusConfig{
		Seed: 5, LANs: 4, HostsPerLAN: 32, Telemetry: reg,
	})
	defer c.Recycle()
	if err := c.Run(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	s := newServer(reg)
	s.publish()
	_, body := get(t, s.mux, "/metrics")

	sawType := map[string]bool{
		"shard_rounds_total":            false,
		"shard_sync_waits_total":        false,
		"cross_lan_frames_total":        false,
		"shard_lookahead_stall_seconds": false,
	}
	sawBucketLE := false
	var crossFrames float64
	for _, line := range strings.Split(body, "\n") {
		if strings.HasPrefix(line, "# TYPE ") {
			if f := strings.Fields(line); len(f) == 4 {
				if _, ok := sawType[f[2]]; ok {
					sawType[f[2]] = true
				}
			}
			continue
		}
		if line == "" || strings.HasPrefix(line, "#") ||
			(!strings.HasPrefix(line, "shard_") && !strings.HasPrefix(line, "cross_lan_")) {
			continue
		}
		m := shardSample.FindStringSubmatch(line)
		if m == nil {
			t.Fatalf("shard metric line fails the exposition grammar: %q", line)
		}
		if strings.HasPrefix(line, "shard_lookahead_stall_seconds_bucket") {
			if !strings.Contains(m[2], `le="`) {
				t.Fatalf("bucket sample without le label: %q", line)
			}
			sawBucketLE = true
		}
		if m[1] == "cross_lan_frames_total" {
			crossFrames, _ = strconv.ParseFloat(m[3], 64)
		}
	}
	for fam, seen := range sawType {
		if !seen {
			t.Errorf("/metrics missing TYPE line for %s", fam)
		}
	}
	if !sawBucketLE {
		t.Error("stall histogram rendered no le-labelled buckets")
	}
	if crossFrames == 0 {
		t.Error("cross_lan_frames_total is zero: the campus backbone carried nothing")
	}
}

func TestFlightDumpRoundTrips(t *testing.T) {
	reg := tracedRun(t)
	s := newServer(reg)
	resp, body := get(t, s.mux, "/debug/flight")
	if resp.StatusCode != http.StatusOK || strings.TrimSpace(body) != "{}" {
		t.Fatalf("unpublished /debug/flight: %d %q", resp.StatusCode, body)
	}

	s.publishFlight(5*time.Second, "alert", "test trigger")
	resp, body = get(t, s.mux, "/debug/flight")
	if got := resp.Header.Get("Content-Type"); got != "application/json" {
		t.Fatalf("content type = %q", got)
	}
	var dump FlightDump
	if err := json.Unmarshal([]byte(body), &dump); err != nil {
		t.Fatalf("flight dump is not valid JSON: %v", err)
	}
	if dump.Reason != "alert" || dump.At != 5*time.Second || dump.Note != "test trigger" {
		t.Fatalf("dump header = %+v", dump)
	}
	if len(dump.Spans) == 0 {
		t.Fatal("traced run published no spans")
	}
	if len(dump.Events) == 0 {
		t.Fatal("run published no events")
	}
	// The span schema round-trips: the attack must be in there.
	found := false
	for _, sp := range dump.Spans {
		if sp.Kind == "attack" && sp.ID != 0 && sp.Trace == sp.ID {
			found = true
		}
	}
	if !found {
		t.Fatal("no attack root span in the flight dump")
	}
}

// flight decodes the flight dump s serves.
func flight(t *testing.T, s *Server) FlightDump {
	t.Helper()
	_, body := get(t, s.mux, "/debug/flight")
	var dump FlightDump
	if err := json.Unmarshal([]byte(body), &dump); err != nil {
		t.Fatalf("flight dump is not valid JSON: %v", err)
	}
	return dump
}

func TestPprofEndpointsRespond(t *testing.T) {
	s := newServer(nil)
	for _, path := range []string{"/debug/pprof/", "/debug/pprof/cmdline", "/debug/pprof/symbol"} {
		resp, _ := get(t, s.mux, path)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: %d", path, resp.StatusCode)
		}
	}
}

func TestServeBindsAndCloses(t *testing.T) {
	s, err := Start("127.0.0.1:0", telemetry.New())
	if err != nil {
		t.Fatal(err)
	}
	addr := s.Addr()
	if addr == "" {
		t.Fatal("no resolved address")
	}
	resp, err := http.Get("http://" + addr + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz over TCP: %d", resp.StatusCode)
	}
	s.Finish(0, "end of run")
	if _, err := http.Get("http://" + addr + "/healthz"); err == nil {
		t.Fatal("server still reachable after Finish")
	}
	if dump := flight(t, s); dump.Reason != "final" || dump.Note != "end of run" {
		t.Fatalf("Finish with no alert dumped %q (%q), want a final flight", dump.Reason, dump.Note)
	}
}

func TestNilServerIsNoOp(t *testing.T) {
	s, err := Start("", telemetry.New())
	if s != nil || err != nil {
		t.Fatalf("Start without an address = %v, %v; want nil, nil", s, err)
	}
	if s.Addr() != "" {
		t.Fatal("nil Addr")
	}
	s.Finish(0, "end of run")
}

// TestNilWatchSchedulesNothing pins that a CLI run without -http is the
// run it was before the ops wiring: a nil server's Watch arms no tick and
// takes no alert slot, and its Finish does nothing.
func TestNilWatchSchedulesNothing(t *testing.T) {
	var s *Server
	sched := sim.NewScheduler(1)
	sched.At(3*time.Second, func() {})
	before := sched.Executed()
	s.Watch(sched, schemes.NewSink())
	if err := sched.RunUntil(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	if got := sched.Executed() - before; got != 1 {
		t.Fatalf("executed %d events, want the 1 the test scheduled", got)
	}
	s.Finish(sched.Now(), "end of run")
}

// watchedRun runs spec the way arpscenario does with -http: Start, Watch
// on site 0's scheduler and sink, Finish after the run. probe, when not
// nil, is called at virtual second 2 with the server live.
func watchedRun(t *testing.T, spec *scenario.Spec, probe func(*Server)) (*scenario.Result, FlightDump, string) {
	t.Helper()
	reg := telemetry.New()
	s, err := Start("127.0.0.1:0", reg)
	if err != nil {
		t.Fatal(err)
	}
	var end time.Duration
	res, err := scenario.Run(spec, scenario.WithRegistry(reg), scenario.WithHook(func(d *scenario.Deployment) func() {
		site := d.Sites[0]
		s.Watch(site.LAN.Sched, site.Sink)
		if probe != nil {
			site.LAN.Sched.At(2*time.Second, func() { probe(s) })
		}
		return func() { end = site.LAN.Sched.Now() }
	}))
	if err != nil {
		t.Fatal(err)
	}
	s.Finish(end, "scenario complete")
	_, body := get(t, s.mux, "/metrics")
	return res, flight(t, s), body
}

// TestWatchPublishesMidRun is the live view a long scenario needs: a scrape
// at virtual second 2 finds /metrics already rendered, an alert after it
// dumps a flight with reason "alert", and Finish keeps that dump instead of
// overwriting it with a "final" one.
func TestWatchPublishesMidRun(t *testing.T) {
	spec, err := scenario.Load(strings.NewReader(`{
		"seed": 1, "hosts": 4, "durationSeconds": 6,
		"schemes": [{"name": "arpwatch"}],
		"attacks": [{"atSeconds": 3, "type": "mitm"}]
	}`))
	if err != nil {
		t.Fatal(err)
	}
	var midRun string
	_, dump, final := watchedRun(t, spec, func(s *Server) {
		resp, err := http.Get("http://" + s.Addr() + "/metrics")
		if err != nil {
			t.Error(err)
			return
		}
		defer resp.Body.Close()
		b, _ := io.ReadAll(resp.Body)
		midRun = string(b)
	})
	if !strings.Contains(midRun, "sim_events_executed_total") {
		t.Fatalf("/metrics at virtual second 2 = %q, want the running registry", midRun)
	}
	if dump.Reason != "alert" || !strings.HasPrefix(dump.Note, "arpwatch: ") || dump.At < 3*time.Second {
		t.Fatalf("flight after the attack = %s at %v (%q), want an arpwatch alert after 3s", dump.Reason, dump.At, dump.Note)
	}
	if final == midRun || !strings.Contains(final, "sim_events_executed_total") {
		t.Fatal("Finish did not republish /metrics")
	}
}

// TestWatchDumpsFirstAlertOnly: in a run whose alerts fall at several
// instants, /debug/flight serves the dump taken at the first alert, and
// Finish keeps it.
func TestWatchDumpsFirstAlertOnly(t *testing.T) {
	spec, err := scenario.Load(strings.NewReader(`{
		"seed": 1, "hosts": 4, "durationSeconds": 5,
		"schemes": [{"name": "port-security"}],
		"attacks": [{"atSeconds": 2, "type": "port-steal", "periodSeconds": 0.5}]
	}`))
	if err != nil {
		t.Fatal(err)
	}
	reg := telemetry.New()
	s := newServer(reg)
	var alerts []schemes.Alert
	var end time.Duration
	_, err = scenario.Run(spec, scenario.WithRegistry(reg), scenario.WithHook(func(d *scenario.Deployment) func() {
		site := d.Sites[0]
		s.Watch(site.LAN.Sched, site.Sink)
		return func() { alerts, end = site.Sink.Alerts(), site.LAN.Sched.Now() }
	}))
	if err != nil {
		t.Fatal(err)
	}
	if len(alerts) < 2 || alerts[len(alerts)-1].At == alerts[0].At {
		t.Fatalf("run raised %d alerts, want alerts at two instants at least", len(alerts))
	}
	first := alerts[0]
	want := FlightDump{Reason: "alert", At: first.At, Note: first.Scheme + ": " + first.Detail}
	check := func(when string) {
		t.Helper()
		if got := flight(t, s); got.Reason != want.Reason || got.At != want.At || got.Note != want.Note {
			t.Fatalf("%s: flight %s at %v (%q), want %s at %v (%q)",
				when, got.Reason, got.At, got.Note, want.Reason, want.At, want.Note)
		}
	}
	check("after the run")
	s.Finish(end, "scenario complete")
	check("after Finish")
}

// TestWatchCampusShardParity watches site 0 of a two-LAN campus while the
// shards run on two workers: under -race this pins that the publish tick
// and the alert dump only touch the registry from LAN 0's time domain, and
// the Result matches the one-worker run.
func TestWatchCampusShardParity(t *testing.T) {
	run := func(workers int) (*scenario.Result, FlightDump) {
		spec, err := scenario.Load(strings.NewReader(`{
			"seed": 3, "durationSeconds": 20,
			"campus": {"lans": 2, "hostsPerLAN": 24},
			"schemes": [{"name": "arpwatch", "params": {"seedGateway": false}}],
			"attacks": [{"atSeconds": 5, "type": "mitm"}]
		}`))
		if err != nil {
			t.Fatal(err)
		}
		spec.Campus.Workers = workers
		res, dump, _ := watchedRun(t, spec, nil)
		// Engine counters such as sync waits depend on worker interleaving.
		res.Telemetry = telemetry.Snapshot{}
		return res, dump
	}
	ref, refDump := run(1)
	got, gotDump := run(2)
	if !reflect.DeepEqual(ref, got) {
		t.Fatalf("result differs at 2 workers:\n%+v\n%+v", ref, got)
	}
	if refDump.Reason != "alert" || gotDump.Reason != refDump.Reason || gotDump.At != refDump.At || gotDump.Note != refDump.Note {
		t.Fatalf("flight dumps differ: 1 worker %s at %v, 2 workers %s at %v", refDump.Reason, refDump.At, gotDump.Reason, gotDump.At)
	}
}
