// Package ops is the shared operational surface of the CLIs: one flag
// (-http) turns any run into an inspectable process serving Prometheus
// metrics, Go profiling endpoints, a health check, and a bounded
// flight-recorder dump of the most recent causal spans and telemetry
// events.
//
// Every CLI wires it the same way, with no branch on the flag: Flag, then
// Start (nil without -http; every method is a no-op on nil), Watch on the
// scheduler that owns the registry, and a deferred Finish. That is one
// publish policy: /metrics every virtual second, a flight dump at the
// first alert of a watched sink, and /metrics once more at the end, with a
// final flight dump when no alert took one.
//
// The simulation is single-threaded and its telemetry registry is owned by
// that one goroutine, so HTTP handlers never touch the registry. Instead
// the owning goroutine renders the state to bytes (Watch's tick and alert
// hook, Finish) and swaps them into an atomic cell the handlers serve. Readers always get
// a complete, consistent document; the simulation never blocks on a scrape.
//
// Endpoints:
//
//	/metrics       Prometheus text exposition 0.0.4 (last published)
//	/healthz       liveness: 200 "ok"
//	/debug/flight  most recent flight-recorder dump (JSON)
//	/debug/pprof/  the standard Go profiling endpoints
package ops

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"sync/atomic"
	"time"

	"repro/internal/schemes"
	"repro/internal/sim"
	"repro/internal/telemetry"
	"repro/internal/telemetry/causal"
)

// ContentTypePrometheus is the exposition-format content type /metrics
// serves, version pinned so scrapers negotiate correctly.
const ContentTypePrometheus = "text/plain; version=0.0.4; charset=utf-8"

// FlightDump is one flight-recorder snapshot: why it was captured, when
// (virtual time), and the most recent spans and events at that instant.
type FlightDump struct {
	Reason string            `json:"reason"`         // "alert", "fault", "final", ...
	At     time.Duration     `json:"at"`             // virtual time of capture
	Spans  []causal.Span     `json:"spans"`          // oldest..newest retained spans
	Events []telemetry.Event `json:"events"`         // oldest..newest retained events
	Note   string            `json:"note,omitempty"` // free-form trigger detail
}

// Server is the ops HTTP server. The zero value is not usable; construct
// with Start.
type Server struct {
	reg     *telemetry.Registry // what Watch and Finish publish
	mux     *http.ServeMux
	metrics atomic.Value // []byte: last published Prometheus exposition
	flight  atomic.Value // []byte: last published flight dump (JSON)
	httpSrv *http.Server
	ln      net.Listener
}

// newServer builds a Server publishing reg, with its handlers and no
// listener.
func newServer(reg *telemetry.Registry) *Server {
	s := &Server{reg: reg, mux: http.NewServeMux()}
	s.metrics.Store([]byte(nil))
	s.flight.Store([]byte(nil))

	s.mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprintln(w, "ok")
	})
	s.mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", ContentTypePrometheus)
		w.Write(s.metrics.Load().([]byte))
	})
	s.mux.HandleFunc("/debug/flight", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		if b := s.flight.Load().([]byte); len(b) > 0 {
			w.Write(b)
			return
		}
		fmt.Fprintln(w, "{}")
	})
	s.mux.HandleFunc("/debug/pprof/", pprof.Index)
	s.mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	s.mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	s.mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	s.mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return s
}

// Flag registers -http on fs: the one place the flag is defined.
func Flag(fs *flag.FlagSet) *string {
	return fs.String("http", "", "serve /metrics, /healthz, /debug/pprof and /debug/flight on this address for the run (e.g. localhost:6060)")
}

// Start serves reg's ops surface on addr (host:port; :0 picks a free port)
// until Finish and announces the bound address on stderr. An empty addr
// serves nothing and returns nil.
func Start(addr string, reg *telemetry.Registry) (*Server, error) {
	if addr == "" {
		return nil, nil
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("ops: listen %s: %w", addr, err)
	}
	s := newServer(reg)
	s.ln = ln
	s.httpSrv = &http.Server{Handler: s.mux}
	go s.httpSrv.Serve(ln)
	fmt.Fprintf(os.Stderr, "ops: serving http://%s\n", s.Addr())
	return s, nil
}

// Watch republishes /metrics every virtual second of sched and, when sink
// is non-nil, dumps a flight with reason "alert" at the sink's first alert,
// taking the sink's one OnAlert slot. Later alerts dump nothing: each dump
// marshals the whole event ring, and on an alert-heavy run one dump per
// alert cost far more than the run itself. Call it before the run, on the
// scheduler whose goroutine owns the registry. The tick is a scheduler
// event, so a watched run executes one more event per virtual second and
// its queue can run one deeper: sim_events_executed_total and
// sim_queue_depth_highwater are the only metrics -http moves.
func (s *Server) Watch(sched *sim.Scheduler, sink *schemes.Sink) {
	if s == nil {
		return
	}
	sched.Every(time.Second, s.publish)
	if sink != nil {
		dumped := false
		sink.OnAlert(func(a schemes.Alert) {
			if dumped {
				return
			}
			dumped = true
			s.publishFlight(sched.Now(), "alert", a.Scheme+": "+a.Detail)
		})
	}
}

// Finish publishes /metrics once more, dumps a flight with reason "final"
// at virtual time now unless one was already dumped, and stops the
// listener. Defer it, so every return path closes.
func (s *Server) Finish(now time.Duration, note string) {
	if s == nil {
		return
	}
	s.publish()
	if len(s.flight.Load().([]byte)) == 0 {
		s.publishFlight(now, "final", note)
	}
	if s.httpSrv != nil {
		s.httpSrv.Close()
	}
}

// Addr returns the bound listen address ("" without a listener) — the
// resolved port when Start was given :0.
func (s *Server) Addr() string {
	if s == nil || s.ln == nil {
		return ""
	}
	return s.ln.Addr().String()
}

// publish renders the registry's current state to Prometheus text and
// makes it the document /metrics serves. It runs on the goroutine that
// owns the registry: Watch's tick and Finish.
func (s *Server) publish() {
	if s.reg == nil {
		return
	}
	var buf bytes.Buffer
	if err := s.reg.WritePrometheus(&buf); err != nil {
		return // leave the previous good document in place
	}
	s.metrics.Store(buf.Bytes())
}

// publishFlight captures a flight-recorder dump — the registry's retained
// events plus, with tracing enabled, the causal recorder's retained spans,
// both bounded by their rings — and makes it the document /debug/flight
// serves. reason and note say what tripped the capture. It runs on the
// owning goroutine: Watch's alert hook and Finish.
func (s *Server) publishFlight(now time.Duration, reason, note string) {
	if s.reg == nil {
		return
	}
	dump := FlightDump{
		Reason: reason,
		At:     now,
		Events: s.reg.Events().Events(),
		Note:   note,
	}
	if rec := s.reg.Causal(); rec != nil {
		dump.Spans = rec.Spans()
	}
	b, err := json.Marshal(dump)
	if err != nil {
		return
	}
	s.flight.Store(b)
}
