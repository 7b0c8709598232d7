// Package schemes defines the contracts shared by every ARP-poisoning
// detection and prevention scheme in the framework: the Detector interface
// network-resident schemes implement over tap events, the alert model, and
// the shared alert sink the evaluation harness drains.
//
// One sub-package implements each scheme class the paper analyzes:
// staticarp, kernelpolicy, arpwatch, activeprobe, middleware, sarp, tarp,
// dai, and portsec.
package schemes

import (
	"fmt"
	"time"

	"repro/internal/ethaddr"
	"repro/internal/frame"
	"repro/internal/netsim"
	"repro/internal/telemetry"
	"repro/internal/telemetry/causal"
)

// AlertKind classifies what a detector believes it saw.
type AlertKind int

// Alert kinds.
const (
	// AlertFlipFlop is a live IP↔MAC binding changing to a different MAC,
	// the classic poisoning signature (also triggered benignly by DHCP
	// reassignment — the false-positive axis of the evaluation).
	AlertFlipFlop AlertKind = iota + 1

	// AlertNewStation is a previously unseen binding (informational in
	// arpwatch; some deployments page on it).
	AlertNewStation

	// AlertUnsolicitedReply is a reply nobody asked for.
	AlertUnsolicitedReply

	// AlertVerifyFailed is a binding that failed active verification: the
	// probed station disagreed with the claimed binding.
	AlertVerifyFailed

	// AlertConflict is two stations answering for the same IP.
	AlertConflict

	// AlertInvalid is a malformed or semantically impossible ARP packet.
	AlertInvalid

	// AlertSpoofedSource is an ARP packet whose sender hardware address
	// disagrees with the Ethernet source address carrying it.
	AlertSpoofedSource

	// AlertBindingViolation is an inspected packet contradicting an
	// authoritative binding table (DAI).
	AlertBindingViolation

	// AlertPortSecurity is a port exceeding its learned-MAC limit.
	AlertPortSecurity

	// AlertAuthFailed is a secured-ARP message failing signature, ticket,
	// or freshness checks.
	AlertAuthFailed

	// AlertFlood is an abnormal rate of ARP activity.
	AlertFlood

	// AlertRogueDHCP is DHCP server traffic sourced from an untrusted
	// port — an address-plane hijack attempt.
	AlertRogueDHCP
)

// String returns the alert kind name used in reports.
func (k AlertKind) String() string {
	switch k {
	case AlertFlipFlop:
		return "flip-flop"
	case AlertNewStation:
		return "new-station"
	case AlertUnsolicitedReply:
		return "unsolicited-reply"
	case AlertVerifyFailed:
		return "verify-failed"
	case AlertConflict:
		return "conflict"
	case AlertInvalid:
		return "invalid-packet"
	case AlertSpoofedSource:
		return "spoofed-source"
	case AlertBindingViolation:
		return "binding-violation"
	case AlertPortSecurity:
		return "port-security"
	case AlertAuthFailed:
		return "auth-failed"
	case AlertFlood:
		return "flood"
	case AlertRogueDHCP:
		return "rogue-dhcp"
	default:
		return "unknown"
	}
}

// Alert is one detection event.
type Alert struct {
	At     time.Duration
	Scheme string
	Kind   AlertKind
	IP     ethaddr.IPv4
	OldMAC ethaddr.MAC // prior binding, when applicable
	NewMAC ethaddr.MAC // asserted/suspect binding
	Detail string
}

// String renders the alert as a log line.
func (a Alert) String() string {
	return fmt.Sprintf("%v [%s] %s ip=%s old=%s new=%s %s",
		a.At, a.Scheme, a.Kind, a.IP, a.OldMAC, a.NewMAC, a.Detail)
}

// Detector is a network- or host-resident detection scheme fed from a tap.
type Detector interface {
	// Name identifies the scheme in alerts and reports.
	Name() string
	// Observe ingests one frame seen at the monitoring point.
	Observe(ev netsim.TapEvent)
}

// Sink collects alerts from one or more schemes.
type Sink struct {
	alerts  []Alert
	onAlert func(Alert)

	// Telemetry handles; nil (no-op) unless Instrument is called.
	reg      *telemetry.Registry
	events   *telemetry.EventLog
	byScheme map[string]map[AlertKind]*telemetry.Counter
	rec      *causal.Recorder
}

// NewSink returns an empty sink.
func NewSink() *Sink { return &Sink{} }

// OnAlert installs a callback invoked for every reported alert (in addition
// to retention). It replaces any callback installed before: a sink has one.
func (s *Sink) OnAlert(fn func(Alert)) { s.onAlert = fn }

// Instrument attaches the sink to a telemetry registry: every reported
// alert increments scheme_alerts_total{scheme,kind} and appends a warn
// event, giving per-detector attribution without touching any detector.
func (s *Sink) Instrument(reg *telemetry.Registry) {
	s.reg = reg
	s.events = reg.Events()
	s.byScheme = make(map[string]map[AlertKind]*telemetry.Counter)
	s.rec = reg.Causal()
}

// alertCounter returns (lazily creating) the counter for one alert source.
func (s *Sink) alertCounter(scheme string, kind AlertKind) *telemetry.Counter {
	kinds, ok := s.byScheme[scheme]
	if !ok {
		kinds = make(map[AlertKind]*telemetry.Counter)
		s.byScheme[scheme] = kinds
	}
	c, ok := kinds[kind]
	if !ok {
		c = s.reg.Counter("scheme_alerts_total",
			telemetry.L("scheme", scheme), telemetry.L("kind", kind.String()))
		kinds[kind] = c
	}
	return c
}

// Report adds an alert. With causal tracing enabled it also files an
// instantaneous "alert" span under the current cause — the leaf that ties a
// detection back to the injected frame that provoked it.
func (s *Sink) Report(a Alert) {
	if s.rec != nil {
		s.rec.Begin("alert", a.Kind.String()).
			Attr("scheme", a.Scheme).
			Attr("ip", a.IP.String()).
			Attr("old", a.OldMAC.String()).
			Attr("new", a.NewMAC.String()).
			End()
	}
	s.alerts = append(s.alerts, a)
	if s.byScheme != nil {
		s.alertCounter(a.Scheme, a.Kind).Inc()
		s.events.Log(telemetry.SevWarn, a.Scheme, a.Detail,
			"kind", a.Kind.String(), "ip", a.IP.String(),
			"oldMAC", a.OldMAC.String(), "newMAC", a.NewMAC.String())
	}
	if s.onAlert != nil {
		s.onAlert(a)
	}
}

// Alerts returns a copy of everything reported so far.
func (s *Sink) Alerts() []Alert {
	out := make([]Alert, len(s.alerts))
	copy(out, s.alerts)
	return out
}

// Len returns the number of alerts reported.
func (s *Sink) Len() int { return len(s.alerts) }

// Reset discards retained alerts and, on an instrumented sink, the
// per-scheme counter attribution built so far — a reused sink must re-create
// its handles against the registry's current state rather than increment
// counters captured in an earlier trial.
func (s *Sink) Reset() {
	s.alerts = s.alerts[:0]
	if s.byScheme != nil {
		s.byScheme = make(map[string]map[AlertKind]*telemetry.Counter)
	}
}

// ByKind returns the retained alerts of one kind.
func (s *Sink) ByKind(k AlertKind) []Alert {
	var out []Alert
	for _, a := range s.alerts {
		if a.Kind == k {
			out = append(out, a)
		}
	}
	return out
}

// CausalTap wraps a detector's tap callback so each inspection runs inside
// a "scheme" span naming the scheme — the hop that lets detection-latency
// attribution separate inspection (and any probe round-trip a scheme
// schedules from inside Observe) from time on the wire. A nil recorder
// returns fn unchanged, so the disabled path costs nothing.
func CausalTap(rec *causal.Recorder, scheme string, fn netsim.TapFunc) netsim.TapFunc {
	if rec == nil || fn == nil {
		return fn
	}
	return func(ev netsim.TapEvent) {
		sp := rec.Begin("scheme", "inspect").Attr("scheme", scheme)
		fn(ev)
		sp.End()
	}
}

// InstrumentFilter wraps an inline filter so every verdict is counted as
// scheme_filter_verdicts_total{scheme,verdict}. Switch-resident schemes
// (DAI, port security) deploy through this to expose what they allow and
// drop. A nil registry returns f unchanged.
func InstrumentFilter(reg *telemetry.Registry, scheme string, f netsim.FilterFunc) netsim.FilterFunc {
	if reg == nil || f == nil {
		return f
	}
	allow := reg.Counter("scheme_filter_verdicts_total",
		telemetry.L("scheme", scheme), telemetry.L("verdict", "allow"))
	drop := reg.Counter("scheme_filter_verdicts_total",
		telemetry.L("scheme", scheme), telemetry.L("verdict", "drop"))
	return func(port int, fr *frame.Frame) netsim.FilterVerdict {
		v := f(port, fr)
		if v == netsim.VerdictDrop {
			drop.Inc()
		} else {
			allow.Inc()
		}
		return v
	}
}
