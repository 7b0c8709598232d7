// Package activeprobe implements the active detection scheme class the
// paper analyzes: a network appliance that, on seeing a suspicious ARP
// assertion, injects verification probes and compares who actually answers
// for the address against what was claimed.
//
// The probe is an RFC 5227 address probe (zero sender protocol address), so
// verification itself can never poison a cache. Compared to passive
// monitoring the scheme buys precision — a benign DHCP reassignment
// verifies clean, a forgery does not — at the price of probe traffic and a
// verification delay, both of which the overhead experiments measure. Its
// known blind spot, which the analysis table records, is an attacker who
// first silences the genuine owner and then answers probes itself.
package activeprobe

import (
	"time"

	"repro/internal/arppkt"
	"repro/internal/ethaddr"
	"repro/internal/frame"
	"repro/internal/netsim"
	"repro/internal/schemes"
	"repro/internal/sim"
	"repro/internal/stack"
	"repro/internal/telemetry"
	"repro/internal/telemetry/causal"
)

// Option configures the Prober.
type Option func(*Prober)

// WithVerifyWindow sets how long the prober waits for probe answers before
// deciding (default 500ms).
func WithVerifyWindow(d time.Duration) Option {
	return func(p *Prober) { p.window = d }
}

// WithSolicitWindow sets how recently a request must have been seen for a
// reply to count as solicited (default 2s).
func WithSolicitWindow(d time.Duration) Option {
	return func(p *Prober) { p.solicitWindow = d }
}

// WithVerifyNewStations verifies first-seen bindings too, not only changes
// (default off; costs one probe per new host).
func WithVerifyNewStations() Option {
	return func(p *Prober) { p.verifyNew = true }
}

// Stats counts prober activity for the overhead experiments.
type Stats struct {
	Suspicions uint64 // verification sessions started
	Probes     uint64 // probe packets sent
	Confirmed  uint64 // sessions ending in an alert
	Cleared    uint64 // sessions verified benign
}

// session is one in-flight verification.
type session struct {
	claimedMAC ethaddr.MAC
	oldMAC     ethaddr.MAC
	startedAt  time.Duration
	repliers   map[ethaddr.MAC]bool
	span       *causal.ActiveSpan // nil (no-op) when tracing is off
}

// finish closes the session's span with its outcome.
func (s *session) finish(outcome string) { s.span.Attr("outcome", outcome).Finish() }

// Prober is the active-verification appliance. It observes mirrored traffic
// like a passive monitor, but owns a host of its own for sending probes and
// receiving their answers.
type Prober struct {
	sched         *sim.Scheduler
	sink          *schemes.Sink
	host          *stack.Host
	window        time.Duration
	solicitWindow time.Duration
	verifyNew     bool

	bindings    map[ethaddr.IPv4]ethaddr.MAC
	lastRequest map[ethaddr.IPv4]time.Duration // targetIP → when last requested
	sessions    map[ethaddr.IPv4]*session
	stats       Stats
	rec         *causal.Recorder

	// Telemetry handles; nil (no-op) unless Instrument is called.
	mProbes     *telemetry.Counter
	mSuspicions *telemetry.Counter
	mConfirmed  *telemetry.Counter
	mCleared    *telemetry.Counter
}

var _ schemes.Detector = (*Prober)(nil)

// New creates a prober using host as its probe source. The host should be a
// dedicated appliance station on the LAN.
func New(s *sim.Scheduler, sink *schemes.Sink, host *stack.Host, opts ...Option) *Prober {
	p := &Prober{
		sched:         s,
		sink:          sink,
		host:          host,
		window:        500 * time.Millisecond,
		solicitWindow: 2 * time.Second,
		bindings:      make(map[ethaddr.IPv4]ethaddr.MAC),
		lastRequest:   make(map[ethaddr.IPv4]time.Duration),
		sessions:      make(map[ethaddr.IPv4]*session),
		rec:           causal.Of(s),
	}
	for _, opt := range opts {
		opt(p)
	}
	host.OnARP(p.handleDirectARP)
	return p
}

// Name implements schemes.Detector.
func (p *Prober) Name() string { return "active-probe" }

// Stats returns a copy of the prober counters.
func (p *Prober) Stats() Stats { return p.stats }

// Instrument attaches the prober to a telemetry registry: probes sent and
// verification sessions by outcome. (Each session's "scheme/verify" span,
// which shows the probe window, comes from the scheduler's causal recorder.)
func (p *Prober) Instrument(reg *telemetry.Registry) {
	label := telemetry.L("scheme", p.Name())
	p.mProbes = reg.Counter("scheme_probes_sent_total", label)
	p.mSuspicions = reg.Counter("scheme_verifications_total", label, telemetry.L("outcome", "started"))
	p.mConfirmed = reg.Counter("scheme_verifications_total", label, telemetry.L("outcome", "confirmed"))
	p.mCleared = reg.Counter("scheme_verifications_total", label, telemetry.L("outcome", "cleared"))
}

// Seed preloads a known-good binding.
func (p *Prober) Seed(ip ethaddr.IPv4, mac ethaddr.MAC) { p.bindings[ip] = mac }

// Observe implements schemes.Detector over the mirror feed.
func (p *Prober) Observe(ev netsim.TapEvent) {
	if ev.Frame.Type != frame.TypeARP {
		return
	}
	pkt, err := arppkt.DecodeFrame(ev.Frame)
	if err != nil {
		return
	}
	now := ev.At
	if pkt.Op == arppkt.OpRequest && !pkt.IsProbe() {
		p.lastRequest[pkt.TargetIP] = now
	}
	ip, mac := pkt.Binding()
	if ip.IsZero() || !mac.IsUnicast() {
		return
	}
	if mac == p.host.MAC() {
		return // our own probe traffic
	}

	prior, known := p.bindings[ip]
	suspicious := false
	var detail string
	switch {
	case known && prior != mac:
		suspicious = true
		detail = "binding changed"
	case pkt.Op == arppkt.OpReply && !pkt.IsGratuitous():
		if last, ok := p.lastRequest[ip]; !ok || now-last > p.solicitWindow {
			suspicious = true
			detail = "unsolicited reply"
		}
	case !known && p.verifyNew:
		suspicious = true
		detail = "new station"
	}
	if !suspicious {
		if !known {
			p.bindings[ip] = mac
		}
		return
	}
	p.verify(ip, mac, prior, detail)
}

// verify starts (or joins) a probe session for ip.
func (p *Prober) verify(ip ethaddr.IPv4, claimed, old ethaddr.MAC, detail string) {
	if _, running := p.sessions[ip]; running {
		return
	}
	p.stats.Suspicions++
	p.mSuspicions.Inc()
	sess := &session{
		claimedMAC: claimed,
		oldMAC:     old,
		startedAt:  p.sched.Now(),
		repliers:   make(map[ethaddr.MAC]bool),
	}
	if p.rec != nil { // don't render ip when tracing is off
		// A detached leaf: probes, timers and the alert stay under the
		// inspection that raised the suspicion.
		sess.span = p.rec.Begin("scheme", "verify").Attr("scheme", p.Name()).Attr("target", ip.String())
		sess.span.Detach()
	}
	p.sessions[ip] = sess
	p.sendProbe(ip)
	p.sched.After(p.window/2, func() { p.sendProbe(ip) }) // one retry
	p.sched.After(p.window, func() { p.conclude(ip, detail) })
}

// sendProbe broadcasts one address probe for ip.
func (p *Prober) sendProbe(ip ethaddr.IPv4) {
	p.stats.Probes++
	p.mProbes.Inc()
	probe := arppkt.NewProbe(p.host.MAC(), ip)
	p.host.SendFrame(p.host.NewARPFrame(probe, ethaddr.BroadcastMAC))
}

// handleDirectARP collects answers to our probes. A probe answer is a reply
// with a zero target protocol address (we probe with a zero sender address,
// RFC 5227) addressed to the appliance; the appliance NIC is promiscuous,
// so everything else it overhears must be excluded here or the forged
// packets under investigation would count as their own confirmation.
func (p *Prober) handleDirectARP(pkt *arppkt.Packet, f *frame.Frame) {
	if pkt.Op != arppkt.OpReply || !pkt.TargetIP.IsZero() || f.Dst != p.host.MAC() {
		return
	}
	sess, ok := p.sessions[pkt.SenderIP]
	if !ok {
		return
	}
	sess.repliers[pkt.SenderMAC] = true
}

// conclude ends a session and classifies the outcome.
func (p *Prober) conclude(ip ethaddr.IPv4, detail string) {
	sess, ok := p.sessions[ip]
	if !ok {
		return
	}
	delete(p.sessions, ip)
	now := p.sched.Now()

	switch {
	case len(sess.repliers) > 1:
		p.stats.Confirmed++
		p.mConfirmed.Inc()
		sess.finish("confirmed")
		p.sink.Report(schemes.Alert{
			At: now, Scheme: p.Name(), Kind: schemes.AlertConflict,
			IP: ip, OldMAC: sess.oldMAC, NewMAC: sess.claimedMAC,
			Detail: detail + "; multiple stations answered probe",
		})
	case len(sess.repliers) == 1:
		var answer ethaddr.MAC
		for mac := range sess.repliers {
			answer = mac
		}
		if answer == sess.claimedMAC {
			// The station that owns the address asserts the claimed
			// binding itself: benign (covers DHCP reassignment cleanly).
			p.stats.Cleared++
			p.mCleared.Inc()
			sess.finish("cleared")
			p.bindings[ip] = answer
			return
		}
		p.stats.Confirmed++
		p.mConfirmed.Inc()
		sess.finish("confirmed")
		p.bindings[ip] = answer // trust the prover, restore truth
		p.sink.Report(schemes.Alert{
			At: now, Scheme: p.Name(), Kind: schemes.AlertVerifyFailed,
			IP: ip, OldMAC: sess.oldMAC, NewMAC: sess.claimedMAC,
			Detail: detail + "; probe answered by " + answer.String(),
		})
	default:
		// Nobody answered: the claimed binding is unverifiable. A forged
		// binding for an absent host looks exactly like this.
		p.stats.Confirmed++
		p.mConfirmed.Inc()
		sess.finish("confirmed")
		p.sink.Report(schemes.Alert{
			At: now, Scheme: p.Name(), Kind: schemes.AlertVerifyFailed,
			IP: ip, OldMAC: sess.oldMAC, NewMAC: sess.claimedMAC,
			Detail: detail + "; probe unanswered",
		})
	}
}
