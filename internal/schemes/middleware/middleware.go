// Package middleware implements the host-resident, backward-compatible
// validation scheme the paper analyzes (the Tripunitara–Dutta middleware
// approach): inbound ARP messages whose asserted binding is new or differs
// from the cache are quarantined instead of committed, the host probes the
// claimed address, and only a binding confirmed by its owner is released
// into the cache. Protocol behaviour toward peers is preserved — requests
// for this host are still answered immediately — so the scheme deploys one
// host at a time with no infrastructure change.
//
// The cost is a verification delay on every first resolution and probe
// traffic per suspicious assertion; both appear in the overhead experiments.
// Its strength over passive schemes is precision: a benign readdressing is
// confirmed by the new owner and commits cleanly, while a forgery is
// contradicted by the genuine owner and discarded with an alert.
package middleware

import (
	"time"

	"repro/internal/arppkt"
	"repro/internal/ethaddr"
	"repro/internal/frame"
	"repro/internal/schemes"
	"repro/internal/sim"
	"repro/internal/stack"
	"repro/internal/telemetry"
	"repro/internal/telemetry/causal"
)

// Option configures the Guard.
type Option func(*Guard)

// WithVerifyWindow sets how long quarantined bindings wait for probe
// confirmation (default 300ms).
func WithVerifyWindow(d time.Duration) Option {
	return func(g *Guard) { g.window = d }
}

// Stats counts guard activity.
type Stats struct {
	Passed      uint64 // packets consistent with the cache, no quarantine
	Ignored     uint64 // third-party bindings this host would never adopt
	Quarantined uint64 // verification sessions opened
	Committed   uint64 // quarantined bindings confirmed and released
	Rejected    uint64 // quarantined bindings contradicted or unconfirmed
	Probes      uint64
}

// session holds one quarantined packet pending verification.
type session struct {
	packet   *arppkt.Packet
	repliers map[ethaddr.MAC]bool
	span     *causal.ActiveSpan // nil (no-op) when tracing is off
}

// finish closes the session's span with its outcome.
func (s *session) finish(outcome string) { s.span.Attr("outcome", outcome).Finish() }

// Guard is the per-host middleware. Install exactly one per protected host.
type Guard struct {
	sched    *sim.Scheduler
	sink     *schemes.Sink
	host     *stack.Host
	window   time.Duration
	sessions map[ethaddr.IPv4]*session
	stats    Stats
	rec      *causal.Recorder

	// Telemetry handles; nil (no-op) unless Instrument is called.
	mProbes      *telemetry.Counter
	mQuarantined *telemetry.Counter
	mCommitted   *telemetry.Counter
	mRejected    *telemetry.Counter
}

// New installs the middleware on host.
func New(s *sim.Scheduler, sink *schemes.Sink, host *stack.Host, opts ...Option) *Guard {
	g := &Guard{
		sched:    s,
		sink:     sink,
		host:     host,
		window:   300 * time.Millisecond,
		sessions: make(map[ethaddr.IPv4]*session),
		rec:      causal.Of(s),
	}
	for _, opt := range opts {
		opt(g)
	}
	host.SetARPHook(g.hook)
	return g
}

// Name identifies the scheme in alerts.
func (g *Guard) Name() string { return "middleware" }

// Stats returns a copy of the counters.
func (g *Guard) Stats() Stats { return g.stats }

// Instrument attaches the guard to a telemetry registry: probes sent and
// quarantines by outcome. (Each quarantine's "scheme/verify" span, which
// shows the verification delay the scheme imposes, comes from the
// scheduler's causal recorder.)
func (g *Guard) Instrument(reg *telemetry.Registry) {
	label := telemetry.L("scheme", g.Name())
	g.mProbes = reg.Counter("scheme_probes_sent_total", label)
	g.mQuarantined = reg.Counter("scheme_quarantines_total", label, telemetry.L("outcome", "opened"))
	g.mCommitted = reg.Counter("scheme_quarantines_total", label, telemetry.L("outcome", "committed"))
	g.mRejected = reg.Counter("scheme_quarantines_total", label, telemetry.L("outcome", "rejected"))
}

// hook intercepts every inbound ARP packet before the cache sees it,
// running the inspection inside a "scheme" span — the host-resident
// counterpart of schemes.CausalTap, so the quarantine window this scheme
// imposes is attributed to inspection rather than to the delivering link.
// Returning true lets normal processing proceed; false suppresses it.
func (g *Guard) hook(p *arppkt.Packet, f *frame.Frame) bool {
	sp := g.rec.Begin("scheme", "inspect")
	if sp != nil {
		sp.Attr("scheme", g.Name())
	}
	ok := g.inspect(p, f)
	sp.End()
	return ok
}

// inspect is the hook body: classify, quarantine, or pass.
func (g *Guard) inspect(p *arppkt.Packet, f *frame.Frame) bool {
	// Answers to our verification probes: replies addressed to us with a
	// zero target protocol address (we probe with a zero sender address).
	if p.Op == arppkt.OpReply && p.TargetIP.IsZero() {
		if sess, ok := g.sessions[p.SenderIP]; ok {
			sess.repliers[p.SenderMAC] = true
		}
		return false // never commit probe answers directly
	}

	ip, mac := p.Binding()
	if ip.IsZero() || !mac.IsUnicast() {
		return true // carries no binding; harmless
	}
	if cached, ok := g.host.Cache().Lookup(ip); ok && cached == mac {
		g.stats.Passed++
		return true // consistent with what we already believe
	}

	// Only verify bindings this host would actually adopt: a change to an
	// entry we hold, a request we are about to answer, or a reply spoken
	// to us (the RFC 826 merge cases). Overheard third-party bindings are
	// simply not cached — verifying them all would turn every broadcast
	// into a LAN-wide probe storm.
	_, haveEntry := g.host.Cache().Lookup(ip)
	addressedToUs := f.Dst == g.host.MAC() ||
		(p.Op == arppkt.OpRequest && p.TargetIP == g.host.IP())
	if !haveEntry && !addressedToUs {
		g.stats.Ignored++
		return false
	}

	// New or changed binding we care about: quarantine.
	if p.Op == arppkt.OpRequest && p.TargetIP == g.host.IP() && !p.IsGratuitous() {
		// Stay protocol-correct: answer the requester immediately even
		// though we are not yet willing to cache its binding.
		reply := arppkt.NewReply(g.host.MAC(), g.host.IP(), p.SenderMAC, p.SenderIP)
		g.host.SendFrame(g.host.NewARPFrame(reply, p.SenderMAC))
	}
	g.quarantine(p)
	return false
}

// quarantine opens (or joins) a verification session for the packet's
// asserted binding.
func (g *Guard) quarantine(p *arppkt.Packet) {
	ip, _ := p.Binding()
	if sess, running := g.sessions[ip]; running {
		// Keep the most recent assertion; the decision compares against
		// whoever actually answers the probe.
		sess.packet = p
		return
	}
	g.stats.Quarantined++
	g.mQuarantined.Inc()
	sess := &session{
		packet:   p,
		repliers: make(map[ethaddr.MAC]bool),
	}
	if g.rec != nil { // don't render ip when tracing is off
		// A detached leaf: probes, timers and the alert stay under the
		// inspection that opened the quarantine.
		sess.span = g.rec.Begin("scheme", "verify").Attr("scheme", g.Name()).Attr("target", ip.String())
		sess.span.Detach()
	}
	g.sessions[ip] = sess
	// Probe immediately and then every retry interval until the window
	// closes: longer windows buy loss tolerance, which is exactly the
	// trade the window-ablation experiment measures.
	retry := g.window / 2
	if retry > 100*time.Millisecond {
		retry = 100 * time.Millisecond
	}
	for at := time.Duration(0); at < g.window; at += retry {
		at := at
		g.sched.After(at, func() {
			if _, running := g.sessions[ip]; running {
				g.sendProbe(ip)
			}
		})
	}
	g.sched.After(g.window, func() { g.conclude(ip) })
}

// sendProbe broadcasts one address probe for ip.
func (g *Guard) sendProbe(ip ethaddr.IPv4) {
	g.stats.Probes++
	g.mProbes.Inc()
	probe := arppkt.NewProbe(g.host.MAC(), ip)
	g.host.SendFrame(g.host.NewARPFrame(probe, ethaddr.BroadcastMAC))
}

// conclude decides a session: commit on confirmation, reject otherwise.
func (g *Guard) conclude(ip ethaddr.IPv4) {
	sess, ok := g.sessions[ip]
	if !ok {
		return
	}
	delete(g.sessions, ip)
	_, claimed := sess.packet.Binding()

	if len(sess.repliers) == 1 && sess.repliers[claimed] {
		g.stats.Committed++
		g.mCommitted.Inc()
		sess.finish("commit")
		g.host.ProcessARP(sess.packet)
		return
	}
	g.stats.Rejected++
	g.mRejected.Inc()
	sess.finish("reject")
	detail := "probe unanswered"
	if len(sess.repliers) > 1 {
		detail = "conflicting probe answers"
	} else if len(sess.repliers) == 1 {
		detail = "probe answered by a different station"
	}
	g.sink.Report(schemes.Alert{
		At: g.sched.Now(), Scheme: g.Name(), Kind: schemes.AlertVerifyFailed,
		IP: ip, NewMAC: claimed, Detail: detail,
	})
}
