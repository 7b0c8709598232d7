package eval

import (
	"fmt"
	"time"

	"repro/internal/arppkt"
	"repro/internal/ethaddr"
	"repro/internal/frame"
	"repro/internal/labnet"
	"repro/internal/schemes"
	"repro/internal/schemes/registry"
)

// Table6EvasiveAttacker runs the strongest attacker posture the analysis
// discusses — wait for the genuine owner to go offline, then fully
// impersonate it, answering requests *and* verification probes — against
// each scheme, and reports who gets deceived.
//
// Expected shape (the analysis' inversion): active verification, the
// precision champion of Table 3, is *cleanly evaded* (the probe sees one
// consistent answer), and host middleware commits the forgery for the same
// reason; the passive monitor still flags the binding change it can't
// explain; DAI and the cryptographic schemes remain immune because their
// ground truth is not "who answers on the wire".
func Table6EvasiveAttacker(trials int) *Table {
	t := &Table{
		ID:      "Table 6",
		Title:   fmt.Sprintf("Evasive impersonation (owner offline, attacker answers probes; %d trials)", trials),
		Columns: []string{"scheme", "victim deceived", "attack flagged"},
		Notes: []string{
			"deceived: the victim's traffic for the offline owner's address goes to the attacker",
			"flagged: the scheme raised at least one actionable alert naming the address",
			"active verification is evaded by design here — the blind spot the hybrid inherits",
		},
	}
	evasiveSchemes := []string{
		registry.NameArpwatch,
		registry.NameActiveProbe,
		registry.NameMiddleware,
		registry.NameHybridGuard,
		registry.NameDAI,
		registry.NameSARP,
	}
	for _, scheme := range evasiveSchemes {
		scheme := scheme
		var deceived, flagged int
		for _, out := range RunTrials(trials, func(seed int64) [2]bool {
			d, f := runEvasiveTrial(scheme, seed)
			return [2]bool{d, f}
		}) {
			if out[0] {
				deceived++
			}
			if out[1] {
				flagged++
			}
		}
		frac := func(k int) string { return fmt.Sprintf("%d/%d", k, trials) }
		t.AddRow(scheme, frac(deceived), frac(flagged))
	}
	return t
}

// evasiveParams: every scheme runs with its registry defaults (the operator
// seeded the critical gateway binding), except S-ARP, which converts only
// the regular stations — the monitor plays no role in this scenario.
var evasiveParams = map[string]registry.P{
	registry.NameSARP: {"includeMonitor": false},
}

// runEvasiveTrial runs one impersonation scenario under one scheme and
// reports (victim deceived, attack flagged).
func runEvasiveTrial(scheme string, seed int64) (bool, bool) {
	l := newAttackLAN(labnet.Config{Seed: seed, Hosts: 6})
	defer l.Recycle()
	gw, victim := l.Gateway(), l.Victim()
	sink := schemes.NewSink()

	inst, err := registry.Deploy(l.Env(sink, nil), scheme, evasiveParams[scheme])
	if err != nil {
		panic(fmt.Sprintf("eval: deploy %s: %v", scheme, err)) // a bug, not a result
	}

	// Victim establishes the genuine binding (over plain ARP — the secured
	// schemes convert stations after initial provisioning), then the owner
	// goes dark and the attacker assumes the address.
	victim.Resolve(gw.IP(), nil)
	l.Sched.At(10*time.Second, func() {
		gw.NIC().SetUp(false)
		l.Attacker.Impersonate(gw.IP())
		// The takeover announcement (the impersonator must advertise to
		// capture caches before anyone re-asks).
		gratuitous := forgedGratuitous(l)
		l.Attacker.NIC().Send(gratuitous)
	})
	// Past the 60s cache TTL, the victim re-resolves and talks — through
	// the scheme's resolution path when it replaces the protocol.
	l.Sched.At(80*time.Second, func() {
		inst.ResolverFor(victim)(gw.IP(), nil)
	})
	_ = l.Run(2 * time.Minute)

	mac, ok := victim.Cache().Lookup(gw.IP())
	deceived := ok && mac == l.Attacker.MAC()

	flagged := false
	if incs := inst.ActionableIncidents(); inst.FoldsIncidents() {
		for _, inc := range incs {
			if inc.IP == gw.IP() {
				flagged = true
			}
		}
	} else {
		for _, a := range sink.Alerts() {
			if a.IP == gw.IP() {
				flagged = true
			}
		}
	}
	return deceived, flagged
}

// forgedGratuitous builds the impersonator's takeover broadcast.
func forgedGratuitous(l *labnet.LAN) *frame.Frame {
	p := arppkt.NewGratuitousRequest(l.Attacker.MAC(), l.Gateway().IP())
	return arppkt.ArenaOf(l.Sched).NewFrame(p, l.Attacker.MAC(), ethaddr.BroadcastMAC)
}
