package eval

import (
	"fmt"
	"time"

	"repro/internal/labnet"
	"repro/internal/schemes"
	"repro/internal/schemes/registry"
)

// stealDeployment is one Table 7 row: a display label and the registry
// deployment behind it (empty scheme = no defense).
type stealDeployment struct {
	label  string
	scheme string
	params registry.P
}

// stealDeployments: arpwatch and the guard get both critical bindings
// seeded — the strongest reasonable ARP-layer posture, to make the point
// that the attack is invisible to them anyway.
func stealDeployments() []stealDeployment {
	return []stealDeployment{
		{label: "none"},
		{label: registry.NameArpwatch, scheme: registry.NameArpwatch, params: registry.P{"seedVictim": true}},
		{label: registry.NameDAI, scheme: registry.NameDAI},
		{label: registry.NameHybridGuard, scheme: registry.NameHybridGuard, params: registry.P{"seedVictim": true}},
		{label: "port-security-sticky", scheme: registry.NamePortSecurity},
	}
}

// Table7PortStealing runs the port-stealing attack — CAM-table theft with
// forged *Ethernet* source addresses, no ARP forgery at all — against the
// scheme families and reports who intercepts and who notices.
//
// Expected shape (the layering argument that closes the analysis): every
// ARP-layer scheme is blind, because the attack never utters a false ARP
// word; only per-port hardware identity enforcement (sticky port security)
// stops it. Defense in depth is not optional.
func Table7PortStealing(trials int) *Table {
	t := &Table{
		ID:      "Table 7",
		Title:   fmt.Sprintf("Port stealing (CAM theft, no ARP forgery) vs scheme families (%d trials)", trials),
		Columns: []string{"scheme", "traffic intercepted", "attack flagged"},
		Notes: []string{
			"the attacker steals the victim's CAM slot with forged Ethernet source addresses and restores after each capture",
			"ARP-layer schemes see a perfectly healthy ARP conversation throughout",
		},
	}
	for _, dep := range stealDeployments() {
		dep := dep
		var intercepted, flagged int
		for _, out := range RunTrials(trials, func(seed int64) [2]bool {
			i, f := runStealTrial(dep, seed)
			return [2]bool{i, f}
		}) {
			if out[0] {
				intercepted++
			}
			if out[1] {
				flagged++
			}
		}
		frac := func(k int) string { return fmt.Sprintf("%d/%d", k, trials) }
		t.AddRow(dep.label, frac(intercepted), frac(flagged))
	}
	return t
}

// runStealTrial runs one port-stealing scenario under one deployment and
// reports (traffic intercepted, attack flagged).
func runStealTrial(dep stealDeployment, seed int64) (bool, bool) {
	l := newAttackLAN(labnet.Config{Seed: seed, Hosts: 4})
	defer l.Recycle()
	gw, victim := l.Gateway(), l.Victim()
	sink := schemes.NewSink()

	var inst *registry.Instance
	if dep.scheme != "" {
		var err error
		inst, err = registry.Deploy(l.Env(sink, nil), dep.scheme, dep.params)
		if err != nil {
			panic(fmt.Sprintf("eval: deploy %s: %v", dep.scheme, err)) // a bug, not a result
		}
	}

	// Gateway→victim flow whose interception is the prize.
	gw.Resolve(victim.IP(), nil)
	l.Sched.Every(300*time.Millisecond, func() {
		gw.SendUDP(victim.IP(), 1000, 80, []byte("downlink payload"))
	})

	before := l.Attacker.Stats().Sniffed
	l.Sched.At(2*time.Second, func() {
		l.Attacker.StealPort(victim.MAC(), victim.IP(), 100*time.Millisecond, true)
	})
	_ = l.Run(12 * time.Second)

	intercepted := l.Attacker.Stats().Sniffed > before
	flagged := false
	if inst.FoldsIncidents() {
		flagged = len(inst.ActionableIncidents()) > 0
	} else {
		flagged = sink.Len() > 0
	}
	return intercepted, flagged
}
