package eval

import (
	"time"

	"repro/internal/attack"
	"repro/internal/ethaddr"
	"repro/internal/labnet"
	"repro/internal/netsim"
	"repro/internal/schemes/kernelpolicy"
	"repro/internal/sim"
	"repro/internal/stack"
)

// Table2PolicyMatrix measures, for every host cache-policy profile and
// every attack variant, whether the attack poisons the victim's cache —
// once against an empty cache (creation) and once against an established
// genuine binding (overwrite). Cells read "create/overwrite" with ✓ for a
// successful attack.
//
// Expected shape: the naive stack falls to everything; reply-only stops
// request-borne poison; no-overwrite protects established entries only;
// solicited-only stops every push but still loses the reply race.
func Table2PolicyMatrix() *Table {
	t := &Table{
		ID:      "Table 2",
		Title:   "Attack success vs host cache policy (create/overwrite; ✓ = victim poisoned)",
		Columns: []string{"policy", "gratuitous", "unsolicited-reply", "request-spoof", "reply-race"},
		Notes: []string{
			"create: attack against an empty cache; overwrite: against an established genuine binding",
			"reply-race ran with the genuine owner 2ms farther than the attacker",
		},
	}
	mark := func(b bool) string {
		if b {
			return "✓"
		}
		return "✗"
	}
	profiles := kernelpolicy.Profiles()
	variants := attack.Variants()
	type cell struct{ profIdx, varIdx int }
	var cells []cell
	for pi := range profiles {
		for vi := range variants {
			cells = append(cells, cell{pi, vi})
		}
	}
	marks := Map(cells, func(c cell) string {
		prof := profiles[c.profIdx]
		v := variants[c.varIdx]
		create := runPolicyTrial(prof.Policy, v, false)
		overwrite := runPolicyTrial(prof.Policy, v, true)
		return mark(create) + "/" + mark(overwrite)
	})
	i := 0
	for _, prof := range profiles {
		row := []any{prof.Name}
		for range variants {
			row = append(row, marks[i])
			i++
		}
		t.AddRow(row...)
	}
	return t
}

// runPolicyTrial runs one attack trial and reports whether the victim's
// cache ends up bound to the attacker.
func runPolicyTrial(policy stack.Policy, v attack.Variant, established bool) bool {
	if v == attack.VariantReplyRace {
		return runRaceTrial(policy, established, 1, 0, 2*time.Millisecond, 0) > 0
	}
	l := labnet.New(labnet.Config{
		Policy:       policy,
		WithAttacker: true,
		WithMonitor:  false,
	})
	defer l.Recycle()
	gw, victim := l.Gateway(), l.Victim()
	if established {
		victim.Resolve(gw.IP(), nil)
		if err := l.Run(time.Second); err != nil {
			return false
		}
	}
	l.Attacker.Poison(v, gw.IP(), l.Attacker.MAC(), victim.MAC(), victim.IP())
	if err := l.Run(2 * time.Second); err != nil {
		return false
	}
	mac, ok := victim.Cache().Lookup(gw.IP())
	return ok && mac == l.Attacker.MAC()
}

// runRaceTrial runs `trials` independent reply-race attempts (fanned out
// across the trial worker pool) and returns how many the attacker won (the
// victim cached the forged binding).
// ownerExtraLatency handicaps the genuine owner's link; attackerDelay is
// the forger's reaction delay; jitter randomizes both links.
func runRaceTrial(policy stack.Policy, established bool, trials int, attackerDelay, ownerExtraLatency, jitter time.Duration) int {
	wins := 0
	for _, won := range RunTrials(trials, func(seed int64) bool {
		return raceOnce(policy, established, seed, attackerDelay, ownerExtraLatency, jitter)
	}) {
		if won {
			wins++
		}
	}
	return wins
}

// raceOnce runs a single race with a custom-built topology (per-host link
// parameters are not expressible through labnet).
func raceOnce(policy stack.Policy, established bool, seed int64, attackerDelay, ownerExtraLatency, jitter time.Duration) bool {
	s := sim.NewScheduler(seed)
	sw := netsim.NewSwitch(s)
	gen := ethaddr.NewGen(seed)
	subnet := ethaddr.MustParseSubnet("192.168.88.0/24")
	base := 50 * time.Microsecond

	linkOpts := func(lat time.Duration) []netsim.LinkOption {
		opts := []netsim.LinkOption{netsim.WithLatency(lat)}
		if jitter > 0 {
			opts = append(opts, netsim.WithJitter(jitter))
		}
		return opts
	}

	victimNIC := netsim.NewNIC(s, gen.SeqMAC())
	sw.AddPort().Attach(victimNIC, linkOpts(base)...)
	victim := stack.NewHost(s, "victim", victimNIC, subnet.Host(1),
		stack.WithPolicy(policy), stack.WithCacheTTL(5*time.Second))

	ownerNIC := netsim.NewNIC(s, gen.SeqMAC())
	sw.AddPort().Attach(ownerNIC, linkOpts(base+ownerExtraLatency)...)
	owner := stack.NewHost(s, "gateway", ownerNIC, subnet.Host(254),
		stack.WithPolicy(policy))

	atkNIC := netsim.NewNIC(s, gen.SeqMAC())
	sw.AddPort().Attach(atkNIC, linkOpts(base)...)
	attacker := attack.New(s, atkNIC, subnet.Host(66))

	// The outcome is sampled shortly after resolution completes, before
	// cache expiry can blur who won.
	poisoned := false
	race := func() {
		attacker.ArmReplyRace(owner.IP(), victim.IP(), attackerDelay)
		victim.Resolve(owner.IP(), func(ethaddr.MAC, bool) {
			s.After(100*time.Millisecond, func() {
				mac, ok := victim.Cache().Lookup(owner.IP())
				poisoned = ok && mac == attacker.MAC()
			})
		})
	}
	if established {
		// Let the genuine binding land, then let it expire so the victim
		// re-resolves into the race.
		victim.Resolve(owner.IP(), nil)
		s.At(7*time.Second, race) // past the 5s TTL
	} else {
		race()
	}
	if err := s.RunUntil(20 * time.Second); err != nil {
		return false
	}
	return poisoned
}
