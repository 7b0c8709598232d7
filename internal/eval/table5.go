package eval

import (
	"fmt"
	"time"

	"repro/internal/ethaddr"
	"repro/internal/labnet"
	"repro/internal/schemes"
	"repro/internal/schemes/registry"
)

// ablationOutcome is one hybrid-guard configuration's result on the standard
// MITM-plus-churn scenario.
type ablationOutcome struct {
	detected   bool
	confirmed  bool
	fpAlerts   int
	poisonHeld bool // the victim's cache still held the forgery at the end
}

// runAblation runs the fixed ablation scenario with one hybrid-guard
// parameterization (nil params = no guard at all).
func runAblation(seed int64, params registry.P) ablationOutcome {
	l := newAttackLAN(labnet.Config{Seed: seed, Hosts: 8})
	defer l.Recycle()
	gw, victim := l.Gateway(), l.Victim()

	var inst *registry.Instance
	if params != nil {
		var err error
		inst, err = registry.Deploy(l.Env(schemes.NewSink(), nil), registry.NameHybridGuard, params)
		if err != nil {
			panic(fmt.Sprintf("eval: deploy hybrid-guard: %v", err)) // a bug, not a result
		}
	}

	warmAttackLAN(l)

	// Two benign churn events.
	churned := make(map[ethaddr.IPv4]bool)
	for i, at := range []time.Duration{20 * time.Second, 80 * time.Second} {
		target := l.Hosts[3+i]
		l.Sched.At(at, func() {
			replaceStation(l, target)
			churned[target.IP()] = true
		})
	}

	// The MITM at t=60s.
	launchGatewayMITM(&labnet.Site{LAN: l}, 60*time.Second)
	_ = l.Run(2 * time.Minute)

	out := ablationOutcome{}
	if mac, ok := victim.Cache().Lookup(gw.IP()); ok && mac == l.Attacker.MAC() {
		out.poisonHeld = true
	}
	if inst == nil {
		return out
	}
	// Detection and FP accounting use the incidents an operator would be
	// paged for: confirmed ones when the verifier runs, all otherwise.
	for _, inc := range inst.ActionableIncidents() {
		switch {
		case inc.IP == gw.IP() || inc.IP == victim.IP():
			out.detected = true
			out.confirmed = out.confirmed || inc.Confirmed
		case churned[inc.IP]:
			out.fpAlerts++
		}
	}
	return out
}

// Table5Ablation toggles the hybrid-guard members on the standard scenario and
// reports what each configuration buys.
//
// Expected shape: passive-only detects but cannot confirm and pays churn
// FPs; active-only confirms with no churn FPs; the full guard does both;
// adding host protection is the only configuration that also *prevents*
// the victim's cache from holding the forgery.
func Table5Ablation(trials int) *Table {
	t := &Table{
		ID:      "Table 5",
		Title:   fmt.Sprintf("Hybrid Guard ablation on MITM + churn (%d trials)", trials),
		Columns: []string{"configuration", "detected", "confirmed", "FP alerts", "victim stayed poisoned"},
	}
	configs := []struct {
		name   string
		params registry.P
	}{
		{"no guard (baseline)", nil},
		{"passive only", registry.P{"active": false, "seedGateway": false}},
		{"active only", registry.P{"passive": false, "seedGateway": false}},
		{"passive + active", registry.P{"seedGateway": false}},
		{"passive + active + host protection", registry.P{"seedGateway": false, "protectVictim": true}},
	}
	for _, cfg := range configs {
		params := cfg.params
		var detected, confirmed, fps, held int
		for _, out := range RunTrials(trials, func(seed int64) ablationOutcome {
			return runAblation(seed, params)
		}) {
			if out.detected {
				detected++
			}
			if out.confirmed {
				confirmed++
			}
			fps += out.fpAlerts
			if out.poisonHeld {
				held++
			}
		}
		frac := func(k int) string { return fmt.Sprintf("%d/%d", k, trials) }
		t.AddRow(cfg.name, frac(detected), frac(confirmed), fps, frac(held))
	}
	return t
}
