package eval

import (
	"fmt"
	"time"

	"repro/internal/stack"
	"repro/internal/stats"
)

// Figure2RaceWindow sweeps the attacker's reaction delay in a reply race
// against a genuine owner 2ms away (both links with 1ms uniform jitter)
// and plots the poisoning success probability, for the naive and the
// solicited-only cache policies.
//
// Expected shape: against the solicited-only patched cache (first answer
// wins) a sigmoid falling from ≈1 through the crossover near the owner's
// latency advantage to ≈0; against the naive cache (last unsolicited
// writer wins) a flat line at ≈1 because the racer's trailing shot always
// lands after the genuine reply. Together they are the analysis' key
// argument: the kernel patch narrows the window but cannot close it.
func Figure2RaceWindow(trialsPerPoint int) *Figure {
	f := &Figure{
		ID:     "Figure 2",
		Title:  fmt.Sprintf("Reply-race success vs attacker delay (owner +2ms each way, 1ms jitter, %d trials/point)", trialsPerPoint),
		XLabel: "attacker_delay_ms",
		YLabel: "poisoning_probability",
		XFmt:   "%.1f",
		YFmt:   "%.3f",
	}
	policies := []struct {
		name   string
		policy stack.Policy
	}{
		{"naive", stack.PolicyNaive},
		{"solicited-only", stack.PolicySolicitedOnly},
	}
	const ownerExtra = 2 * time.Millisecond
	const jitter = time.Millisecond
	for _, p := range policies {
		for delayMS := 0.0; delayMS <= 5.0; delayMS += 0.5 {
			delay := time.Duration(delayMS * float64(time.Millisecond))
			wins := runRaceTrial(p.policy, false, trialsPerPoint, delay, ownerExtra, jitter)
			prob := stats.NewProportion(wins, trialsPerPoint)
			f.AddPoint(p.name, delayMS, prob.P)
		}
	}
	f.Notes = append(f.Notes,
		"naive stays at ≈1 at every delay (last unsolicited writer wins); solicited-only is the sigmoid")
	return f
}
