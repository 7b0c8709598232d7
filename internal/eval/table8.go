package eval

import (
	"fmt"
	"time"

	"repro/internal/faults"
	"repro/internal/stats"
)

// faultPlanForIntensity scales a composite fault plan by intensity x ∈ [0,1]:
// a Gilbert-Elliott burst-loss channel on every link (≈26% long-run loss at
// x=1), bounded reordering and duplication, plus two discrete events timed
// to land during the attack — a bystander link flap and a bystander host
// churn — the outage-and-reboot noise that tempts verifying schemes into
// false alarms. x=0 returns nil: the clean baseline runs with no plan at all.
func faultPlanForIntensity(x float64, attackAt time.Duration) *faults.Plan {
	if x <= 0 {
		return nil
	}
	atk := attackAt.Seconds()
	return &faults.Plan{Events: []faults.Event{
		{Type: faults.TypeGilbertElliott, PGoodBad: 0.12 * x, PBadGood: 0.25, LossBad: 0.8},
		{Type: faults.TypeReorder, Prob: 0.1 * x, MaxDelayMillis: 2},
		{Type: faults.TypeDuplicate, Prob: 0.05 * x},
		// Host 3's link flaps and host 4 power-cycles while the MITM is
		// live; neither is the gateway or the victim, so any alert they
		// draw is a false positive.
		{Type: faults.TypeLinkFlap, AtSeconds: atk + 5, DurationSeconds: 10, LinkAt: "lan:0/link:3"},
		{Type: faults.TypeHostChurn, AtSeconds: atk + 15, DurationSeconds: 3, HostAt: "lan:0/host:4"},
	}}
}

// table8Intensities is Table 8's fault-intensity sweep: the endpoints and
// the midpoint. Figure 8 sweeps a finer grid of its own.
var table8Intensities = []float64{0, 0.5, 1.0}

// Table8FaultRobustness measures how each detection scheme degrades as the
// network itself degrades: detection coverage, false alerts per trial, and
// median time-to-detect at increasing fault intensity.
//
// Expected shape (the survey's robustness argument): passive single-sighting
// schemes (arpwatch, snort-like) keep coverage under loss — poisoning is
// periodic, so a later round is eventually seen — but their time-to-detect
// stretches. Probe-verified schemes (active-probe, hybrid-guard) additionally
// start paying false positives, because a flapped link or a mid-reboot host
// cannot answer the verification probe and looks exactly like a spoofed
// binding.
func Table8FaultRobustness(trials int) *Table {
	t := &Table{
		ID: "Table 8",
		Title: fmt.Sprintf(
			"Detection robustness under injected faults (%d trials, 8 hosts, composite fault plan)", trials),
		Columns: []string{"scheme", "intensity", "TPR", "FP/trial", "time-to-detect p50"},
		Notes: []string{
			"intensity scales burst loss (≈26% at 1.0), reordering, duplication; flap+churn land mid-attack",
			"FP/trial: alerts naming anything but the attacked binding",
		},
	}
	var cfgs []trialConfig
	for _, scheme := range DetectionSchemes() {
		for _, x := range table8Intensities {
			for seed := int64(1); seed <= int64(trials); seed++ {
				cfgs = append(cfgs, trialConfig{
					scheme:    scheme,
					seed:      seed + 8000, // distinct seed space from Tables 3/7
					intensity: x,
					hosts:     8,
					churns:    noChurn,
					attackAt:  60 * time.Second,
					horizon:   120 * time.Second,
				})
			}
		}
	}
	results := Map(cfgs, runTrial)
	cell := 0
	for _, scheme := range DetectionSchemes() {
		for _, x := range table8Intensities {
			var detected, fps int
			var latencies []float64
			for _, res := range results[cell*trials : (cell+1)*trials] {
				if res.detected {
					detected++
					latencies = append(latencies, res.latency.Seconds()*1000)
				}
				// Under faults there is no benign-churn bookkeeping to
				// excuse an alert: every one that does not detect counts.
				fps += res.strayAlerts
			}
			cell++
			t.AddRow(scheme,
				fmt.Sprintf("%.2f", x),
				fmt.Sprintf("%.2f", stats.NewProportion(detected, trials).P),
				fmt.Sprintf("%.2f", float64(fps)/float64(trials)),
				latencyCell(latencies, 0.5),
			)
		}
	}
	return t
}
