package eval

import (
	"time"

	"repro/internal/attack"
	"repro/internal/labnet"
	"repro/internal/stack"
)

// Figure7DefenseWar sweeps the attacker's re-poisoning period against a
// gateway running RFC 5227 address defense and plots the fraction of time
// the victim's cache stays poisoned — the duty-cycle war the
// address-defense matrix row describes. An undefended baseline pins the
// top of the plot.
//
// Expected shape: undefended, one poison pushes the fraction to ≈1 at any
// period. Defended, each broadcast forgery is answered by a reassertion,
// so the poisoned fraction falls as the attacker slows: at periods longer
// than the defense's rate limit the victim is clean almost always, while
// a fast attacker (period ≪ limit) still owns most of the timeline.
func Figure7DefenseWar(samplesPerCell int) *Figure {
	f := &Figure{
		ID:     "Figure 7",
		Title:  "Fraction of time poisoned vs attacker re-poison period (gateway defense rate-limited to 1s)",
		XLabel: "attacker_period_seconds",
		YLabel: "poisoned_time_fraction",
		XFmt:   "%.1f",
		YFmt:   "%.3f",
		Notes: []string{
			"gratuitous-broadcast poisoning of the gateway's address; the gateway hears each forgery and reasserts",
			"defense repairs every naive cache on the segment at once — one reassertion, LAN-wide effect",
		},
	}
	periods := []time.Duration{
		200 * time.Millisecond, 500 * time.Millisecond,
		time.Second, 2 * time.Second, 5 * time.Second, 10 * time.Second,
	}
	type cell struct {
		defended bool
		period   time.Duration
	}
	var cells []cell
	for _, defended := range []bool{false, true} {
		for _, period := range periods {
			cells = append(cells, cell{defended, period})
		}
	}
	fracs := Map(cells, func(c cell) float64 {
		return defenseWarPoint(c.period, c.defended, samplesPerCell)
	})
	for i, c := range cells {
		name := "no-defense"
		if c.defended {
			name = "defense-1s"
		}
		f.AddPoint(name, c.period.Seconds(), fracs[i])
	}
	return f
}

// defenseWarPoint measures the poisoned-time fraction for one cell.
func defenseWarPoint(period time.Duration, defended bool, samples int) float64 {
	var hostOpts []stack.Option
	if defended {
		hostOpts = append(hostOpts, stack.WithAddressDefense(time.Second))
	}
	l := labnet.New(labnet.Config{
		Seed:         int64(period) + 1,
		Hosts:        4,
		WithAttacker: true,
		WithMonitor:  false,
		HostOptions:  hostOpts,
	})
	defer l.Recycle()
	gw, victim := l.Gateway(), l.Victim()
	victim.Resolve(gw.IP(), nil)

	l.Sched.Every(period, func() {
		l.Attacker.Poison(attack.VariantGratuitous, gw.IP(), l.Attacker.MAC(),
			victim.MAC(), victim.IP())
	})

	horizon := 60 * time.Second
	if samples < 1 {
		samples = 1
	}
	gap := horizon / time.Duration(samples)
	poisoned := 0
	total := 0
	l.Sched.Every(gap, func() {
		if l.Sched.Now() < 5*time.Second {
			return // let the first poison land before sampling
		}
		total++
		if mac, ok := victim.Cache().Lookup(gw.IP()); ok && mac == l.Attacker.MAC() {
			poisoned++
		}
	})
	_ = l.Run(horizon)
	if total == 0 {
		return 0
	}
	return float64(poisoned) / float64(total)
}
