package eval

import (
	"fmt"
	"time"

	"repro/internal/labnet"
	"repro/internal/schemes"
	"repro/internal/schemes/middleware"
	"repro/internal/schemes/registry"
)

// Figure6WindowAblation sweeps link loss against the middleware's
// verification window and reports the rate at which *genuine* resolutions
// are falsely rejected — the design-choice trade DESIGN.md calls out: a
// short window answers fast but, on lossy media (Wi-Fi), loses its own
// probes and punishes legitimate peers; a long window is robust but delays
// every first resolution by its full length (Table 4's latency column).
//
// Expected shape: false-rejection rate grows with loss and shrinks with
// window length (each window fits more probe retries); at zero loss every
// window is clean.
func Figure6WindowAblation(attemptsPerPoint int) *Figure {
	f := &Figure{
		ID:     "Figure 6",
		Title:  fmt.Sprintf("Middleware false rejections vs link loss, per verify window (%d genuine resolutions/point)", attemptsPerPoint),
		XLabel: "link_loss_probability",
		YLabel: "false_rejection_rate",
		XFmt:   "%.2f",
		YFmt:   "%.3f",
		Notes: []string{
			"false rejection: a genuine binding quarantined and then discarded because probe traffic was lost",
			"probes repeat every ≤100ms until the window closes, so longer windows buy loss tolerance",
		},
	}
	type cell struct {
		window time.Duration
		loss   float64
	}
	var cells []cell
	for _, window := range []time.Duration{100 * time.Millisecond, 300 * time.Millisecond, time.Second} {
		for _, loss := range []float64{0, 0.05, 0.1, 0.2, 0.3} {
			cells = append(cells, cell{window, loss})
		}
	}
	rates := Map(cells, func(c cell) float64 {
		return windowAblationPoint(c.window, c.loss, attemptsPerPoint)
	})
	for i, c := range cells {
		f.AddPoint(c.window.String(), c.loss, rates[i])
	}
	return f
}

// windowAblationPoint measures the false-rejection fraction of quarantined
// genuine bindings for one (window, loss) cell.
func windowAblationPoint(window time.Duration, loss float64, attempts int) float64 {
	var committed, rejected uint64
	for seed := int64(1); seed <= 4; seed++ {
		l := labnet.New(labnet.Config{
			Seed:         seed,
			Hosts:        4,
			WithAttacker: false,
			WithMonitor:  false,
			LinkLoss:     loss,
		})
		victim, gw := l.Victim(), l.Gateway()
		sink := schemes.NewSink()
		inst, err := registry.Deploy(l.Env(sink, nil), registry.NameMiddleware,
			registry.P{"verifyWindowSeconds": window.Seconds()})
		if err != nil {
			panic(fmt.Sprintf("eval: deploy middleware: %v", err)) // a bug, not a result
		}
		g := inst.Handle.([]*middleware.Guard)[0]

		per := attempts / 4
		if per < 1 {
			per = 1
		}
		var loop func(i int)
		loop = func(i int) {
			if i >= per {
				return
			}
			victim.Cache().Delete(gw.IP())
			victim.Resolve(gw.IP(), nil)
			// Next attempt after the window plus slack for retries.
			l.Sched.After(window+5*time.Second, func() { loop(i + 1) })
		}
		loop(0)
		_ = l.Run(time.Duration(per) * (window + 6*time.Second))
		st := g.Stats()
		committed += st.Committed
		rejected += st.Rejected
		l.Recycle()
	}
	total := committed + rejected
	if total == 0 {
		return 0
	}
	return float64(rejected) / float64(total)
}
