// Command arpguard deploys a chosen defense scheme — or a defense-in-depth
// stack of them — on a simulated LAN, replays a poisoning scenario against
// it, and reports what the deployment saw and stopped. The run itself is a
// scenario.Run; this command adds the victim's warm-up resolution, the ops
// surface and the narration through the scenario's topology hook.
//
// Usage:
//
//	arpguard -scheme hybrid-guard -attack mitm
//	arpguard -scheme dai -attack gratuitous
//	arpguard -scheme dai+arpwatch+port-security -attack mitm
//	arpguard -schemes
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"repro/internal/eval"
	"repro/internal/ops"
	"repro/internal/scenario"
	"repro/internal/schemes/registry"
	"repro/internal/telemetry"
)

func main() {
	if err := run(os.Stdout, os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "arpguard:", err)
		os.Exit(1)
	}
}

// guardParams adjusts registry defaults for this workbench: the NIDS gets
// only the gateway signature (the attack under test forges the gateway),
// and the guard also shields the victim host.
var guardParams = map[string]json.RawMessage{
	registry.NameSnortLike:   json.RawMessage(`{"bindVictim": false}`),
	registry.NameHybridGuard: json.RawMessage(`{"protectVictim": true}`),
}

// guardAttacks maps -attack to its scenario action. Each launches at 2s,
// after the victim's warm-up resolution of the gateway has settled.
var guardAttacks = map[string]scenario.AttackSpec{
	"gratuitous":        {AtSeconds: 2, Type: "poison", Variant: "gratuitous"},
	"unsolicited-reply": {AtSeconds: 2, Type: "poison", Variant: "unsolicited-reply"},
	"request-spoof":     {AtSeconds: 2, Type: "poison", Variant: "request-spoof"},
	"mitm":              {AtSeconds: 2, Type: "mitm"},
	"scan":              {AtSeconds: 2, Type: "scan", Count: 120},
}

func run(w io.Writer, args []string) error {
	fs := flag.NewFlagSet("arpguard", flag.ContinueOnError)
	scheme := fs.String("scheme", registry.NameHybridGuard,
		"scheme name from -schemes, or a '+'-joined stack (e.g. dai+arpwatch+port-security)")
	listSchemes := fs.Bool("schemes", false, "print the scheme catalogue (name, vantage, cost, default params) and exit")
	atk := fs.String("attack", "mitm", "gratuitous | unsolicited-reply | request-spoof | mitm | scan")
	metricsPath := fs.String("metrics", "", "write the telemetry snapshot to this file (JSON, or Prometheus text with a .prom suffix)")
	httpAddr := ops.Flag(fs)
	traceRun := fs.Bool("trace", false, "enable causal tracing: print the attack's span tree and its detection-latency stage attribution")
	verbose := fs.Bool("v", false, "stream telemetry events to stderr as NDJSON")
	seed := fs.Int64("seed", 1, "simulation seed")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *listSchemes {
		return registry.WriteCatalogue(w)
	}

	st, err := registry.ParseStack(*scheme)
	if err != nil {
		return err
	}
	attackSpec, ok := guardAttacks[*atk]
	if !ok {
		return fmt.Errorf("unknown attack %q", *atk)
	}
	spec := &scenario.Spec{Seed: *seed, Hosts: 6, DurationSeconds: 15, Attacks: []scenario.AttackSpec{attackSpec}}
	for i, sel := range st.Schemes {
		st.Schemes[i].Params = guardParams[sel.Name]
	}
	// A single scheme deploys directly; a '+'-joined stack routes members
	// through the shared correlator.
	if len(st.Schemes) == 1 {
		spec.Schemes = []scenario.SchemeSpec{{Name: st.Schemes[0].Name, Params: st.Schemes[0].Params}}
	} else {
		spec.Stacks = []registry.Stack{st}
	}

	reg := telemetry.New()
	if *verbose {
		reg.Events().StreamTo(os.Stderr, telemetry.SevDebug)
	}
	opts := []scenario.RunOption{scenario.WithRegistry(reg)}
	if *traceRun {
		opts = append(opts, scenario.WithTracing())
	}
	srv, err := ops.Start(*httpAddr, reg)
	if err != nil {
		return err
	}
	var end time.Duration
	defer func() { srv.Finish(end, "end of run, no alerts") }()

	fmt.Fprintf(w, "scheme %s vs attack %s (victims run the naive cache policy)\n\n", st.Label(), *atk)
	opts = append(opts, scenario.WithHook(func(d *scenario.Deployment) func() {
		site := d.Sites[0]
		l := site.LAN
		gw, victim := l.Gateway(), l.Victim()
		// Every alert trips the flight recorder: the dump holds the spans
		// and events leading up to the detection.
		srv.Watch(l.Sched, site.Sink)
		// A victim that never resolved its gateway has nothing worth
		// hijacking: warm the cache with one legitimate resolution, so a
		// late legit reply cannot cure the poison. (Crypto LANs ignore the
		// plain request; their nodes resolve out of band.)
		victim.Resolve(gw.IP(), nil)
		return func() {
			end = l.Sched.Now()
			verdict := "clean"
			if mac, ok := victim.Cache().Lookup(gw.IP()); ok && mac == l.Attacker.MAC() {
				verdict = fmt.Sprintf("POISONED (gateway → %s)", mac)
			}
			fmt.Fprintf(w, "victim cache: %s\nalerts: %d\n", verdict, site.Sink.Len())
			for _, a := range site.Sink.Alerts() {
				fmt.Fprintf(w, "  %s\n", a)
			}
			for _, si := range d.Stacks {
				cs := si.Correlation()
				fmt.Fprintf(w, "correlation: %d forwarded, %d suppressed (%d cross-scheme)\n",
					cs.Forwarded, cs.Suppressed, cs.CrossScheme)
			}
			for _, g := range d.Guards {
				for _, inc := range g.Incidents() {
					fmt.Fprintf(w, "incident: ip=%s suspect=%s alerts=%d confirmed=%v window=[%v..%v]\n",
						inc.IP, inc.Suspect, inc.Alerts, inc.Confirmed, inc.FirstAt, inc.LastAt)
				}
			}
			if *traceRun {
				eval.WriteDetectionTrace(w, reg, st.Label(), gw.IP().String(), victim.IP().String())
			}
		}
	}))
	if _, err := scenario.Run(spec, opts...); err != nil {
		return err
	}
	if *metricsPath != "" {
		if err := reg.WriteFile(*metricsPath); err != nil {
			return err
		}
		fmt.Fprintf(w, "metrics written to %s\n", *metricsPath)
	}
	return nil
}
