// Command arpguard deploys a chosen defense scheme — or a defense-in-depth
// stack of them — on a simulated LAN, replays a poisoning scenario against
// it, and reports what the deployment saw and stopped.
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

	"repro/internal/arppkt"
	"repro/internal/attack"
	"repro/internal/eval"
	"repro/internal/frame"
	"repro/internal/labnet"
	"repro/internal/ops"
	"repro/internal/schemes"
	"repro/internal/schemes/registry"
	_ "repro/internal/schemes/registry/all" // link every scheme factory
	"repro/internal/schemes/sarp"
	"repro/internal/schemes/tarp"
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
var guardParams = map[string]registry.P{
	registry.NameSnortLike:   {"bindVictim": false},
	registry.NameHybridGuard: {"protectVictim": true},
}

func run(w io.Writer, args []string) error {
	fs := flag.NewFlagSet("arpguard", flag.ContinueOnError)
	scheme := fs.String("scheme", registry.NameHybridGuard,
		"scheme name from -schemes, or a '+'-joined stack (e.g. dai+arpwatch+port-security)")
	listSchemes := fs.Bool("schemes", false, "print the scheme catalogue (name, vantage, cost, default params) and exit")
	atk := fs.String("attack", "mitm", "gratuitous | unsolicited-reply | request-spoof | mitm | scan")
	metricsPath := fs.String("metrics", "", "write the telemetry snapshot to this file (JSON, or Prometheus text with a .prom suffix)")
	httpAddr := fs.String("http", "", "serve /metrics, /healthz, /debug/pprof and /debug/flight on this address for the run (e.g. localhost:6060)")
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
	for i, sel := range st.Schemes {
		if p, ok := guardParams[sel.Name]; ok {
			resolved, err := registry.ResolveParams(mustFactory(sel.Name), p)
			if err != nil {
				return err
			}
			raw, err := json.Marshal(resolved)
			if err != nil {
				return err
			}
			st.Schemes[i].Params = raw
		}
	}
	hostOpts, err := registry.StackHostOptions(st)
	if err != nil {
		return err
	}

	reg := telemetry.New()
	if *verbose {
		reg.Events().StreamTo(os.Stderr, telemetry.SevDebug)
	}
	l := labnet.New(labnet.Config{
		Seed: *seed, Hosts: 6, WithAttacker: true, WithMonitor: true,
		HostOptions: hostOpts, Telemetry: reg, Tracing: *traceRun,
	})
	gw, victim := l.Gateway(), l.Victim()
	sink := schemes.NewSink()
	sink.Instrument(reg)
	env := l.Env(sink, reg)

	if *httpAddr != "" {
		srv, err := ops.Serve(*httpAddr)
		if err != nil {
			return err
		}
		defer srv.Close()
		fmt.Fprintf(os.Stderr, "ops: serving http://%s\n", srv.Addr())
		l.Sched.Every(time.Second, func() { srv.Publish(reg) })
		// Every alert trips the flight recorder: the dump holds the spans
		// and events leading up to the detection, queryable while the run
		// is live and after it ends.
		sink.OnAlert(func(a schemes.Alert) {
			srv.PublishFlight(reg, l.Sched.Now(), "alert", a.Scheme+": "+a.Detail)
		})
		defer func() {
			srv.Publish(reg)
			if _, ok := srv.LastFlight(); !ok {
				srv.PublishFlight(reg, l.Sched.Now(), "final", "end of run, no alerts")
			}
		}()
	}

	// A single scheme deploys directly; a '+'-joined stack routes members
	// through the shared correlator.
	var inst *registry.Instance // the single scheme, or the stack's hybrid-guard member
	var stackInst *registry.StackInstance
	if len(st.Schemes) == 1 {
		if f := mustFactory(st.Schemes[0].Name); !f.ConstructionOnly() {
			if inst, err = registry.Deploy(env, st.Schemes[0].Name, st.Schemes[0].Params); err != nil {
				return err
			}
		}
	} else {
		if stackInst, err = registry.DeployStack(env, st); err != nil {
			return err
		}
		inst = stackInst.Member(registry.NameHybridGuard)
	}

	fmt.Fprintf(w, "scheme %s vs attack %s (victims run the naive cache policy)\n\n", st.Label(), *atk)

	// A victim that never resolved its gateway has nothing worth hijacking:
	// warm the cache with one legitimate resolution, then launch the attack
	// after it has settled so a late legit reply cannot cure the poison.
	// (Crypto LANs ignore the plain request; their nodes resolve out of band.)
	victim.Resolve(gw.IP(), nil)

	hasScheme := func(name string) bool {
		for _, sel := range st.Schemes {
			if sel.Name == name {
				return true
			}
		}
		return false
	}
	var launch func()
	switch *atk {
	case "gratuitous", "unsolicited-reply", "request-spoof":
		var v attack.Variant
		for _, cand := range attack.Variants() {
			if cand.String() == *atk {
				v = cand
			}
		}
		launch = func() {
			l.Attacker.Poison(v, gw.IP(), l.Attacker.MAC(), victim.MAC(), victim.IP())
			// Crypto LANs ignore plain ARP; also fire a forged secured reply
			// so those schemes have something to reject.
			if hasScheme(registry.NameSARP) {
				m := &sarp.Message{
					ARP:       forgedReply(l),
					Timestamp: l.Sched.Now(),
					Sig:       []byte("forged"),
				}
				l.Attacker.NIC().Send(&frame.Frame{
					Dst: victim.MAC(), Src: l.Attacker.MAC(),
					Type: frame.TypeSARP, Payload: m.Encode(),
				})
			}
			if hasScheme(registry.NameTARP) {
				m := &tarp.Message{ARP: forgedReply(l)}
				l.Attacker.NIC().Send(&frame.Frame{
					Dst: victim.MAC(), Src: l.Attacker.MAC(),
					Type: frame.TypeTARP, Payload: m.Encode(),
				})
			}
		}
	case "mitm":
		launch = func() {
			l.Attacker.PoisonPeriodically(2*time.Second, victim.MAC(), victim.IP(), gw.MAC(), gw.IP())
			l.Attacker.RelayBetween(victim.MAC(), victim.IP(), gw.MAC(), gw.IP())
		}
	case "scan":
		launch = func() { l.Attacker.Scan(l.Subnet, 1, 120, 20*time.Millisecond) }
	default:
		return fmt.Errorf("unknown attack %q", *atk)
	}
	l.Sched.At(2*time.Second, launch)

	if err := l.Run(15 * time.Second); err != nil {
		return err
	}

	if mac, ok := victim.Cache().Lookup(gw.IP()); ok && mac == l.Attacker.MAC() {
		fmt.Fprintf(w, "victim cache: POISONED (gateway → %s)\n", mac)
	} else {
		fmt.Fprintf(w, "victim cache: clean\n")
	}
	fmt.Fprintf(w, "alerts: %d\n", sink.Len())
	for _, a := range sink.Alerts() {
		fmt.Fprintf(w, "  %s\n", a)
	}
	if stackInst != nil {
		cs := stackInst.Correlation()
		fmt.Fprintf(w, "correlation: %d forwarded, %d suppressed (%d cross-scheme)\n",
			cs.Forwarded, cs.Suppressed, cs.CrossScheme)
	}
	for _, inc := range inst.Incidents() {
		fmt.Fprintf(w, "incident: ip=%s suspect=%s alerts=%d confirmed=%v window=[%v..%v]\n",
			inc.IP, inc.Suspect, inc.Alerts, inc.Confirmed, inc.FirstAt, inc.LastAt)
	}
	if *traceRun {
		if err := reportTrace(w, reg, st.Label(), gw.IP().String(), victim.IP().String()); err != nil {
			return err
		}
	}
	if *metricsPath != "" {
		if err := reg.WriteFile(*metricsPath); err != nil {
			return err
		}
		fmt.Fprintf(w, "metrics written to %s\n", *metricsPath)
	}
	return nil
}

// reportTrace renders the causal evidence a traced run collected: the span
// tree of the first injected attack, and — when an alert chains back to it —
// the detection latency charged per pipeline stage. The attribution is also
// observed into the registry, so a -metrics snapshot (or a live /metrics
// scrape) carries detection_stage_seconds{scheme,stage} for the same run.
func reportTrace(w io.Writer, reg *telemetry.Registry, deployment string, ips ...string) error {
	rec := reg.Causal()
	if rec == nil {
		return nil
	}
	fmt.Fprintf(w, "\ncausal trace (%d spans recorded, %d dropped):\n", rec.Started(), rec.Dropped())
	for _, root := range rec.Roots() {
		if root.Kind != "attack" {
			continue
		}
		if err := rec.WriteTree(w, root.ID); err != nil {
			return err
		}
		break // the first injected attack is the story; the rest repeat it
	}
	if stages, total, ok := eval.AttributeFirstDetection(rec, 0, ips...); ok {
		eval.ObserveDetectionStages(reg, deployment, stages, total)
		fmt.Fprintf(w, "detection latency %v:", total)
		for _, stage := range []string{"inject", "queue", "wire", "switch", "inspect"} {
			fmt.Fprintf(w, " %s=%v", stage, stages[stage])
		}
		fmt.Fprintln(w)
	} else {
		fmt.Fprintln(w, "no alert chains back to an injected attack frame")
	}
	return nil
}

// mustFactory resolves a name ParseStack already validated.
func mustFactory(name string) *registry.Factory {
	f, ok := registry.Lookup(name)
	if !ok {
		panic(fmt.Sprintf("arpguard: scheme %q vanished after validation", name))
	}
	return f
}

// forgedReply builds the attacker's claim "gateway is-at attacker".
func forgedReply(l *labnet.LAN) *arppkt.Packet {
	return arppkt.NewReply(l.Attacker.MAC(), l.Gateway().IP(), l.Victim().MAC(), l.Victim().IP())
}
