// Command arpattack runs one ARP cache poisoning attack variant against a
// simulated LAN and narrates the outcome: whose cache ended up where, how
// much traffic the attacker intercepted, and what the wire looked like. The
// run itself is a scenario.Run; the variant's victim traffic and the
// narration ride on the scenario's topology hook.
//
// Usage:
//
//	arpattack -variant unsolicited-reply -policy naive
//	arpattack -variant reply-race -policy solicited-only
//	arpattack -variant mitm -policy naive     # full relay eavesdropping
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"repro/internal/ethaddr"
	"repro/internal/scenario"
	"repro/internal/schemes/kernelpolicy"
	"repro/internal/trace"
)

func main() {
	if err := run(os.Stdout, os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "arpattack:", err)
		os.Exit(1)
	}
}

// variants maps -variant to its scenario action. Everything launches at
// t=0 except the port theft, which first lets the gateway's warm-up
// resolution teach the switch the victim's true port.
var variants = map[string]scenario.AttackSpec{
	"gratuitous":        {Type: "poison", Variant: "gratuitous"},
	"unsolicited-reply": {Type: "poison", Variant: "unsolicited-reply"},
	"request-spoof":     {Type: "poison", Variant: "request-spoof"},
	"reply-race":        {Type: "poison", Variant: "reply-race"},
	"mitm":              {Type: "mitm"},
	"blackhole":         {Type: "blackhole"},
	"port-steal":        {Type: "port-steal", AtSeconds: 1, PeriodSeconds: 0.1},
	"scan":              {Type: "scan", Count: 254},
}

func run(w io.Writer, args []string) error {
	fs := flag.NewFlagSet("arpattack", flag.ContinueOnError)
	variant := fs.String("variant", "unsolicited-reply",
		"gratuitous | unsolicited-reply | request-spoof | reply-race | mitm | blackhole | port-steal | scan")
	policy := fs.String("policy", "naive", "victim cache policy: naive | reply-only | no-overwrite | solicited-only")
	seed := fs.Int64("seed", 1, "simulation seed")
	showTrace := fs.Bool("trace", false, "dump the captured ARP trace")
	if err := fs.Parse(args); err != nil {
		return err
	}
	attackSpec, ok := variants[*variant]
	if !ok {
		return fmt.Errorf("unknown variant %q", *variant)
	}
	// scenario.Validate rejects an unknown -policy and lists the valid ones.
	spec := &scenario.Spec{Seed: *seed, Policy: *policy, DurationSeconds: 10, Attacks: []scenario.AttackSpec{attackSpec}}

	hook := func(d *scenario.Deployment) func() {
		prof, _ := kernelpolicy.Find(spec.Policy)
		l := d.Sites[0].LAN
		gw, victim, atk := l.Gateway(), l.Victim(), l.Attacker
		fmt.Fprintf(w, "LAN %s: gateway %s (%s), victim %s (%s), attacker %s (%s)\n",
			l.Subnet, gw.IP(), gw.MAC(), victim.IP(), victim.MAC(), atk.IP(), atk.MAC())
		fmt.Fprintf(w, "victim cache policy: %s — %s\n\n", prof.Name, prof.Description)

		capture := trace.NewCapture(0)
		l.Switch.AddTap(capture.Tap())
		// Count the victim's datagrams only: every other station's
		// background traffic reaches the gateway on the same port.
		delivered := 0
		gw.HandleUDP(80, func(src ethaddr.IPv4, _ uint16, _ []byte) {
			if src == victim.IP() {
				delivered++
			}
		})
		switch *variant {
		case "mitm":
			l.Sched.Every(500*time.Millisecond, func() { victim.SendUDP(gw.IP(), 2000, 80, []byte("session-cookie=SECRET")) })
		case "blackhole":
			l.Sched.Every(500*time.Millisecond, func() { victim.SendUDP(gw.IP(), 2000, 80, []byte("ping")) })
		case "port-steal":
			// A stolen port intercepts traffic headed to the victim.
			gw.Resolve(victim.IP(), nil)
			l.Sched.Every(500*time.Millisecond, func() {
				gw.SendUDP(victim.IP(), 2000, 80, []byte("downlink to the victim"))
			})
		}

		return func() {
			fmt.Fprintf(w, "after 10s of simulated time:\n")
			if mac, ok := victim.Cache().Lookup(gw.IP()); !ok {
				fmt.Fprintf(w, "  victim has no binding for the gateway\n")
			} else if mac == atk.MAC() {
				fmt.Fprintf(w, "  victim's binding for the gateway: %s  [POISONED]\n", mac)
			} else {
				fmt.Fprintf(w, "  victim's binding for the gateway: %s  [GENUINE]\n", mac)
			}
			st := atk.Stats()
			fmt.Fprintf(w, "  attacker: %d forged packets, %d frames relayed, %d dropped, %d payload bytes sniffed\n",
				st.Forged, st.Relayed, st.Dropped, st.Sniffed)
			if *variant == "mitm" || *variant == "blackhole" {
				fmt.Fprintf(w, "  victim→gateway datagrams delivered: %d\n", delivered)
			}
			cs := capture.Stats()
			fmt.Fprintf(w, "  wire: %d frames (%d ARP: %v, %d gratuitous)\n",
				cs.Frames, cs.ByType["ARP"], cs.ARPOps, cs.Gratuitous)
			if *showTrace {
				fmt.Fprintln(w, "\ncaptured ARP trace:")
				for _, r := range capture.ARPOnly() {
					fmt.Fprintf(w, "  %12v port%d %s\n", r.At, r.Port, r.Info)
				}
			}
		}
	}
	_, err := scenario.Run(spec, scenario.WithHook(hook))
	return err
}
