// MITM eavesdropping: a client talks to a server; an attacker mounts the
// full bidirectional poisoning + relay attack and silently reads the
// session. The example runs the same scenario three ways — undefended,
// detected by the hybrid-guard preset, and prevented by host middleware —
// and compares how many payload bytes the attacker captured in each.
package main

import (
	"fmt"
	"log"
	"time"

	"repro/internal/labnet"
	"repro/internal/schemes"
	"repro/internal/schemes/registry"
	_ "repro/internal/schemes/registry/all" // link every scheme factory
	"repro/internal/traffic"
)

// outcome is one run's result.
type outcome struct {
	sniffedBytes uint64
	delivered    uint64
	detected     bool
	prevented    bool
}

func runScenario(protect, detect bool) outcome {
	lan := labnet.Default()
	server, client := lan.Gateway(), lan.Victim()

	// The server is the gateway and the client the victim, so seedVictim
	// adds the client's true binding to the gateway's; protection puts
	// middleware on every host, client and server included.
	var guard *registry.Instance
	if detect || protect {
		st := registry.Stack{Schemes: []registry.Selection{
			{Name: registry.NameHybridGuard, Params: []byte(`{"seedVictim":true}`)},
		}}
		if protect {
			st.Schemes = append(st.Schemes, registry.Selection{Name: registry.NameMiddleware, Params: []byte(`{"scope":"all"}`)})
		}
		si, err := registry.DeployStack(lan.Env(schemes.NewSink(), nil), st)
		if err != nil {
			log.Fatal(err)
		}
		guard = si.Member(registry.NameHybridGuard)
	}

	// The session: the client posts "credentials" every 200ms.
	flow := traffic.StartFlow(lan.Sched, 1, client, server, 200*time.Millisecond,
		traffic.WithResponse(), traffic.WithPayloadLen(128))

	// The attack starts two seconds in.
	lan.Sched.At(2*time.Second, func() {
		lan.Attacker.PoisonPeriodically(time.Second,
			client.MAC(), client.IP(), server.MAC(), server.IP())
		lan.Attacker.RelayBetween(client.MAC(), client.IP(), server.MAC(), server.IP())
	})
	if err := lan.Run(12 * time.Second); err != nil {
		log.Fatal(err)
	}
	flow.Stop()

	out := outcome{
		sniffedBytes: lan.Attacker.Stats().Sniffed,
		delivered:    flow.Stats().Delivered,
	}
	for _, inc := range guard.Incidents() {
		if inc.IP == server.IP() && inc.Confirmed {
			out.detected = true
		}
	}
	if mac, ok := client.Cache().Lookup(server.IP()); !ok || mac != lan.Attacker.MAC() {
		out.prevented = true
	}
	return out
}

func main() {
	fmt.Println("client↔server session under a full-duplex ARP MITM")
	fmt.Println()
	for _, cfg := range []struct {
		name            string
		protect, detect bool
	}{
		{"undefended", false, false},
		{"guard detecting", false, true},
		{"guard + host middleware", true, true},
	} {
		out := runScenario(cfg.protect, cfg.detect)
		fmt.Printf("%-24s attacker read %5d bytes | %2d datagrams delivered | detected=%v | client stayed clean=%v\n",
			cfg.name, out.sniffedBytes, out.delivered, out.detected, out.prevented)
	}
	fmt.Println()
	fmt.Println("the relay preserves connectivity, so the victim notices nothing —")
	fmt.Println("only the middleware run keeps the session out of the attacker's hands")
}
