// Quickstart: build a four-host LAN, let an attacker poison the victim's
// idea of the gateway, and watch the hybrid-guard preset detect, verify,
// and name the culprit — the minimal end-to-end tour of the public API.
package main

import (
	"fmt"
	"log"
	"time"

	"repro/internal/attack"
	"repro/internal/labnet"
	"repro/internal/schemes"
	"repro/internal/schemes/registry"
	_ "repro/internal/schemes/registry/all" // link every scheme factory
)

func main() {
	// 1. A simulated LAN: gateway + 3 hosts, an attacker station, and a
	//    monitor appliance on a mirror port.
	lan := labnet.Default()
	gateway, victim := lan.Gateway(), lan.Victim()

	// 2. Deploy the guard: passive monitoring + active verification, with
	//    the gateway's true binding seeded as ground truth (the defaults).
	sink := schemes.NewSink()
	sink.OnAlert(func(a schemes.Alert) { fmt.Printf("ALERT  %s\n", a) })
	guard, err := registry.Deploy(lan.Env(sink, nil), registry.NameHybridGuard, nil)
	if err != nil {
		log.Fatal(err)
	}

	// 3. The attack: a forged gratuitous ARP claiming the gateway's IP.
	lan.Sched.At(time.Second, func() {
		fmt.Println("attacker broadcasts: gateway is-at", lan.Attacker.MAC())
		lan.Attacker.Poison(attack.VariantGratuitous,
			gateway.IP(), lan.Attacker.MAC(), victim.MAC(), victim.IP())
	})

	// 4. Run five simulated seconds.
	if err := lan.Run(5 * time.Second); err != nil {
		log.Fatal(err)
	}

	// 5. What happened?
	if mac, ok := victim.Cache().Lookup(gateway.IP()); ok && mac == lan.Attacker.MAC() {
		fmt.Println("victim's cache is poisoned (naive policy accepted the forgery)")
	}
	for _, inc := range guard.Incidents() {
		if inc.IP == gateway.IP() {
			fmt.Printf("incident: ip=%s suspect=%s confirmed=%v (first alert %v after attack)\n",
				inc.IP, inc.Suspect, inc.Confirmed, inc.FirstAt-time.Second)
			return
		}
	}
	log.Fatal("guard missed the attack")
}
