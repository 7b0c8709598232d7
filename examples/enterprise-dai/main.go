// Enterprise deployment: addresses come from DHCP, the switch snoops the
// lease stream into a binding table, and Dynamic ARP Inspection drops
// forged ARP in the forwarding plane — the infrastructure answer the
// paper's analysis recommends when you own the switches.
package main

import (
	"fmt"
	"log"
	"time"

	"repro/internal/attack"
	"repro/internal/dhcp"
	"repro/internal/ethaddr"
	"repro/internal/labnet"
	"repro/internal/schemes"
	"repro/internal/schemes/dai"
)

func main() {
	lan := labnet.New(labnet.Config{Hosts: 5, WithAttacker: true, WithMonitor: false})
	gateway := lan.Gateway()

	// DHCP snooping: the inspection table follows the lease stream.
	table := dai.NewBindingTable()
	table.AddStatic(gateway.IP(), gateway.MAC()) // the server itself is static
	var srvOpts []dhcp.ServerOption
	table.SnoopServer(&srvOpts)
	server := dhcp.NewServer(lan.Sched, gateway, lan.Subnet, gateway.IP(), 100, 20, srvOpts...)

	// DAI inline on the switch; only the DHCP server's port is trusted.
	sink := schemes.NewSink()
	inspector := dai.New(lan.Sched, sink, table, dai.WithTrustedPorts(lan.Ports[0].ID()))
	lan.Switch.AddFilter(inspector.Filter())

	// Clients acquire addresses through DORA.
	clients := lan.Hosts[1:]
	for _, h := range clients {
		h.SetIP(ethaddr.ZeroIPv4)
		dhcp.NewClient(lan.Sched, h, nil).Acquire()
	}
	if err := lan.Run(10 * time.Second); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("DHCP handed out %d leases; snooping table holds %d bindings\n",
		len(server.Leases()), table.Len())

	// The attack: every poisoning variant, each aimed at the first client.
	victim := clients[0]
	for i, v := range []attack.Variant{
		attack.VariantGratuitous, attack.VariantUnsolicitedReply, attack.VariantRequestSpoof,
	} {
		v := v
		lan.Sched.At(time.Duration(11+i)*time.Second, func() {
			lan.Attacker.Poison(v, gateway.IP(), lan.Attacker.MAC(), victim.MAC(), victim.IP())
		})
	}
	// And the race, against a client's own re-resolution.
	lan.Sched.At(15*time.Second, func() {
		lan.Attacker.ArmReplyRace(gateway.IP(), victim.IP(), 0)
		victim.Cache().Delete(gateway.IP())
		victim.Resolve(gateway.IP(), nil)
	})
	if err := lan.Run(20 * time.Second); err != nil {
		log.Fatal(err)
	}

	fmt.Printf("\ninspection: %d ARP packets checked, %d dropped\n",
		inspector.Stats().Inspected, inspector.Stats().Dropped)
	for _, a := range sink.Alerts() {
		fmt.Printf("  dropped: %s\n", a)
	}
	if mac, ok := victim.Cache().Lookup(gateway.IP()); ok && mac == lan.Attacker.MAC() {
		fmt.Println("\nRESULT: victim poisoned — DAI failed")
	} else {
		fmt.Println("\nRESULT: every variant was stopped in the forwarding plane; the victim's cache stayed clean")
	}
}
