// Hardened LAN: defense in depth against the attacks ARP-layer schemes
// miss. The LAN is segmented into VLANs (bounding any poisoner's blast
// radius), access ports run sticky port security (stopping CAM theft and
// MAC floods), a rate detector watches for scans and flooding, and hosts
// defend their own addresses. The attacker tries its whole playbook.
package main

import (
	"fmt"
	"log"
	"time"

	"repro/internal/attack"
	"repro/internal/ethaddr"
	"repro/internal/labnet"
	"repro/internal/schemes"
	"repro/internal/schemes/flooddetect"
	"repro/internal/schemes/portsec"
	"repro/internal/stack"
	"repro/internal/traffic"
)

func main() {
	lan := labnet.New(labnet.Config{
		Hosts:        6,
		WithAttacker: true,
		WithMonitor:  true,
		HostOptions:  []stack.Option{stack.WithAddressDefense(5 * time.Second)},
	})
	gw, victim := lan.Gateway(), lan.Victim()

	// Segmentation: hosts 4 and 5 live in VLAN 20; the attacker shares
	// VLAN 1 with the gateway and the victim.
	lan.Ports[4].SetVLAN(20)
	lan.Ports[5].SetVLAN(20)

	// Sticky port security on every access port.
	sink := schemes.NewSink()
	opts := []portsec.Option{portsec.WithTrustedPorts(lan.MonitorPort.ID())}
	for i, p := range lan.Ports {
		opts = append(opts, portsec.WithSticky(p.ID(), lan.Hosts[i].MAC()))
	}
	opts = append(opts, portsec.WithSticky(lan.AtkPort.ID(), lan.Attacker.MAC()))
	enforcer := portsec.New(lan.Sched, sink, opts...)
	lan.Switch.AddFilter(enforcer.Filter())

	// Rate anomaly detection on the mirror.
	rate := flooddetect.New(lan.Sched, sink)
	lan.Switch.AddTap(rate.Observe)

	// Normal traffic.
	flows := traffic.HotSpot(lan.Sched, lan.Hosts[1:4], gw, 1, time.Second)

	// The attacker's playbook, one move every 10 simulated seconds.
	moves := []struct {
		name string
		run  func()
	}{
		{"arp scan of the subnet", func() {
			lan.Attacker.Scan(lan.Subnet, 1, 100, 20*time.Millisecond)
		}},
		{"CAM flood (macof)", func() {
			lan.Attacker.FloodCAM(ethaddr.NewGen(7), 500, 2*time.Millisecond)
		}},
		{"port stealing the victim", func() {
			lan.Attacker.StealPort(victim.MAC(), victim.IP(), 100*time.Millisecond, true)
		}},
		{"gateway poisoning", func() {
			lan.Attacker.Poison(attack.VariantGratuitous, gw.IP(), lan.Attacker.MAC(),
				victim.MAC(), victim.IP())
		}},
	}
	for i, m := range moves {
		m := m
		lan.Sched.At(time.Duration(10+10*i)*time.Second, func() {
			fmt.Printf("t=%2ds attacker: %s\n", 10+10*i, m.name)
			m.run()
		})
	}
	if err := lan.Run(60 * time.Second); err != nil {
		log.Fatal(err)
	}

	fmt.Println("\nwhat the defenses saw:")
	byScheme := map[string]int{}
	for _, a := range sink.Alerts() {
		byScheme[a.Scheme]++
	}
	for scheme, n := range byScheme {
		fmt.Printf("  %-16s %d alerts\n", scheme, n)
	}
	fmt.Println("\noutcomes:")
	fmt.Printf("  CAM entries after flood attempt: %d (flood blocked at the port)\n", lan.Switch.CAMLen())
	fmt.Printf("  attacker payload bytes captured: %d (port steal blocked: spoofed sources violate sticky MACs)\n",
		lan.Attacker.Stats().Sniffed)
	if mac, ok := victim.Cache().Lookup(gw.IP()); ok && mac == lan.Attacker.MAC() {
		fmt.Println("  victim gateway binding: POISONED — ARP forgery still needs an ARP-layer scheme!")
	} else {
		fmt.Println("  victim gateway binding: clean (address defense reasserted the gateway)")
	}
	total := traffic.TotalStats(flows)
	fmt.Printf("  legitimate traffic: %d/%d delivered throughout\n", total.Delivered, total.Sent)
	fmt.Println("\nlesson: port security + segmentation stop the L2 identity games, the rate")
	fmt.Println("detector names the noisy attacks, and host address defense fights the forgery —")
	fmt.Println("but only an ARP-layer scheme (guard/middleware/DAI/crypto) removes it entirely.")
}
