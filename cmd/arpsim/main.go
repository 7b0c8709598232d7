// Command arpsim runs a clean simulated LAN — no attacker — and narrates
// ordinary ARP life: resolutions, cache contents, DHCP leases, and switch
// state. It is the "hello world" of the simulator and a sanity baseline
// for the attack tools.
//
// Usage:
//
//	arpsim -hosts 6 -duration 30s
//	arpsim -dhcp            # hosts acquire addresses over DHCP first
//	arpsim -pcap capture.pcap   # open in Wireshark, or replay with arpanalyze
//	arpsim -ndjson - | arpanalyze -scheme arpwatch
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"repro/internal/dhcp"
	"repro/internal/ethaddr"
	"repro/internal/labnet"
	"repro/internal/ops"
	"repro/internal/telemetry"
	"repro/internal/trace"
	"repro/internal/traffic"
)

func main() {
	if err := run(os.Stdout, os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "arpsim:", err)
		os.Exit(1)
	}
}

// maxHosts is the most stations the /24 holds: host i sits at .i+1 for
// i ≥ 1, so host 253 would take the gateway's .254.
const maxHosts = 253

func run(w io.Writer, args []string) error {
	fs := flag.NewFlagSet("arpsim", flag.ContinueOnError)
	hosts := fs.Int("hosts", 4, "number of stations, gateway included (1 to 253)")
	duration := fs.Duration("duration", 30*time.Second, "simulated time to run")
	useDHCP := fs.Bool("dhcp", false, "assign addresses via a simulated DHCP server")
	pcapPath := fs.String("pcap", "", "write the packet capture to this file as a Wireshark-compatible pcap")
	ndjsonPath := fs.String("ndjson", "", "write the packet capture as an NDJSON stream (\"-\" for stdout, pipeable into arpanalyze)")
	metricsPath := fs.String("metrics", "", "write the telemetry snapshot to this file (JSON, or Prometheus text with a .prom suffix)")
	httpAddr := ops.Flag(fs)
	verbose := fs.Bool("v", false, "stream telemetry events to stderr as NDJSON")
	seed := fs.Int64("seed", 1, "simulation seed")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *hosts < 1 || *hosts > maxHosts {
		return fmt.Errorf("-hosts %d: want 1 to %d (host i sits at .i+1 of the /24, the gateway at .254)", *hosts, maxHosts)
	}
	if *ndjsonPath == "-" {
		// The capture stream owns stdout; keep the human summary legible
		// on stderr so `arpsim -ndjson - | arpanalyze ...` stays clean.
		w = os.Stderr
	}

	reg := telemetry.New()
	if *verbose {
		reg.Events().StreamTo(os.Stderr, telemetry.SevDebug)
	}
	l := labnet.New(labnet.Config{
		Seed:         *seed,
		Hosts:        *hosts,
		WithAttacker: false,
		WithMonitor:  false,
		Telemetry:    reg,
	})
	srv, err := ops.Start(*httpAddr, reg)
	if err != nil {
		return err
	}
	defer func() { srv.Finish(l.Sched.Now(), "end of run") }()
	srv.Watch(l.Sched, nil)

	cap := trace.NewCapture(0)
	cap.Instrument(reg)
	l.Switch.AddTap(cap.Tap())

	if *useDHCP {
		// The gateway doubles as the DHCP server; other hosts re-acquire
		// their addresses through DORA before the workload starts.
		srv := dhcp.NewServer(l.Sched, l.Gateway(), l.Subnet, l.Gateway().IP(), 100, 50)
		for _, h := range l.Hosts[1:] {
			h.SetIP(ethaddr.ZeroIPv4)
			c := dhcp.NewClient(l.Sched, h, nil)
			c.Acquire()
		}
		if err := l.Run(10 * time.Second); err != nil {
			return err
		}
		fmt.Fprintf(w, "DHCP: %d leases active, %d addresses free\n\n",
			len(srv.Leases()), srv.FreeCount())
	}

	flows := traffic.Mesh(l.Sched, l.Hosts, time.Second, traffic.WithResponse())
	if err := l.Run(*duration); err != nil {
		return err
	}
	for _, f := range flows {
		f.Stop()
	}

	fmt.Fprintf(w, "after %v of simulated time on %s:\n", *duration, l.Subnet)
	for _, h := range l.Hosts {
		st := h.Stats()
		fmt.Fprintf(w, "  %-10s %-15s %s  cache=%d arp tx/rx=%d/%d ipv4 tx/rx=%d/%d\n",
			h.Name(), h.IP(), h.MAC(), h.Cache().Len(), st.ARPTx, st.ARPRx, st.IPv4Tx, st.IPv4Rx)
	}
	total := traffic.TotalStats(flows)
	fmt.Fprintf(w, "workload: %d datagrams sent, %d delivered, %d responded\n",
		total.Sent, total.Delivered, total.Responded)

	sw := l.Switch.Stats()
	fmt.Fprintf(w, "switch: CAM=%d learned=%d forwarded=%d flooded=%d\n",
		l.Switch.CAMLen(), sw.Learned, sw.Forwarded, sw.Flooded)
	cs := cap.Stats()
	fmt.Fprintf(w, "wire: %d frames, %d bytes (%v)\n", cs.Frames, cs.Bytes, cs.ByType)

	if *pcapPath != "" {
		f, err := os.Create(*pcapPath)
		if err != nil {
			return fmt.Errorf("create %s: %w", *pcapPath, err)
		}
		defer f.Close()
		if err := cap.WritePCAP(f); err != nil {
			return err
		}
		fmt.Fprintf(w, "pcap written to %s\n", *pcapPath)
	}
	if *ndjsonPath != "" {
		out := io.Writer(os.Stdout)
		if *ndjsonPath != "-" {
			f, err := os.Create(*ndjsonPath)
			if err != nil {
				return fmt.Errorf("create %s: %w", *ndjsonPath, err)
			}
			defer f.Close()
			out = f
		}
		if err := cap.WriteNDJSON(out); err != nil {
			return err
		}
		if *ndjsonPath != "-" {
			fmt.Fprintf(w, "ndjson capture written to %s\n", *ndjsonPath)
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
