// Command arpscenario runs a JSON-described attack/defense experiment and
// prints the outcome — the no-code front end to the framework.
//
// Usage:
//
//	arpscenario scenarios/soho-guard.json
//	arpscenario -json scenarios/enterprise-dai.json   # structured output
//	cat my.json | arpscenario -
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"repro/internal/ops"
	"repro/internal/scenario"
	"repro/internal/telemetry"
)

func main() {
	if err := run(os.Stdout, os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "arpscenario:", err)
		os.Exit(1)
	}
}

func run(w io.Writer, args []string) error {
	fs := flag.NewFlagSet("arpscenario", flag.ContinueOnError)
	asJSON := fs.Bool("json", false, "emit the result as JSON")
	httpAddr := ops.Flag(fs)
	metricsPath := fs.String("metrics", "", "write the telemetry snapshot to this file (JSON, or Prometheus text with a .prom suffix)")
	verbose := fs.Bool("v", false, "stream telemetry events to stderr as NDJSON")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 1 {
		return fmt.Errorf("usage: arpscenario [-json] <scenario.json | ->")
	}

	var in io.Reader = os.Stdin
	if path := fs.Arg(0); path != "-" {
		f, err := os.Open(path)
		if err != nil {
			return fmt.Errorf("open scenario: %w", err)
		}
		defer f.Close()
		in = f
	}
	spec, err := scenario.Load(in)
	if err != nil {
		return err
	}
	reg := telemetry.New()
	if *verbose {
		reg.Events().StreamTo(os.Stderr, telemetry.SevDebug)
	}
	srv, err := ops.Start(*httpAddr, reg)
	if err != nil {
		return err
	}
	var end time.Duration
	defer func() { srv.Finish(end, "scenario complete") }()
	// Site 0 is the registry's one writer (a campus instruments LAN 0's
	// time domain only), so its scheduler publishes and its sink trips
	// the flight recorder.
	res, err := scenario.Run(spec, scenario.WithRegistry(reg), scenario.WithHook(func(d *scenario.Deployment) func() {
		site := d.Sites[0]
		srv.Watch(site.LAN.Sched, site.Sink)
		return func() { end = site.LAN.Sched.Now() }
	}))
	if err != nil {
		return err
	}
	if *metricsPath != "" {
		if err := reg.WriteFile(*metricsPath); err != nil {
			return err
		}
	}
	if *asJSON {
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		return enc.Encode(res)
	}
	return res.Render(w)
}
