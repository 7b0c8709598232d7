// Command arpanalyze is the streaming capture-analysis service: it replays
// a capture — classic pcap, the trace NDJSON stream, or a sim firehose
// piped in — through any detection scheme or defense-in-depth stack from
// the registry, at capture timestamps on a virtual clock. Correlated
// alerts stream out as NDJSON; Prometheus metrics, health, and pprof are
// served over -http.
//
// Usage:
//
//	arpanalyze -in capture.pcap -scheme arpwatch
//	arpanalyze -in capture.ndjson -scheme dai+arpwatch+port-security -workers 8
//	arpsim -ndjson - | arpanalyze -scheme snort-like -http localhost:6060
//	arpanalyze -in capture.pcap -scheme middleware -params '{"verifyWindowMs":500}'
//	arpanalyze -list
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"
	"time"

	"repro/internal/ops"
	"repro/internal/replay"
	"repro/internal/schemes/registry"
	_ "repro/internal/schemes/registry/all"
	"repro/internal/telemetry"
)

func main() {
	if err := run(os.Stdout, os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "arpanalyze:", err)
		os.Exit(1)
	}
}

func run(w io.Writer, args []string) error {
	fs := flag.NewFlagSet("arpanalyze", flag.ContinueOnError)
	in := fs.String("in", "-", "capture to replay (\"-\" reads stdin)")
	scheme := fs.String("scheme", "", "scheme or a+b+c stack to deploy (required; see -list)")
	params := fs.String("params", "", "JSON parameter overrides for a single-scheme deployment")
	workers := fs.Int("workers", 1, "ingest shard width; output is byte-identical at any width")
	out := fs.String("out", "-", "alert stream destination, one NDJSON line per alert (\"-\" writes stdout)")
	drain := fs.Duration("drain", 10*time.Second, "virtual time to run past the last record so verify windows settle")
	gateway := fs.String("gateway", "", "hosted gateway identity as ip=mac (default: workbench convention)")
	victim := fs.String("victim", "", "hosted victim identity as ip=mac (default: workbench convention)")
	seed := fs.Int64("seed", 1, "workbench seed the capture was taken with (derives default identities)")
	httpAddr := ops.Flag(fs)
	list := fs.Bool("list", false, "list registered schemes and exit")
	verbose := fs.Bool("v", false, "stream telemetry events to stderr as NDJSON")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *list {
		names := registry.Names()
		sort.Strings(names)
		fmt.Fprintln(w, strings.Join(names, "\n"))
		return nil
	}
	if *scheme == "" {
		return fmt.Errorf("-scheme is required (try -list)")
	}
	if *workers < 1 {
		// replay.Config reads a width below 1 as 1.
		return fmt.Errorf("-workers %d: must be at least 1", *workers)
	}
	if *drain <= 0 {
		// replay.Config reads a zero Drain as its default, so a silent
		// pass-through would drain 10s whatever was asked for.
		return fmt.Errorf("-drain %v: must be positive", *drain)
	}

	st, err := registry.ParseStack(*scheme)
	if err != nil {
		return err
	}
	if *params != "" {
		if len(st.Schemes) != 1 {
			return fmt.Errorf("-params applies to a single scheme, not the %d-member stack %q", len(st.Schemes), st.Label())
		}
		st.Schemes[0].Params = json.RawMessage(*params)
		if err := st.Validate(); err != nil {
			return err
		}
	}

	gw, v := replay.WorkbenchStations(*seed)
	if *gateway != "" {
		if gw, err = parseStation(*gateway); err != nil {
			return fmt.Errorf("-gateway: %w", err)
		}
	}
	if *victim != "" {
		if v, err = parseStation(*victim); err != nil {
			return fmt.Errorf("-victim: %w", err)
		}
	}

	alerts := io.Writer(os.Stdout)
	if *out != "-" {
		f, err := os.Create(*out)
		if err != nil {
			return fmt.Errorf("create %s: %w", *out, err)
		}
		defer f.Close()
		alerts = f
	} else {
		// The alert stream owns stdout; the summary moves to stderr.
		w = os.Stderr
	}

	reg := telemetry.New()
	if *verbose {
		reg.Events().StreamTo(os.Stderr, telemetry.SevDebug)
	}

	eng, err := replay.New(replay.Config{
		Stack:     st,
		Gateway:   gw,
		Victim:    v,
		Workers:   *workers,
		Drain:     *drain,
		Alerts:    alerts,
		Telemetry: reg,
	})
	if err != nil {
		return err
	}

	// No sink is watched: the engine's alert slot feeds the NDJSON stream.
	srv, err := ops.Start(*httpAddr, reg)
	if err != nil {
		return err
	}
	defer func() { srv.Finish(eng.Scheduler().Now(), "end of replay") }()
	srv.Watch(eng.Scheduler(), nil)

	src, err := openSource(*in)
	if err != nil {
		return err
	}

	start := time.Now()
	stats, err := eng.Run(src)
	elapsed := time.Since(start)
	if err != nil {
		return err
	}

	fps := float64(stats.Frames) / elapsed.Seconds()
	fmt.Fprintf(w, "replayed %d frames (%d ARP, %d malformed, %d bytes) through %s in %v (%.0f frames/s)\n",
		stats.Frames, stats.ARP, stats.Malformed, stats.Bytes, st.Label(), elapsed.Round(time.Millisecond), fps)
	fmt.Fprintf(w, "capture span %v, drained to %v; %d injector stations attached\n",
		stats.LastAt, stats.Horizon, stats.Stations)
	corr := eng.Correlation()
	fmt.Fprintf(w, "alerts: %d emitted (%d raised, %d suppressed by correlation, %d cross-scheme)\n",
		stats.Alerts, corr.Forwarded+corr.Suppressed, corr.Suppressed, corr.CrossScheme)
	return nil
}

// parseStation parses an "ip=mac" identity flag.
func parseStation(s string) (replay.Station, error) {
	ipStr, macStr, ok := strings.Cut(s, "=")
	if !ok {
		return replay.Station{}, fmt.Errorf("want ip=mac, got %q", s)
	}
	var st replay.Station
	if err := st.IP.UnmarshalText([]byte(ipStr)); err != nil {
		return replay.Station{}, err
	}
	if err := st.MAC.UnmarshalText([]byte(macStr)); err != nil {
		return replay.Station{}, err
	}
	return st, nil
}

// openSource opens the capture path and picks the reader: it sniffs the
// pcap magic (any of the four classic variants) and otherwise reads NDJSON
// — which conveniently makes piped sim firehoses just work. An input
// shorter than the magic is not pcap, so it is read as NDJSON too.
func openSource(path string) (replay.Source, error) {
	var r io.Reader = os.Stdin
	if path != "-" {
		f, err := os.Open(path)
		if err != nil {
			return nil, err
		}
		// Leaked until exit: the process replays one capture and quits.
		r = f
	}
	br := bufio.NewReaderSize(r, 64<<10)
	magic, err := br.Peek(4)
	if err != nil && err != io.EOF {
		return nil, fmt.Errorf("sniff %s: %w", path, err)
	}
	if isPCAPMagic(magic) {
		return replay.NewPCAPSource(br)
	}
	return replay.NewNDJSONSource(br), nil
}

// isPCAPMagic recognizes the classic pcap magic in either byte order and
// either timestamp resolution.
func isPCAPMagic(b []byte) bool {
	if len(b) < 4 {
		return false
	}
	le := uint32(b[0]) | uint32(b[1])<<8 | uint32(b[2])<<16 | uint32(b[3])<<24
	be := uint32(b[3]) | uint32(b[2])<<8 | uint32(b[1])<<16 | uint32(b[0])<<24
	const us, ns = 0xa1b2c3d4, 0xa1b23c4d
	return le == us || le == ns || be == us || be == ns
}
