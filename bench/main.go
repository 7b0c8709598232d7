// Command bench is the repository benchmark. It runs one of five
// closed-loop workloads — evaluation regeneration, pcap and NDJSON capture
// replay, a populated 128-host LAN, and a million-host campus — as a single
// client that starts each operation only after the previous one finished,
// checks every operation's output, and prints the metrics BENCHMARK.json
// declares as the last line of standard output:
//
//	bench --workload <name> --seed <n> --seconds <s> --trace 0   # end-to-end metrics
//	bench --workload <name> --seed <n> --seconds <s> --trace 1   # per-layer metrics
//	bench compare <runsA> <runsB>                                # medians, quartiles, verdicts
//
// bench/run.sh builds and runs it from the repository root; README.md
// describes the workloads and metrics.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"time"

	"repro/internal/stats"
)

func main() {
	var err error
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		err = compare(os.Stdout, os.Args[2:])
	} else {
		err = run(os.Stdout, os.Args[1:])
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

// options are the parsed command-line flags of one run.
type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	setups   int
	traceDir string
	root     string
	cold     bool
}

func run(w io.Writer, args []string) error {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	var o options
	var trace int
	fs.StringVar(&o.workload, "workload", "", "workload to run: "+strings.Join(workloadNames(), ", "))
	fs.Int64Var(&o.seed, "seed", 1, "seed the workload's inputs are generated from")
	fs.Float64Var(&o.seconds, "seconds", 0, "measured run length in seconds (0: run_seconds from BENCHMARK.json)")
	fs.IntVar(&trace, "trace", 0, "0 prints end-to-end metrics; 1 runs the traced pass and prints per-layer metrics")
	fs.IntVar(&o.setups, "setups", 0, "cold first operations setup_s is the median of, one here and the rest in fresh processes (0: at least 3, more while 3s last)")
	fs.StringVar(&o.traceDir, "trace-dir", "", "where a traced run writes spans.ndjson, cpu.pprof and layers.json (default .bench_build/trace/<workload>)")
	fs.StringVar(&o.root, "root", ".", "repository root holding BENCHMARK.json and evaluation_output.txt")
	fs.BoolVar(&o.cold, "cold", false, "internal: run only the cold first operation and print its time")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() > 0 {
		return fmt.Errorf("unexpected arguments %q", fs.Args())
	}
	if trace != 0 && trace != 1 {
		return fmt.Errorf("--trace must be 0 or 1, got %d", trace)
	}
	o.trace = trace == 1
	newWorkload, ok := workloads[o.workload]
	if !ok {
		return fmt.Errorf("unknown workload %q (valid: %s)", o.workload, strings.Join(workloadNames(), ", "))
	}
	spec, err := loadSpec(filepath.Join(o.root, "BENCHMARK.json"))
	if err != nil {
		return err
	}
	if o.seconds <= 0 {
		o.seconds = float64(spec.RunSeconds)
	}
	if o.traceDir == "" {
		o.traceDir = filepath.Join(o.root, ".bench_build", "trace", o.workload)
	}

	wl, err := newWorkload(o.seed, o.root)
	if err != nil {
		return fmt.Errorf("%s set-up: %w", o.workload, err)
	}
	s := &harness{wl: wl}
	inputRSS := maxRSS()
	cold := s.op(0, nil)
	if o.cold {
		if s.failed > 0 {
			return fmt.Errorf("%s cold operation failed", o.workload)
		}
		_, err := fmt.Fprintf(w, "cold_s %v rss_bytes %d\n", cold.dur.Seconds(), cold.rss)
		return err
	}

	var metrics map[string]float64
	if o.trace {
		metrics, err = s.traced(w, o, cold, inputRSS)
	} else {
		metrics, err = s.untraced(w, o, cold)
	}
	if err != nil {
		return err
	}
	declared := spec.EndToEnd
	if o.trace {
		declared = spec.PerLayer
	}
	return printResult(w, s, declared, metrics, !o.trace)
}

// harness runs one workload's operations and counts what failed.
type harness struct {
	wl        workload
	attempted int
	failed    int
}

// opRec is what the harness keeps of one operation.
type opRec struct {
	dur    time.Duration
	rss    int64 // the process's peak RSS when the operation returned
	frames float64
	counts map[string]float64
}

// op runs operation i with wall-clock timing, then checks its output
// outside the timed region. With sp non-nil the operation runs inside an
// "op" span and the workload records its layer spans under it.
func (s *harness) op(i int, sp *spans) opRec {
	s.attempted++
	sp.beginOp(i)
	start := time.Now()
	res, err := s.wl.run(i, sp)
	dur := time.Since(start)
	sp.end()
	rec := opRec{dur: dur, rss: maxRSS(), frames: res.frames, counts: res.counts}
	if err == nil && res.check != nil {
		err = res.check()
	}
	if err != nil {
		s.failed++
		fmt.Fprintf(os.Stderr, "bench: operation %d failed: %v\n", i, err)
	}
	return rec
}

// phase runs warm operations from index first on, as many as start within
// d (at least one).
func (s *harness) phase(first int, d time.Duration, sp *spans) []opRec {
	var recs []opRec
	start := time.Now()
	for i := first; len(recs) == 0 || time.Since(start) < d; i++ {
		recs = append(recs, s.op(i, sp))
	}
	return recs
}

// Without --setups, setup_s is the median of at least minSetups cold
// operations, and of more, up to maxSetups, while fresh processes take less
// than setupBudget in all: a single cold operation is too noisy a sample,
// and the cheap workloads can afford many.
const (
	minSetups   = 3
	maxSetups   = 15
	setupBudget = 3 * time.Second
)

// wantSetup reports whether to take cold sample k (0 is this process's),
// spent after the first fresh process started.
func wantSetup(fixed, k int, spent time.Duration) bool {
	if fixed > 0 {
		return k < fixed
	}
	return k < minSetups || k < maxSetups && spent < setupBudget
}

// untraced measures the end-to-end metrics. A one-shot CLI call pays the
// cold first operation and the memory of one operation in a fresh process,
// so setup_s (and the printed peak RSS) are medians over this process's
// cold operation and those of fresh processes; op_p50_ms and ops_per_s are
// over the warm operations that follow for the run length.
func (s *harness) untraced(w io.Writer, o options, cold opRec) (map[string]float64, error) {
	setups := []float64{cold.dur.Seconds()}
	rss := []float64{float64(cold.rss)}
	start := time.Now()
	for k := 1; wantSetup(o.setups, k, time.Since(start)); k++ {
		s.attempted++
		sec, peak, err := coldSample(o)
		if err != nil {
			s.failed++
			fmt.Fprintf(os.Stderr, "bench: cold set-up %d failed: %v\n", k, err)
			continue
		}
		setups = append(setups, sec)
		rss = append(rss, float64(peak))
	}
	warm := s.phase(1, seconds(o.seconds), nil)
	durs := opMillis(warm)
	var total float64
	for _, d := range durs {
		total += d
	}
	m := map[string]float64{
		"setup_s":   stats.Median(setups),
		"op_p50_ms": stats.Quantile(durs, 0.5),
		"ops_per_s": 1000 * float64(len(durs)) / total,
	}
	fmt.Fprintf(w, "%s seed %d: %d warm operations, %d cold\n", o.workload, o.seed, len(warm), len(setups))
	fmt.Fprintf(w, "setup_s %.4f s (median of %d cold first operations)\n", m["setup_s"], len(setups))
	fmt.Fprintf(w, "op_p50_ms %.3f ms (n=%d)\n", m["op_p50_ms"], len(durs))
	fmt.Fprintf(w, "ops_per_s %.4f 1/s (n=%d)\n", m["ops_per_s"], len(durs))
	fmt.Fprintf(w, "op_p90_ms %.3f ms (n=%d; not gated: needs n>=100 for 10 samples beyond it)\n", stats.Quantile(durs, 0.9), len(durs))
	if fps := framesPerSecond(warm); fps > 0 {
		fmt.Fprintf(w, "frames_per_s %.0f frames/s (n=%d; not gated: eval-suite has no frame counter)\n", fps, len(durs))
	}
	fmt.Fprintf(w, "peak_rss_mb %.1f MiB (median over %d one-operation processes; not gated: see README)\n", stats.Median(rss)/(1<<20), len(rss))
	return m, nil
}

// coldSample runs the cold first operation in a fresh process of this
// binary and returns its wall time in seconds and the process's peak RSS.
func coldSample(o options) (sec float64, rss int64, err error) {
	exe, err := os.Executable()
	if err != nil {
		return 0, 0, err
	}
	cmd := exec.Command(exe, "--workload", o.workload, "--seed", strconv.FormatInt(o.seed, 10),
		"--root", o.root, "--cold")
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return 0, 0, err
	}
	line := lastLine(out)
	if _, err := fmt.Sscanf(line, "cold_s %g rss_bytes %d", &sec, &rss); err != nil {
		return 0, 0, fmt.Errorf("cold run printed %q: %w", line, err)
	}
	return sec, rss, nil
}

// printResult writes the result line: every declared metric by name and
// unit. A declared end-to-end metric the workload did not measure is a bug;
// a per-layer metric the workload does not exercise reads 0.
func printResult(w io.Writer, s *harness, declared []metricSpec, m map[string]float64, strict bool) error {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := make(map[string]value, len(declared))
	for _, d := range declared {
		v, ok := m[d.Name]
		if !ok && strict {
			return fmt.Errorf("metric %s was not measured", d.Name)
		}
		out[d.Name] = value{Value: v, Unit: d.Unit}
	}
	line, err := json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{s.failed == 0, s.attempted, s.failed, out})
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", line)
	return err
}

func seconds(s float64) time.Duration { return time.Duration(s * float64(time.Second)) }

// opMillis returns the operations' wall times in milliseconds.
func opMillis(recs []opRec) []float64 {
	out := make([]float64, len(recs))
	for i, r := range recs {
		out[i] = ms(r.dur)
	}
	return out
}

// framesPerSecond is frames handled per wall second over the operations.
func framesPerSecond(recs []opRec) float64 {
	var frames float64
	var d time.Duration
	for _, r := range recs {
		frames += r.frames
		d += r.dur
	}
	if d <= 0 {
		return 0
	}
	return frames / d.Seconds()
}

// lastLine returns the last non-empty line of out.
func lastLine(out []byte) string {
	lines := strings.Split(strings.TrimSpace(string(out)), "\n")
	return strings.TrimSpace(lines[len(lines)-1])
}

// metricSpec is one metric BENCHMARK.json declares.
type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// benchSpec is BENCHMARK.json: the workloads, the run length and the
// declared metrics the harness prints.
type benchSpec struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

func loadSpec(path string) (*benchSpec, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	var spec benchSpec
	if err := dec.Decode(&spec); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &spec, nil
}

func workloadNames() []string {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}
