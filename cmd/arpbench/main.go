// Command arpbench regenerates every table and figure of the evaluation
// (see EXPERIMENTS.md) from the simulator.
//
// Usage:
//
//	arpbench                      # everything, quick trial counts
//	arpbench -list                # enumerate the experiment and scheme catalogues
//	arpbench -run table3          # one experiment by ID
//	arpbench -run table3,figure2  # several, in the order given
//	arpbench -table 3             # numeric alias for -run table3
//	arpbench -figure 2            # numeric alias for -run figure2
//	arpbench -run figure3 -params '{"sizes":[4,8],"horizonSeconds":30}'
//	arpbench -trials 20           # more trials per experiment
//	arpbench -csv                 # machine-readable output
//	arpbench -json                # JSON documents instead of aligned text
//	arpbench -parallel 1          # force sequential trial execution
//
// Experiments come from the declarative registry in
// internal/eval/experiments; every ID listed by -list is runnable via -run.
// Trials fan out across a worker pool (default GOMAXPROCS); output is
// byte-identical at any width because every trial is an isolated seeded
// simulation and results are aggregated in seed order.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"strings"
	"time"

	"runtime/pprof"

	"repro/internal/analysis"
	"repro/internal/eval"
	"repro/internal/eval/experiments"
	"repro/internal/ops"
	"repro/internal/schemes/registry"
	_ "repro/internal/schemes/registry/all" // link every scheme factory
	"repro/internal/telemetry"
)

// runMetrics records the host-machine cost of regenerating one table or
// figure: wall-clock time plus the Go runtime's allocation and GC work.
type runMetrics struct {
	Experiment   string  `json:"experiment"`
	Parallel     int     `json:"parallel"` // trial worker-pool width used
	WallSeconds  float64 `json:"wallSeconds"`
	AllocBytes   uint64  `json:"allocBytes"` // heap bytes allocated during the run
	Mallocs      uint64  `json:"mallocs"`    // heap objects allocated during the run
	HeapInUse    uint64  `json:"heapInUseBytes"`
	GCCycles     uint32  `json:"gcCycles"`     // collections completed during the run
	GCPauseNanos uint64  `json:"gcPauseNanos"` // total pause time accrued during the run
}

// measure runs fn and returns what it cost.
func measure(name string, fn func() error) (runMetrics, error) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	start := time.Now()
	err := fn()
	wall := time.Since(start)
	runtime.ReadMemStats(&after)
	return runMetrics{
		Experiment:   name,
		WallSeconds:  wall.Seconds(),
		AllocBytes:   after.TotalAlloc - before.TotalAlloc,
		Mallocs:      after.Mallocs - before.Mallocs,
		HeapInUse:    after.HeapInuse,
		GCCycles:     after.NumGC - before.NumGC,
		GCPauseNanos: after.PauseTotalNs - before.PauseTotalNs,
	}, err
}

// printCatalog renders the -list output: the experiment registry (every ID
// is runnable via -run, shown with its default parameters), then the scheme
// catalogue the stacked deployments draw from.
func printCatalog(w io.Writer) error {
	if _, err := fmt.Fprintf(w, "experiments (runnable via -run <id>, parameters overridable via -params):\n"); err != nil {
		return err
	}
	if err := experiments.WriteCatalogue(w); err != nil {
		return err
	}
	if _, err := fmt.Fprintf(w, "\nschemes (deployable singly or stacked, e.g. dai+arpwatch+port-security):\n"); err != nil {
		return err
	}
	return registry.WriteCatalogue(w)
}

// printRecommendation renders the analysis ranking with its rationale.
func printRecommendation(w io.Writer, envName string) error {
	var env analysis.Environment
	found := false
	for _, cand := range analysis.StandardEnvironments() {
		if cand.Name == envName {
			env, found = cand, true
		}
	}
	if !found {
		return fmt.Errorf("unknown environment %q", envName)
	}
	fmt.Fprintf(w, "scheme ranking for %q (managed=%v dhcp=%v all-hosts=%v prevention=%v)\n\n",
		env.Name, env.Managed, env.DynamicAddressing, env.CanTouchAllHosts, env.WantPrevention)
	for rank, rec := range analysis.Recommend(env) {
		fmt.Fprintf(w, "%2d. %-16s score %+d  [%s, %s]\n", rank+1, rec.Scheme.Name,
			rec.Score, rec.Scheme.Role, rec.Scheme.Residence)
		for _, why := range rec.Why {
			if why != "" {
				fmt.Fprintf(w, "      - %s\n", why)
			}
		}
		fmt.Fprintf(w, "      %s\n", rec.Scheme.Notes)
	}
	return nil
}

func main() {
	if err := run(os.Stdout, os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "arpbench:", err)
		os.Exit(1)
	}
}

// selection resolves the -run/-table/-figure flags to descriptors, keeping
// the order the user gave.
func selection(runIDs string, table, figure int) ([]*experiments.Descriptor, error) {
	var ids []string
	if runIDs != "" {
		for _, id := range strings.Split(runIDs, ",") {
			if id = strings.TrimSpace(id); id != "" {
				ids = append(ids, id)
			}
		}
	}
	if table != 0 {
		ids = append(ids, fmt.Sprintf("table%d", table))
	}
	if figure != 0 {
		ids = append(ids, fmt.Sprintf("figure%d", figure))
	}
	out := make([]*experiments.Descriptor, 0, len(ids))
	for _, id := range ids {
		d, ok := experiments.Lookup(id)
		if !ok {
			return nil, experiments.UnknownExperimentError(id)
		}
		out = append(out, d)
	}
	return out, nil
}

func run(w io.Writer, args []string) error {
	fs := flag.NewFlagSet("arpbench", flag.ContinueOnError)
	runIDs := fs.String("run", "", "comma-separated experiment IDs to render (see -list), e.g. table3,figure2")
	table := fs.Int("table", 0, "render only this table (alias for -run tableN)")
	figure := fs.Int("figure", 0, "render only this figure (alias for -run figureN)")
	params := fs.String("params", "", "JSON object overriding the selected experiment's default parameters (single experiment only)")
	list := fs.Bool("list", false, "list the experiment and scheme catalogues, then exit")
	trials := fs.Int("trials", 5, "trials per stochastic experiment")
	parallel := fs.Int("parallel", runtime.GOMAXPROCS(0), "trial worker goroutines (1 = sequential; output is identical at any width)")
	shards := fs.Int("shards", 0, "shard worker goroutines for the campus engine (figure9, figure10; 0 = one, the engine default; output is identical at any width)")
	csv := fs.Bool("csv", false, "emit CSV instead of aligned text")
	jsonOut := fs.Bool("json", false, "emit JSON documents instead of aligned text")
	recommend := fs.String("recommend", "", "print the ranked schemes and scoring rationale for an environment: soho | enterprise | open-wifi | lab-static")
	metricsPath := fs.String("metrics", "", "write per-experiment runtime metrics (wall time, allocations, GC) to this file as JSON")
	httpAddr := ops.Flag(fs)
	cpuProfile := fs.String("cpuprofile", "", "write a CPU profile of the whole run to this file (go tool pprof)")
	memProfile := fs.String("memprofile", "", "write a heap profile taken after the run to this file (go tool pprof)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			return fmt.Errorf("create cpu profile: %w", err)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			return fmt.Errorf("start cpu profile: %w", err)
		}
		defer pprof.StopCPUProfile()
	}
	if *memProfile != "" {
		defer func() {
			f, err := os.Create(*memProfile)
			if err != nil {
				fmt.Fprintln(os.Stderr, "arpbench:", err)
				return
			}
			defer f.Close()
			runtime.GC() // settle the heap so the profile shows retained memory
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintln(os.Stderr, "arpbench: write heap profile:", err)
			}
		}()
	}
	if *list {
		return printCatalog(w)
	}
	if *recommend != "" {
		return printRecommendation(w, *recommend)
	}
	if *csv && *jsonOut {
		return fmt.Errorf("-csv and -json are mutually exclusive")
	}
	eval.SetParallelism(*parallel)

	// Trial registries are per-trial and private, so the harness's own
	// registry stays empty: -http serves pprof and the final flight dump,
	// and its /metrics carries no counters.
	srv, err := ops.Start(*httpAddr, telemetry.New())
	if err != nil {
		return err
	}
	defer srv.Finish(0, "all experiments rendered")

	selected, err := selection(*runIDs, *table, *figure)
	if err != nil {
		return err
	}
	raw := json.RawMessage(*params)
	if len(raw) > 0 && len(selected) != 1 {
		return fmt.Errorf("-params needs exactly one selected experiment, got %d", len(selected))
	}

	var collected []runMetrics
	writeMetrics := func() error {
		if *metricsPath == "" {
			return nil
		}
		f, err := os.Create(*metricsPath)
		if err != nil {
			return fmt.Errorf("create metrics file: %w", err)
		}
		defer f.Close()
		enc := json.NewEncoder(f)
		enc.SetIndent("", "  ")
		if err := enc.Encode(collected); err != nil {
			return fmt.Errorf("encode runtime metrics: %w", err)
		}
		return f.Close()
	}

	emit := func(a eval.Artifact) error {
		switch {
		case *csv:
			return a.CSV(w)
		case *jsonOut:
			return a.JSON(w)
		}
		if err := a.Render(w); err != nil {
			return err
		}
		_, err := fmt.Fprintln(w)
		return err
	}

	runOne := func(d *experiments.Descriptor) error {
		p, err := d.Params(*trials, raw)
		if err != nil {
			return err
		}
		if cp, ok := p.(*experiments.CampusParams); ok && *shards > 0 {
			cp.Workers = *shards
		}
		m, err := measure(d.ID, func() error {
			a, err := d.Produce(p)
			if err != nil {
				return err
			}
			return emit(a)
		})
		if err != nil {
			return err
		}
		m.Parallel = eval.Parallelism()
		collected = append(collected, m)
		return nil
	}

	if len(selected) == 0 {
		selected = experiments.List()
	}
	for _, d := range selected {
		if err := runOne(d); err != nil {
			return err
		}
	}
	return writeMetrics()
}
