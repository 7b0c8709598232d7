// Command abstat summarises paired benchmark runs of two commits. It reads
// two directories of saved bench runs, A (the base) and B (the change),
// each holding one file per run named <workload>.<seed>.out with that run's
// standard output, and pairs the runs by file name. For every workload and
// metric it prints both sides' medians, B's relative change, how many pairs
// B won, and the p-values of the exact sign test and Wilcoxon signed-rank
// test on the paired differences. (Quartiles, and the bound verdicts, come
// from the benchmark's own `bench compare`.)
//
//	go run ./scripts/abstat <runsA> <runsB>
//
// Metric directions come from BENCHMARK.json in the working directory.
// scripts/ab.sh records the runs and calls it.
package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"text/tabwriter"

	"repro/internal/stats"
)

// result is the last line a bench run prints.
type result struct {
	Attempted int `json:"attempted"`
	Failed    int `json:"failed"`
	Metrics   map[string]struct {
		Value float64 `json:"value"`
	} `json:"metrics"`
}

// metric is one BENCHMARK.json metric declaration.
type metric struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
}

func main() {
	if len(os.Args) != 3 {
		fmt.Fprintln(os.Stderr, "usage: abstat <runsA> <runsB>")
		os.Exit(2)
	}
	if err := run(os.Stdout, os.Args[1], os.Args[2]); err != nil {
		fmt.Fprintln(os.Stderr, "abstat:", err)
		os.Exit(1)
	}
}

func run(w io.Writer, dirA, dirB string) error {
	raw, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		return err
	}
	var spec struct {
		EndToEnd []metric `json:"end_to_end"`
		PerLayer []metric `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		return fmt.Errorf("BENCHMARK.json: %w", err)
	}
	metrics := append(spec.EndToEnd, spec.PerLayer...)

	names, err := filepath.Glob(filepath.Join(dirA, "*.out"))
	if err != nil {
		return err
	}
	sort.Strings(names)
	type pair struct{ a, b result }
	pairs := map[string][]pair{} // by workload, in file-name order
	var workloads []string
	for _, pa := range names {
		base := filepath.Base(pa)
		a, err := load(pa)
		if err != nil {
			return err
		}
		b, err := load(filepath.Join(dirB, base))
		if err != nil {
			return err
		}
		wl, _, _ := strings.Cut(base, ".")
		if pairs[wl] == nil {
			workloads = append(workloads, wl)
		}
		pairs[wl] = append(pairs[wl], pair{a, b})
	}
	if len(workloads) == 0 {
		return fmt.Errorf("no runs in %s", dirA)
	}

	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\tunit\tA median\tB median\tchange\tB better\tsign p\twilcoxon p")
	for _, wl := range workloads {
		for _, m := range metrics {
			var va, vb, diffs []float64
			for _, p := range pairs[wl] {
				x, okA := p.a.Metrics[m.Name]
				y, okB := p.b.Metrics[m.Name]
				if !okA || !okB {
					continue
				}
				va, vb = append(va, x.Value), append(vb, y.Value)
				d := y.Value - x.Value // positive: B reads higher
				if m.Better == "higher" {
					d = -d
				}
				diffs = append(diffs, d) // positive: B is worse
			}
			if len(va) == 0 {
				continue
			}
			ma, mb := stats.Median(va), stats.Median(vb)
			if ma == 0 && mb == 0 {
				continue // a layer this workload does not exercise
			}
			change := "-"
			if ma != 0 {
				change = fmt.Sprintf("%+.1f%%", 100*(mb-ma)/ma)
			}
			_, better, psign := stats.SignTest(diffs)
			_, pwil := stats.WilcoxonSignedRank(diffs)
			fmt.Fprintf(tw, "%s\t%s\t%s\t%.4g\t%.4g\t%s\t%d/%d\t%.3g\t%.3g\n", wl, m.Name, m.Unit,
				ma, mb, change, better, len(diffs), psign, pwil)
		}
	}
	if err := tw.Flush(); err != nil {
		return err
	}
	for _, wl := range workloads {
		var fa, aa, fb, ab int
		for _, p := range pairs[wl] {
			fa, aa = fa+p.a.Failed, aa+p.a.Attempted
			fb, ab = fb+p.b.Failed, ab+p.b.Attempted
		}
		fmt.Fprintf(w, "%s: %d pairs; failed/attempted A %d/%d, B %d/%d\n", wl, len(pairs[wl]), fa, aa, fb, ab)
	}
	return nil
}

// load reads one run file's result line (its last non-empty line).
func load(path string) (result, error) {
	var r result
	raw, err := os.ReadFile(path)
	if err != nil {
		return r, err
	}
	lines := strings.Split(strings.TrimSpace(string(raw)), "\n")
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &r); err != nil {
		return r, fmt.Errorf("%s: last line is not a result: %w", path, err)
	}
	return r, nil
}
