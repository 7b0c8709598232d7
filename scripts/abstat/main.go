// Command abstat summarises paired benchmark runs of two commits. It reads
// two directories of saved bench runs, A (the base) and B (the change),
// each holding one file per run named <workload>.<seed>.out with that run's
// standard output, and pairs the runs by file name. For every workload and
// metric it prints A's quartiles, both sides' medians, B's relative change,
// how many pairs B won, the p-values of the exact sign test and Wilcoxon
// signed-rank test on the paired differences, and a verdict:
//
//	gain         B won at least 9 pairs in 10 and the medians differ, in
//	             B's favour, by more than A's interquartile range
//	worse>bound  B's median is worse than A's by more than the metric's
//	             bound in BENCHMARK.json (end-to-end metrics only)
//	within       otherwise
//
// Quartiles use the exclusive method, as the benchmark's `bench compare`
// does.
//
//	go run ./scripts/abstat <runsA> <runsB>
//
// Metric directions and bounds come from BENCHMARK.json in the working
// directory.
// scripts/ab.sh records the runs and calls it.
package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
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
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"` // relative; zero when the metric has none
}

func main() {
	if len(os.Args) != 3 {
		fmt.Fprintln(os.Stderr, "usage: abstat <runsA> <runsB>")
		os.Exit(2)
	}
	if err := run(os.Stdout, "BENCHMARK.json", os.Args[1], os.Args[2]); err != nil {
		fmt.Fprintln(os.Stderr, "abstat:", err)
		os.Exit(1)
	}
}

func run(w io.Writer, specPath, dirA, dirB string) error {
	raw, err := os.ReadFile(specPath)
	if err != nil {
		return err
	}
	var spec struct {
		EndToEnd []metric `json:"end_to_end"`
		PerLayer []metric `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		return fmt.Errorf("%s: %w", specPath, err)
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
	fmt.Fprintln(tw, "workload\tmetric\tunit\tA median [q1 q3]\tB median\tchange\tB better\tsign p\twilcoxon p\tverdict")
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
			qa, mb := stats.Quartiles(va), stats.Median(vb)
			ma := qa[1]
			if ma == 0 && mb == 0 {
				continue // a layer this workload does not exercise
			}
			change := "-"
			if ma != 0 {
				change = fmt.Sprintf("%+.1f%%", 100*(mb-ma)/ma)
			}
			_, better, psign := stats.SignTest(diffs)
			_, pwil := stats.WilcoxonSignedRank(diffs)
			fmt.Fprintf(tw, "%s\t%s\t%s\t%.4g [%.4g %.4g]\t%.4g\t%s\t%d/%d\t%.3g\t%.3g\t%s\n", wl, m.Name, m.Unit,
				ma, qa[0], qa[2], mb, change, better, len(diffs), psign, pwil, verdict(m, qa, mb, better, len(diffs)))
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

// verdict judges B against A for one metric: qa is A's quartiles, mb B's
// median, and B read better in better of pairs pairs.
func verdict(m metric, qa [3]float64, mb float64, better, pairs int) string {
	worse := mb - qa[1] // positive: B is worse
	if m.Better == "higher" {
		worse = -worse
	}
	switch {
	case 10*better >= 9*pairs && worse < 0 && -worse > qa[2]-qa[0]:
		return "gain"
	case m.Bound > 0 && qa[1] != 0 && worse/math.Abs(qa[1]) > m.Bound:
		return "worse>bound"
	}
	return "within"
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
