// Command abstat summarises paired benchmark runs of two commits. It reads
// one or more sets of runs, each a pair of directories of saved bench runs,
// A (the base) and B (the change), each holding one file per run named
// <workload>.<seed>.out with that run's standard output, and pairs the runs
// of a set by file name. For every set, workload and metric it prints A's
// quartiles, both sides' medians, B's relative change, how many pairs B
// won, the p-values of the exact sign test and Wilcoxon signed-rank test on
// the paired differences, and a verdict:
//
//	gain         B won at least 9 pairs in 10 and the medians differ, in
//	             B's favour, by more than A's interquartile range
//	worse>bound  B's median is worse than A's by more than the metric's
//	             bound in BENCHMARK.json (end-to-end metrics only)
//	within       otherwise
//
// With two or more sets it then prints, for every metric some set did not
// call within, each set's verdict and an overall one, given only when
// every set agrees: replay medians have moved between benchmark checks by
// more than a 10% change, so one set of pairs can call a gain that the
// next does not reproduce.
//
// Quartiles use the exclusive method, as the benchmark's `bench compare`
// does.
//
//	go run ./scripts/abstat <runsA> <runsB> [<runsA2> <runsB2> …]
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
	if len(os.Args) < 3 || len(os.Args)%2 != 1 {
		fmt.Fprintln(os.Stderr, "usage: abstat <runsA> <runsB> [<runsA2> <runsB2> …]")
		os.Exit(2)
	}
	if err := run(os.Stdout, "BENCHMARK.json", os.Args[1:]...); err != nil {
		fmt.Fprintln(os.Stderr, "abstat:", err)
		os.Exit(1)
	}
}

// run prints the table of each set of runs, dirs being A and B of the
// first set, then of the second, and so on, and with two or more sets the
// verdicts they agree on.
func run(w io.Writer, specPath string, dirs ...string) error {
	if len(dirs) == 0 || len(dirs)%2 != 0 {
		return fmt.Errorf("want pairs of run directories, got %d directories", len(dirs))
	}
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
	sets := len(dirs) / 2
	var rows []string                 // workload\tmetric, in first-set order
	verdicts := map[string][]string{} // by row, one per set
	for k := 0; k < sets; k++ {
		if sets > 1 {
			fmt.Fprintf(w, "==> set %d of %d\n", k+1, sets)
		}
		set, err := table(w, metrics, dirs[2*k], dirs[2*k+1])
		if err != nil {
			return err
		}
		for _, v := range set {
			if verdicts[v.row] == nil {
				rows = append(rows, v.row)
			}
			verdicts[v.row] = append(verdicts[v.row], v.verdict)
		}
	}
	if sets < 2 {
		return nil
	}
	fmt.Fprintf(w, "==> verdicts over %d sets: given where every set agrees, \"disagree\" otherwise; every metric not listed is within in every set\n", sets)
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\tper set\tverdict")
	for _, row := range rows {
		vs := verdicts[row]
		agreed := len(vs) == sets
		within := true
		for _, v := range vs {
			agreed = agreed && v == vs[0]
			within = within && v == "within"
		}
		if within && agreed {
			continue
		}
		verdict := "disagree"
		if agreed {
			verdict = vs[0]
		}
		fmt.Fprintf(tw, "%s\t%s\t%s\n", row, strings.Join(vs, ","), verdict)
	}
	return tw.Flush()
}

// setVerdict is one table row's verdict; row is "workload\tmetric".
type setVerdict struct{ row, verdict string }

// table prints one set's table and pair summary and returns its verdicts.
func table(w io.Writer, metrics []metric, dirA, dirB string) ([]setVerdict, error) {
	names, err := filepath.Glob(filepath.Join(dirA, "*.out"))
	if err != nil {
		return nil, err
	}
	sort.Strings(names)
	type pair struct{ a, b result }
	pairs := map[string][]pair{} // by workload, in file-name order
	var workloads []string
	for _, pa := range names {
		base := filepath.Base(pa)
		a, err := load(pa)
		if err != nil {
			return nil, err
		}
		b, err := load(filepath.Join(dirB, base))
		if err != nil {
			return nil, err
		}
		wl, _, _ := strings.Cut(base, ".")
		if pairs[wl] == nil {
			workloads = append(workloads, wl)
		}
		pairs[wl] = append(pairs[wl], pair{a, b})
	}
	if len(workloads) == 0 {
		return nil, fmt.Errorf("no runs in %s", dirA)
	}

	var verdicts []setVerdict
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
			v := verdict(m, qa, mb, better, len(diffs))
			verdicts = append(verdicts, setVerdict{wl + "\t" + m.Name, v})
			fmt.Fprintf(tw, "%s\t%s\t%s\t%.4g [%.4g %.4g]\t%.4g\t%s\t%d/%d\t%.3g\t%.3g\t%s\n", wl, m.Name, m.Unit,
				ma, qa[0], qa[2], mb, change, better, len(diffs), psign, pwil, v)
		}
	}
	if err := tw.Flush(); err != nil {
		return nil, err
	}
	for _, wl := range workloads {
		var fa, aa, fb, ab int
		for _, p := range pairs[wl] {
			fa, aa = fa+p.a.Failed, aa+p.a.Attempted
			fb, ab = fb+p.b.Failed, ab+p.b.Attempted
		}
		fmt.Fprintf(w, "%s: %d pairs; failed/attempted A %d/%d, B %d/%d\n", wl, len(pairs[wl]), fa, aa, fb, ab)
	}
	return verdicts, nil
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
