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
)

// result is the last line a benchmark run prints.
type result struct {
	Correct   bool `json:"correct"`
	Attempted int  `json:"attempted"`
	Failed    int  `json:"failed"`
	Metrics   map[string]struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	} `json:"metrics"`
}

// runSet is one side of a comparison: per workload, per metric, the value
// of every run, plus the operations attempted and failed.
type runSet struct {
	values    map[string]map[string][]float64
	attempted map[string]int
	failed    map[string]int
}

// compare reports, for each (workload, metric) pair present in both run
// directories, each side's median and quartiles and a verdict against the
// metric's bound in BENCHMARK.json. A run directory holds one file per
// run, named <workload>.<anything>.out, containing that run's standard
// output; other files are ignored.
func compare(w io.Writer, args []string) error {
	if len(args) != 2 {
		return fmt.Errorf("usage: bench compare <runsA> <runsB>")
	}
	spec, err := loadSpec("BENCHMARK.json")
	if err != nil {
		return err
	}
	a, err := loadRuns(args[0])
	if err != nil {
		return err
	}
	b, err := loadRuns(args[1])
	if err != nil {
		return err
	}
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\tA median [q1 q3] (n)\tB median [q1 q3] (n)\tworse by\tspread\tbound\tverdict")
	metrics := append(append([]metricSpec(nil), spec.EndToEnd...), spec.PerLayer...)
	for _, wl := range spec.Workloads {
		for _, ms := range metrics {
			va, vb := a.values[wl.Name][ms.Name], b.values[wl.Name][ms.Name]
			if len(va) == 0 || len(vb) == 0 {
				continue
			}
			qa, qb := quartiles(va), quartiles(vb)
			if qa[1] == 0 && qb[1] == 0 {
				continue // a layer this workload does not exercise
			}
			change := (qb[1] - qa[1]) / qa[1]
			if ms.Better == "higher" {
				change = -change
			}
			spread := math.Max((qa[2]-qa[0])/qa[1], (qb[2]-qb[0])/qb[1])
			fmt.Fprintf(tw, "%s\t%s\t%s\t%s\t%+.1f%%\t%.1f%%\t%s\t%s\n", wl.Name, ms.Name,
				fmtQ(qa, len(va)), fmtQ(qb, len(vb)), 100*change, 100*spread,
				fmtBound(ms), verdict(ms, va, vb, change, spread))
		}
	}
	if err := tw.Flush(); err != nil {
		return err
	}
	for _, wl := range spec.Workloads {
		if a.attempted[wl.Name]+b.attempted[wl.Name] > 0 {
			fmt.Fprintf(w, "%s fail_ratio: A %d/%d, B %d/%d\n", wl.Name,
				a.failed[wl.Name], a.attempted[wl.Name], b.failed[wl.Name], b.attempted[wl.Name])
		}
	}
	return nil
}

// verdict classifies B against A. change is B's relative worsening of the
// median (negative when better); spread is the wider side's IQR/median.
func verdict(ms metricSpec, va, vb []float64, change, spread float64) string {
	switch {
	case ms.Bound == 0:
		return "no bound"
	case change > ms.Bound:
		return "worse beyond bound"
	case spread > ms.Bound && !allBetter(ms, va, vb):
		return "unresolved (spread wider than bound)"
	default:
		return "within bound"
	}
}

// allBetter reports whether every B run reads better than every A run.
func allBetter(ms metricSpec, va, vb []float64) bool {
	for _, x := range va {
		for _, y := range vb {
			if ms.Better == "higher" && y <= x || ms.Better != "higher" && y >= x {
				return false
			}
		}
	}
	return true
}

func fmtQ(q [3]float64, n int) string {
	return fmt.Sprintf("%.4g [%.4g %.4g] (%d)", q[1], q[0], q[2], n)
}

func fmtBound(ms metricSpec) string {
	if ms.Bound == 0 {
		return "-"
	}
	return fmt.Sprintf("%.0f%%", 100*ms.Bound)
}

// quartiles returns the first quartile, median and third quartile by the
// "exclusive" method of Python's statistics.quantiles(values, n=4).
func quartiles(values []float64) [3]float64 {
	d := append([]float64(nil), values...)
	sort.Float64s(d)
	n := len(d)
	if n < 2 {
		return [3]float64{d[0], d[0], d[0]}
	}
	var q [3]float64
	for i := 1; i <= 3; i++ {
		j := i * (n + 1) / 4
		j = min(max(j, 1), n-1)
		delta := float64(i*(n+1) - j*4)
		q[i-1] = (d[j-1]*(4-delta) + d[j]*delta) / 4
	}
	return q
}

// loadRuns reads every .out run file in dir.
func loadRuns(dir string) (*runSet, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	rs := &runSet{values: map[string]map[string][]float64{}, attempted: map[string]int{}, failed: map[string]int{}}
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".out") {
			continue
		}
		raw, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			return nil, err
		}
		var r result
		if err := json.Unmarshal([]byte(lastLine(raw)), &r); err != nil {
			return nil, fmt.Errorf("%s: last line is not a result: %w", e.Name(), err)
		}
		wl, _, _ := strings.Cut(e.Name(), ".")
		if rs.values[wl] == nil {
			rs.values[wl] = map[string][]float64{}
		}
		for name, v := range r.Metrics {
			rs.values[wl][name] = append(rs.values[wl][name], v.Value)
		}
		rs.attempted[wl] += r.Attempted
		rs.failed[wl] += r.Failed
	}
	return rs, nil
}
