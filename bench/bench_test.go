package main

import (
	"bytes"
	"encoding/json"
	"math"
	"sort"
	"strings"
	"testing"
	"time"
)

// smokeSeconds is a run length shorter than any operation, so each phase
// runs exactly one.
const smokeSeconds = "0.001"

// TestWorkloadsSmoke runs every workload for two operations, the cold one
// and one warm, with every output check on, plus one workload traced, so
// the harness and BENCHMARK.json cannot drift apart unnoticed.
func TestWorkloadsSmoke(t *testing.T) {
	spec, err := loadSpec("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, wl := range spec.Workloads {
		names = append(names, wl.Name)
	}
	sort.Strings(names)
	if got := strings.Join(workloadNames(), " "); got != strings.Join(names, " ") {
		t.Fatalf("harness workloads %q, BENCHMARK.json declares %q", got, names)
	}
	for _, name := range names {
		t.Run(name, func(t *testing.T) {
			r := runHarness(t, "--workload", name, "--seconds", smokeSeconds, "--setups", "1", "--root", "..")
			for _, m := range spec.EndToEnd {
				if v, ok := r.Metrics[m.Name]; !ok || v.Value <= 0 || v.Unit != m.Unit {
					t.Errorf("%s = %+v, want a positive value in %s", m.Name, v, m.Unit)
				}
			}
		})
	}
	t.Run("campus-1e6 traced", func(t *testing.T) {
		r := runHarness(t, "--workload", "campus-1e6", "--seconds", smokeSeconds, "--trace", "1",
			"--root", "..", "--trace-dir", t.TempDir())
		for _, m := range spec.PerLayer {
			if _, ok := r.Metrics[m.Name]; !ok {
				t.Errorf("per-layer metric %s missing", m.Name)
			}
		}
		for _, name := range []string{"scenario.run_ms", "sim.shard_rounds", "faults.injected", "runtime.cpu_util"} {
			if r.Metrics[name].Value <= 0 {
				t.Errorf("%s = %v, want > 0 on campus-1e6", name, r.Metrics[name].Value)
			}
		}
	})
}

// TestDigestRepeats runs operations 0 and 10 of the seed-cycling workloads,
// which share a seed, and then operation 20 against a tampered first digest:
// the second operation must pass and the third must fail, so the digest
// check really compares.
func TestDigestRepeats(t *testing.T) {
	for name, digests := range map[string]func(workload) map[int64][32]byte{
		"lan-128":    func(w workload) map[int64][32]byte { return w.(*lan128).digests },
		"campus-1e6": func(w workload) map[int64][32]byte { return w.(*campus).digests },
	} {
		t.Run(name, func(t *testing.T) {
			wl, err := workloads[name](1, "..")
			if err != nil {
				t.Fatal(err)
			}
			s := &harness{wl: wl}
			s.op(0, nil)
			s.op(10, nil)
			if s.failed != 0 || len(digests(wl)) != 1 {
				t.Fatalf("%d of 2 operations failed, %d digests recorded; want 0 and 1", s.failed, len(digests(wl)))
			}
			for seed := range digests(wl) {
				digests(wl)[seed] = [32]byte{}
			}
			s.op(20, nil)
			if s.failed != 1 {
				t.Fatal("a result differing from its seed's first digest passed the check")
			}
		})
	}
}

// runHarness runs the harness in-process and returns its result line,
// failing the test unless every operation passed its output check.
func runHarness(t *testing.T, args ...string) result {
	t.Helper()
	var out bytes.Buffer
	if err := run(&out, args); err != nil {
		t.Fatalf("bench %s: %v\n%s", strings.Join(args, " "), err, out.Bytes())
	}
	var r result
	if err := json.Unmarshal([]byte(lastLine(out.Bytes())), &r); err != nil {
		t.Fatalf("result line: %v\n%s", err, out.Bytes())
	}
	if !r.Correct || r.Failed != 0 || r.Attempted < 2 {
		t.Fatalf("correct=%v attempted=%d failed=%d\n%s", r.Correct, r.Attempted, r.Failed, out.Bytes())
	}
	return r
}

// TestQuartilesMatchPython pins the quartile method to Python's
// statistics.quantiles(values, n=4), which calibration is judged by.
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		in   []float64
		want [3]float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{4, 1, 3, 2}, [3]float64{1.25, 2.5, 3.75}},
		{[]float64{7, 9}, [3]float64{6.5, 8, 9.5}},
	} {
		got := quartiles(c.in)
		for i := range got {
			if math.Abs(got[i]-c.want[i]) > 1e-12 {
				t.Errorf("quartiles(%v) = %v, want %v", c.in, got, c.want)
				break
			}
		}
	}
}

// TestParseTraces checks the CPU attribution rule on pprof -traces text:
// GC frames anywhere win, otherwise the innermost repository frame names
// the layer (generic instantiations included), otherwise runtime.other.
func TestParseTraces(t *testing.T) {
	const out = `File: bench
Type: cpu
-----------+-------------------------------------------------------
      30ms   runtime.mapaccess2
             repro/internal/stack.(*Cache).slot (inline)
             repro/internal/netsim.(*NIC).deliver
-----------+-------------------------------------------------------
      20ms   runtime.scanobject
             runtime.gcDrain
-----------+-------------------------------------------------------
      10ms   runtime.memmove
             repro/internal/eval.Map[go.shape.struct { repro/internal/sim.x int }].func1
-----------+-------------------------------------------------------
     1.5s   syscall.Syscall
             main.main
-----------+-------------------------------------------------------
`
	got, err := parseTraces([]byte(out))
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]time.Duration{
		"stack": 30 * time.Millisecond, "runtime.gc": 20 * time.Millisecond,
		"eval": 10 * time.Millisecond, "runtime.other": 1500 * time.Millisecond,
	}
	if len(got) != len(want) {
		t.Fatalf("got %v, want %v", got, want)
	}
	for k, v := range want {
		if got[k] != v {
			t.Errorf("%s = %v, want %v", k, got[k], v)
		}
	}
}
