package eval

import (
	"bytes"
	"sync/atomic"
	"testing"
	"time"
)

func TestRunTrialsSeedOrder(t *testing.T) {
	for _, workers := range []int{1, 4} {
		SetParallelism(workers)
		got := RunTrials(17, func(seed int64) int64 { return seed * seed })
		SetParallelism(0)
		if len(got) != 17 {
			t.Fatalf("workers=%d: len = %d", workers, len(got))
		}
		for i, v := range got {
			seed := int64(i) + 1
			if v != seed*seed {
				t.Fatalf("workers=%d: index %d = %d, want %d", workers, i, v, seed*seed)
			}
		}
	}
}

func TestMapIndexAligned(t *testing.T) {
	SetParallelism(8)
	defer SetParallelism(0)
	cfgs := []string{"a", "bb", "ccc", "dddd"}
	got := Map(cfgs, func(s string) int { return len(s) })
	for i, n := range got {
		if n != i+1 {
			t.Fatalf("Map misaligned: %v", got)
		}
	}
}

func TestRunTrialsEmptyAndNegative(t *testing.T) {
	if got := RunTrials(0, func(int64) int { return 1 }); len(got) != 0 {
		t.Fatalf("0 trials returned %v", got)
	}
	if got := RunTrials(-3, func(int64) int { return 1 }); len(got) != 0 {
		t.Fatalf("negative trials returned %v", got)
	}
}

func TestRunTrialsPanicPropagates(t *testing.T) {
	SetParallelism(4)
	defer SetParallelism(0)
	defer func() {
		if r := recover(); r != "trial boom" {
			t.Fatalf("recovered %v, want the trial's panic", r)
		}
	}()
	RunTrials(32, func(seed int64) int {
		if seed == 5 {
			panic("trial boom")
		}
		return 0
	})
	t.Fatal("RunTrials returned instead of panicking")
}

func TestRunTrialsUsesPool(t *testing.T) {
	SetParallelism(4)
	defer SetParallelism(0)
	var peak, cur atomic.Int32
	RunTrials(64, func(int64) int {
		n := cur.Add(1)
		for {
			p := peak.Load()
			if n <= p || peak.CompareAndSwap(p, n) {
				break
			}
		}
		time.Sleep(time.Millisecond)
		cur.Add(-1)
		return 0
	})
	if peak.Load() > 4 {
		t.Fatalf("concurrency peaked at %d with a 4-worker pool", peak.Load())
	}
	if peak.Load() < 2 {
		t.Fatalf("trials never overlapped (peak %d); pool is not fanning out", peak.Load())
	}
}

// TestParallelOutputByteIdentical is the determinism gate for the parallel
// runner: Table 3 and Figure 4 rendered sequentially and at -parallel 4
// must match byte for byte. It also exercises the worker pool under
// `go test -race ./internal/eval` (part of scripts/check.sh).
func TestParallelOutputByteIdentical(t *testing.T) {
	render := func(workers int) (string, string) {
		SetParallelism(workers)
		defer SetParallelism(0)
		var tb, fb bytes.Buffer
		if err := Table3Detection(4).Render(&tb); err != nil {
			t.Fatal(err)
		}
		if err := Figure4ChurnFalsePositives(1).Render(&fb); err != nil {
			t.Fatal(err)
		}
		return tb.String(), fb.String()
	}
	seqTable, seqFigure := render(1)
	parTable, parFigure := render(4)
	if seqTable != parTable {
		t.Errorf("Table 3 differs between sequential and parallel runs:\n--- sequential\n%s--- parallel\n%s", seqTable, parTable)
	}
	if seqFigure != parFigure {
		t.Errorf("Figure 4 differs between sequential and parallel runs:\n--- sequential\n%s--- parallel\n%s", seqFigure, parFigure)
	}
}

// TestTableRenderRaggedRows pins the writeRow fix: rows with more cells
// than columns must render (unaligned tail) and round-trip to CSV instead
// of panicking on widths[i].
func TestTableRenderRaggedRows(t *testing.T) {
	tbl := &Table{
		ID:      "Table X",
		Title:   "ragged",
		Columns: []string{"a", "b"},
	}
	tbl.AddRow("1", "2", "3", "4") // wider than the header
	tbl.AddRow("only-one")
	var buf bytes.Buffer
	if err := tbl.Render(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"3", "4", "only-one"} {
		if !bytes.Contains(buf.Bytes(), []byte(want)) {
			t.Fatalf("render lost cell %q:\n%s", want, out)
		}
	}
	var csv bytes.Buffer
	if err := tbl.CSV(&csv); err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(csv.Bytes(), []byte("1,2,3,4")) {
		t.Fatalf("csv lost ragged cells:\n%s", csv.String())
	}
}

// TestLatencyCellEmptyRendersNA pins the zero-detection guard: a scheme
// with no detection latencies must render n/a, not a quantile of an empty
// slice.
func TestLatencyCellEmptyRendersNA(t *testing.T) {
	if got := latencyCell(nil, 0.5); got != "n/a" {
		t.Fatalf("empty latencies rendered %q, want n/a", got)
	}
	if got := latencyCell([]float64{2.5}, 0.5); got != "2.5ms" {
		t.Fatalf("latency cell = %q, want 2.5ms", got)
	}
	// End to end: an unreachable attack produces a zero-detection trial,
	// the input that used to feed Quantile an empty slice.
	res := runTrial(trialConfig{
		scheme:   "active-probe",
		seed:     1,
		hosts:    8,
		churns:   0,
		attackAt: 10 * time.Minute, // beyond the horizon: never detected
		horizon:  30 * time.Second,
	})
	if res.detected {
		t.Fatal("attack past the horizon cannot be detected")
	}
}
