package main

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/eval/experiments"
	"repro/internal/schemes/registry"
)

func TestSingleTable(t *testing.T) {
	var buf bytes.Buffer
	if err := run(&buf, []string{"-run", "table1"}); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "Table 1:") {
		t.Fatalf("missing header:\n%s", buf.String())
	}
}

func TestSingleFigureCSV(t *testing.T) {
	var buf bytes.Buffer
	if err := run(&buf, []string{"-run", "figure2", "-trials", "1", "-csv"}); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.HasPrefix(out, "series,attacker_delay_ms,poisoning_probability") {
		t.Fatalf("csv header wrong:\n%s", out)
	}
	if !strings.Contains(out, "solicited-only,") {
		t.Fatal("csv rows missing")
	}
}

func TestStochasticTableSmall(t *testing.T) {
	var buf bytes.Buffer
	if err := run(&buf, []string{"-run", "table5", "-trials", "1"}); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "host protection") {
		t.Fatalf("ablation rows missing:\n%s", buf.String())
	}
}

func TestRunFlag(t *testing.T) {
	// -run accepts a comma-separated ID list and renders in the order given,
	// including suffixed companions.
	var buf bytes.Buffer
	if err := run(&buf, []string{"-run", "table1b,table2", "-trials", "1"}); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	i, j := strings.Index(out, "Table 1b:"), strings.Index(out, "Table 2:")
	if i < 0 || j < 0 || i > j {
		t.Fatalf("want Table 1b before Table 2:\n%s", out)
	}
	if strings.Contains(out, "Table 1:") {
		t.Fatalf("-run table1b rendered table1 too:\n%s", out)
	}
}

func TestRunFlagUnknownID(t *testing.T) {
	var buf bytes.Buffer
	err := run(&buf, []string{"-run", "table42"})
	if err == nil || !strings.Contains(err.Error(), "unknown experiment") {
		t.Fatalf("unknown -run ID accepted: %v", err)
	}
}

func TestParamsFlag(t *testing.T) {
	// Explicit JSON overrides the defaults (and the -trials scaling).
	var buf bytes.Buffer
	if err := run(&buf, []string{"-run", "figure3",
		"-params", `{"sizes":[4],"horizonSeconds":5}`}); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "Figure 3:") {
		t.Fatalf("missing header:\n%s", out)
	}
	if strings.Contains(out, "   64\t") {
		t.Fatalf("default sizes leaked past -params:\n%s", out)
	}

	// Unknown fields are load-time errors, mirroring scheme params.
	if err := run(&buf, []string{"-run", "figure3", "-params", `{"nope":1}`}); err == nil {
		t.Fatal("unknown param field accepted")
	}
	// -params needs exactly one experiment.
	if err := run(&buf, []string{"-run", "table5,table6", "-params", `{"trials":1}`}); err == nil {
		t.Fatal("-params with two experiments accepted")
	}
	// Experiments without parameters reject -params.
	if err := run(&buf, []string{"-run", "table1", "-params", `{}`}); err == nil {
		t.Fatal("-params accepted by a parameterless experiment")
	}
}

func TestRecommendFlag(t *testing.T) {
	var buf bytes.Buffer
	if err := run(&buf, []string{"-recommend", "enterprise"}); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "scheme ranking for \"enterprise\"") ||
		!strings.Contains(out, "1. ") {
		t.Fatalf("output:\n%s", out)
	}
	if err := run(&buf, []string{"-recommend", "nope"}); err == nil {
		t.Fatal("unknown environment accepted")
	}
}

// TestUnknownIDs: -run takes full IDs only, and the numeric -table and
// -figure selectors are not flags.
func TestUnknownIDs(t *testing.T) {
	var buf bytes.Buffer
	for _, args := range [][]string{
		{"-run", "figure42"},
		{"-run", "3"},
		{"-table", "3"},
		{"-figure", "2"},
	} {
		if err := run(&buf, args); err == nil {
			t.Errorf("%v accepted", args)
		}
	}
}

// TestCountsBelowOneRejected: a -trials or -parallel below 1 fails with
// an error naming the flag instead of running at the experiment default
// or at GOMAXPROCS.
func TestCountsBelowOneRejected(t *testing.T) {
	for _, args := range [][]string{
		{"-trials", "0"},
		{"-trials", "-3"},
		{"-parallel", "0"},
		{"-parallel", "-5"},
	} {
		var buf bytes.Buffer
		err := run(&buf, append([]string{"-run", "table5"}, args...))
		if err == nil || !strings.Contains(err.Error(), args[0]) {
			t.Errorf("%v: err = %v, want an error naming %s", args, err, args[0])
		}
		if buf.Len() != 0 {
			t.Errorf("%v: printed %q before failing", args, buf.String())
		}
	}
}

func TestListFlag(t *testing.T) {
	var buf bytes.Buffer
	if err := run(&buf, []string{"-list"}); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	// An experiments header plus one catalogue line and one indented title
	// per experiment, a blank line plus schemes header, then the same two
	// lines per registered scheme.
	want := 1 + 2*len(experiments.List()) + 2 + 2*len(registry.Factories())
	if got := strings.Count(out, "\n"); got != want {
		t.Fatalf("list lines = %d, want %d:\n%s", got, want, out)
	}
	for _, probe := range []string{"table1 ", "table1b", "table9", "figure1", "figure8",
		registry.NameHybridGuard, registry.NamePortSecurity} {
		if !strings.Contains(out, probe) {
			t.Fatalf("list missing %q:\n%s", probe, out)
		}
	}
	// -list must short-circuit: no experiment output, no trials run.
	if strings.Contains(out, "Table 1:") {
		t.Fatal("list rendered an experiment")
	}
}

func TestCatalogMatchesRegisteredExperiments(t *testing.T) {
	// Every registered experiment must actually run (with minimal trials),
	// so the -list output can never advertise a dangling ID.
	for _, d := range experiments.List() {
		var buf bytes.Buffer
		if err := run(&buf, []string{"-run", d.ID, "-trials", "1"}); err != nil {
			t.Fatalf("registered experiment %s does not run: %v", d.ID, err)
		}
	}
}

func TestTable8ParallelByteIdentical(t *testing.T) {
	var seq, par bytes.Buffer
	if err := run(&seq, []string{"-run", "table8", "-trials", "2", "-parallel", "1"}); err != nil {
		t.Fatal(err)
	}
	if err := run(&par, []string{"-run", "table8", "-trials", "2", "-parallel", "8"}); err != nil {
		t.Fatal(err)
	}
	if seq.String() != par.String() {
		t.Fatalf("table 8 differs across parallelism:\n--- seq ---\n%s--- par ---\n%s", seq.String(), par.String())
	}
	if !strings.Contains(seq.String(), "Table 8:") {
		t.Fatalf("missing header:\n%s", seq.String())
	}
}

func TestTable9ParallelByteIdentical(t *testing.T) {
	var seq, par bytes.Buffer
	if err := run(&seq, []string{"-run", "table9", "-trials", "1", "-parallel", "1"}); err != nil {
		t.Fatal(err)
	}
	if err := run(&par, []string{"-run", "table9", "-trials", "1", "-parallel", "8"}); err != nil {
		t.Fatal(err)
	}
	if seq.String() != par.String() {
		t.Fatalf("table 9 differs across parallelism:\n--- seq ---\n%s--- par ---\n%s", seq.String(), par.String())
	}
	if !strings.Contains(seq.String(), "best single:") {
		t.Fatalf("missing best-single rows:\n%s", seq.String())
	}
}

// TestHTTPParity pins that serving -http leaves the rendered experiments
// alone: text and JSON output are byte-identical with and without it.
func TestHTTPParity(t *testing.T) {
	for _, args := range [][]string{
		{"-run", "table1"},
		{"-run", "table1,table3", "-trials", "2", "-json"},
	} {
		t.Run(strings.Join(args, " "), func(t *testing.T) {
			var without, with bytes.Buffer
			if err := run(&without, args); err != nil {
				t.Fatal(err)
			}
			if err := run(&with, append(args, "-http", "127.0.0.1:0")); err != nil {
				t.Fatal(err)
			}
			if with.String() != without.String() {
				t.Fatalf("serving ops changed the output:\nwith:\n%s\nwithout:\n%s", with.String(), without.String())
			}
		})
	}
}
