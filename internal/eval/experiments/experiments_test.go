package experiments

import (
	"encoding/json"
	"fmt"
	"os"
	"reflect"
	"regexp"
	"strings"
	"testing"
)

// TestRegistryCoversEvaluationOutput: every artifact in the committed
// evaluation document has a registered experiment, in the same order, and
// the registry advertises nothing the document lacks — the catalogue can
// neither drift behind the evaluation nor dangle ahead of it.
func TestRegistryCoversEvaluationOutput(t *testing.T) {
	raw, err := os.ReadFile("../../../evaluation_output.txt")
	if err != nil {
		t.Fatal(err)
	}
	header := regexp.MustCompile(`(?m)^(Table|Figure) ([0-9]+[a-z]?):`)
	var fromDoc []string
	for _, m := range header.FindAllStringSubmatch(string(raw), -1) {
		fromDoc = append(fromDoc, strings.ToLower(m[1])+m[2])
	}
	if len(fromDoc) == 0 {
		t.Fatal("no artifact headers found in evaluation_output.txt")
	}
	if got := IDs(); !reflect.DeepEqual(got, fromDoc) {
		t.Fatalf("registry IDs do not match evaluation document:\nregistry: %v\ndocument: %v", got, fromDoc)
	}
}

// TestLookupAndNumericAliases: full-ID lookup, and no numeric alias: an
// experiment is found by its full ID only.
func TestLookupAndNumericAliases(t *testing.T) {
	d, ok := Lookup("table1b")
	if !ok || d.ID != "table1b" || d.Num != 1 || d.Kind != KindTable {
		t.Fatalf("Lookup(table1b) = %+v, %v", d, ok)
	}
	d, ok = Lookup("figure8")
	if !ok || d.ID != "figure8" || d.Num != 8 || d.Kind != KindFigure {
		t.Fatalf("Lookup(figure8) = %+v, %v", d, ok)
	}
	for _, id := range []string{"table42", "1", "8"} {
		if _, ok := Lookup(id); ok {
			t.Fatalf("Lookup(%q) succeeded", id)
		}
	}
	if err := UnknownExperimentError("table42"); !strings.Contains(err.Error(), "table1b") {
		t.Fatalf("unknown-experiment error does not list valid IDs: %v", err)
	}
}

// TestParamsDefaultsRoundTrip: for every parameterized experiment, the
// defaults marshal to JSON that decodes back to an identical struct, and
// unknown fields are rejected. Parameterless experiments reject raw JSON.
func TestParamsDefaultsRoundTrip(t *testing.T) {
	for _, d := range List() {
		t.Run(d.ID, func(t *testing.T) {
			if d.DefaultParams == nil {
				if _, err := d.Params(0, json.RawMessage(`{}`)); err == nil {
					t.Fatal("parameterless experiment accepted params")
				}
				p, err := d.Params(5, nil)
				if err != nil || p != nil {
					t.Fatalf("Params = %v, %v; want nil, nil", p, err)
				}
				return
			}
			defaults := d.DefaultParams()
			raw, err := json.Marshal(defaults)
			if err != nil {
				t.Fatal(err)
			}
			got, err := d.Params(0, raw)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, defaults) {
				t.Fatalf("round trip changed params:\ngot  %+v\nwant %+v", got, defaults)
			}
			if _, err := d.Params(0, json.RawMessage(`{"noSuchKnob":1}`)); err == nil {
				t.Fatal("unknown field accepted")
			}
		})
	}
}

// TestTrialsScalingMatchesHistoricalMultipliers: the -trials knob scales
// each experiment exactly as the pre-registry CLI did, and the defaults are
// the values a -trials 5 run used.
func TestTrialsScalingMatchesHistoricalMultipliers(t *testing.T) {
	cases := []struct {
		id    string
		at5   any
		at2   any
		fixed bool // -trials does not shape this experiment
	}{
		{id: "table3", at5: &TrialsParams{5}, at2: &TrialsParams{2}},
		{id: "table4", at5: &RoundsParams{20}, at2: &RoundsParams{8}},
		{id: "table9", at5: &TrialsParams{5}, at2: &TrialsParams{2}},
		{id: "figure1", at5: &TrialsParams{20}, at2: &TrialsParams{8}},
		{id: "figure2", at5: &TrialsParams{40}, at2: &TrialsParams{16}},
		{id: "figure6", at5: &AttemptsParams{20}, at2: &AttemptsParams{8}},
		{id: "figure7", at5: &SamplesParams{150}, at2: &SamplesParams{60}},
		{id: "figure8", at5: &TrialsParams{5}, at2: &TrialsParams{2}},
		{id: "figure3", at5: &ScalingParams{Sizes: []int{4, 8, 16, 32, 64}, HorizonSeconds: 60}, fixed: true},
		{id: "figure5", at5: &FloodParams{Rates: []float64{0, 100, 500, 1000, 2000, 5000}, HorizonSeconds: 20}, fixed: true},
	}
	for _, tc := range cases {
		d, ok := Lookup(tc.id)
		if !ok {
			t.Fatalf("missing %s", tc.id)
		}
		if def := d.DefaultParams(); !reflect.DeepEqual(def, tc.at5) {
			t.Errorf("%s defaults = %+v, want %+v (the -trials 5 values)", tc.id, def, tc.at5)
		}
		got, err := d.Params(2, nil)
		if err != nil {
			t.Fatal(err)
		}
		want := tc.at2
		if tc.fixed {
			want = tc.at5
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s at -trials 2 = %+v, want %+v", tc.id, got, want)
		}
	}
}

// TestCatalogueLinesNameEveryID: the -list rendering leads each line with
// the runnable ID, which the check.sh completeness leg scrapes.
func TestCatalogueLinesNameEveryID(t *testing.T) {
	var b strings.Builder
	if err := WriteCatalogue(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, d := range List() {
		if !strings.Contains(out, fmt.Sprintf("%-9s %-7s", d.ID, d.Kind)) {
			t.Fatalf("catalogue missing line for %s:\n%s", d.ID, out)
		}
	}
}
