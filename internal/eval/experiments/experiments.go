// Package experiments is the declarative registry of every table and figure
// the evaluation can regenerate. Each experiment self-registers a Descriptor
// (in tables.go or figures.go) declaring a stable ID ("table3", "figure8"),
// a one-line title, a JSON-serializable parameter struct with defaults, and
// a Produce function returning the rendered eval.Artifact — the experiment
// counterpart of the scheme registry in internal/schemes/registry. The CLI,
// the regeneration scripts, and the completeness tests all enumerate the
// catalogue through List/Lookup instead of hard-coding experiment sets, so
// adding an experiment means writing one descriptor — every -run ID,
// -list line, and check.sh leg picks it up automatically.
package experiments

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strings"
	"sync"

	"repro/internal/eval"
)

// Kind is the artifact family an experiment renders.
type Kind string

// The two artifact families.
const (
	KindTable  Kind = "table"
	KindFigure Kind = "figure"
)

// Descriptor is one registered experiment.
type Descriptor struct {
	// ID is the stable experiment identifier: the kind, the number, and an
	// optional suffix ("table1", "table1b", "figure8"). Every -run flag,
	// metrics record, and catalogue line uses this ID.
	ID string
	// Kind is the artifact family.
	Kind Kind
	// Num is the table/figure number; IDs that share a number ("table1",
	// "table1b") sort by ID within it, which keeps companion artifacts
	// adjacent in the catalogue and the full run.
	Num int
	// Title is the one-line catalogue entry; EXPERIMENTS.md carries the full
	// methodology.
	Title string
	// DefaultParams returns a pointer to a fresh, JSON-serializable
	// parameter struct holding the experiment's defaults (the values a
	// plain `arpbench -run <id>` uses); nil when the experiment takes no
	// parameters.
	DefaultParams func() any
	// ApplyTrials scales the parameter struct from the CLI's -trials knob
	// (each experiment keeps its historical multiplier); nil when -trials
	// does not shape the experiment.
	ApplyTrials func(params any, trials int)
	// Produce runs the experiment under the resolved parameters and returns
	// the rendered artifact.
	Produce func(params any) (eval.Artifact, error)
}

var (
	regMu sync.RWMutex
	byID  = make(map[string]*Descriptor)
)

// Register adds a descriptor to the catalogue. It panics on an empty or
// duplicate ID, a bad kind, or a missing Produce — registration bugs,
// caught by the first test that imports the package.
func Register(d Descriptor) {
	regMu.Lock()
	defer regMu.Unlock()
	if d.ID == "" {
		panic("experiments: descriptor with empty ID")
	}
	if d.Kind != KindTable && d.Kind != KindFigure {
		panic(fmt.Sprintf("experiments: %q has unknown kind %q", d.ID, d.Kind))
	}
	if d.Produce == nil {
		panic(fmt.Sprintf("experiments: %q registers no Produce", d.ID))
	}
	if _, dup := byID[d.ID]; dup {
		panic(fmt.Sprintf("experiments: duplicate experiment %q", d.ID))
	}
	dc := d
	byID[d.ID] = &dc
}

// Lookup returns the descriptor with this ID.
func Lookup(id string) (*Descriptor, bool) {
	regMu.RLock()
	defer regMu.RUnlock()
	d, ok := byID[id]
	return d, ok
}

// List returns every registered experiment in render order: tables before
// figures, by number, suffixed companions right after their parent.
func List() []*Descriptor {
	regMu.RLock()
	defer regMu.RUnlock()
	out := make([]*Descriptor, 0, len(byID))
	for _, d := range byID {
		out = append(out, d)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Kind != out[j].Kind {
			return kindRank(out[i].Kind) < kindRank(out[j].Kind)
		}
		if out[i].Num != out[j].Num {
			return out[i].Num < out[j].Num
		}
		return out[i].ID < out[j].ID
	})
	return out
}

// kindRank orders tables before figures, matching the evaluation document.
func kindRank(k Kind) int {
	if k == KindTable {
		return 0
	}
	return 1
}

// IDs returns every registered experiment ID in render order.
func IDs() []string {
	ds := List()
	out := make([]string, len(ds))
	for i, d := range ds {
		out[i] = d.ID
	}
	return out
}

// UnknownExperimentError builds the error for an ID the registry does not
// know, listing every valid ID so CLI typos are self-repairing.
func UnknownExperimentError(id string) error {
	return fmt.Errorf("unknown experiment %q (valid: %s)", id, strings.Join(IDs(), ", "))
}

// Params materializes the parameter struct one run will use: the defaults,
// scaled by the CLI -trials knob when the experiment honors it (trials > 0),
// with raw JSON — when non-empty — strictly decoded over the result
// (unknown fields are errors). Explicit JSON therefore wins over -trials
// for any field it names.
func (d *Descriptor) Params(trials int, raw json.RawMessage) (any, error) {
	if d.DefaultParams == nil {
		if len(raw) > 0 {
			return nil, fmt.Errorf("experiment %q takes no parameters", d.ID)
		}
		return nil, nil
	}
	p := d.DefaultParams()
	if trials > 0 && d.ApplyTrials != nil {
		d.ApplyTrials(p, trials)
	}
	if len(raw) > 0 {
		dec := json.NewDecoder(bytes.NewReader(raw))
		dec.DisallowUnknownFields()
		if err := dec.Decode(p); err != nil {
			return nil, fmt.Errorf("experiment %q params: %w", d.ID, err)
		}
	}
	return p, nil
}

// CatalogueLine renders one descriptor for the CLI catalogue: ID, kind, and
// the default parameters as compact JSON.
func CatalogueLine(d *Descriptor) string {
	params := "-"
	if d.DefaultParams != nil {
		if raw, err := json.Marshal(d.DefaultParams()); err == nil {
			params = string(raw)
		}
	}
	return fmt.Sprintf("%-9s %-7s %s", d.ID, d.Kind, params)
}

// WriteCatalogue renders the full experiment catalogue, one experiment per
// line with its title indented below, mirroring the scheme catalogue.
func WriteCatalogue(w io.Writer) error {
	for _, d := range List() {
		if _, err := fmt.Fprintf(w, "%s\n  %s\n", CatalogueLine(d), d.Title); err != nil {
			return err
		}
	}
	return nil
}
