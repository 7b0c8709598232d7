// Package eval implements the evaluation harness: one function per table
// and figure in EXPERIMENTS.md, each assembling scenarios from labnet,
// running them on the deterministic simulator, and returning a rendered
// report. cmd/arpbench and the benchmark suite both drive this package.
package eval

import (
	"encoding/json"
	"fmt"
	"io"
	"strings"
)

// Artifact is the unified surface of every rendered experiment result.
// Tables and figures both implement it, so writers (aligned text, CSV,
// JSON) are chosen once by the caller — cmd/arpbench's emit path, the
// experiment registry — instead of per concrete type at every call site.
type Artifact interface {
	// ArtifactID returns the display identifier ("Table 3", "Figure 8").
	ArtifactID() string
	// Render writes the human-readable aligned-text form.
	Render(w io.Writer) error
	// CSV writes the machine-readable comma-separated form (RFC 4180
	// quoting: cells containing commas, quotes, or newlines are quoted).
	CSV(w io.Writer) error
	// JSON writes the artifact as one indented JSON document.
	JSON(w io.Writer) error
}

// Table is a rendered experiment table.
type Table struct {
	ID      string
	Title   string
	Columns []string
	Rows    [][]string
	Notes   []string
}

// AddRow appends one row, formatting each cell with %v.
func (t *Table) AddRow(cells ...any) {
	row := make([]string, len(cells))
	for i, c := range cells {
		row[i] = fmt.Sprint(c)
	}
	t.Rows = append(t.Rows, row)
}

// Render writes an aligned ASCII table. Ragged rows are tolerated: cells
// beyond the column count are emitted unaligned rather than panicking.
func (t *Table) Render(w io.Writer) error {
	widths := make([]int, len(t.Columns))
	maxWidth := 0
	for i, c := range t.Columns {
		widths[i] = runeLen(c)
	}
	for _, row := range t.Rows {
		for i, cell := range row {
			if i < len(widths) && runeLen(cell) > widths[i] {
				widths[i] = runeLen(cell)
			}
		}
	}
	for _, wd := range widths {
		if wd > maxWidth {
			maxWidth = wd
		}
	}
	// One shared pad buffer; slicing a string is free, so per-cell padding
	// costs no allocation (strings.Repeat per cell dominated the renderer's
	// allocations on Table 1).
	pad := strings.Repeat(" ", maxWidth)
	var b strings.Builder
	fmt.Fprintf(&b, "%s: %s\n", t.ID, t.Title)
	writeRow := func(cells []string) {
		for i, cell := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			b.WriteString(cell)
			if i < len(widths) {
				if d := widths[i] - runeLen(cell); d > 0 {
					b.WriteString(pad[:d])
				}
			}
		}
		b.WriteByte('\n')
	}
	writeRow(t.Columns)
	total := 0
	for _, wd := range widths {
		total += wd + 2
	}
	b.WriteString(strings.Repeat("-", total))
	b.WriteByte('\n')
	for _, row := range t.Rows {
		writeRow(row)
	}
	for _, n := range t.Notes {
		fmt.Fprintf(&b, "note: %s\n", n)
	}
	_, err := io.WriteString(w, b.String())
	return err
}

// ArtifactID returns the table's display identifier.
func (t *Table) ArtifactID() string { return t.ID }

// CSV writes the table as RFC-4180 comma-separated values.
func (t *Table) CSV(w io.Writer) error {
	var b strings.Builder
	writeCSVRow(&b, t.Columns)
	for _, row := range t.Rows {
		writeCSVRow(&b, row)
	}
	_, err := io.WriteString(w, b.String())
	return err
}

// JSON writes the table as one indented JSON document.
func (t *Table) JSON(w io.Writer) error {
	doc := struct {
		ID      string     `json:"id"`
		Title   string     `json:"title"`
		Columns []string   `json:"columns"`
		Rows    [][]string `json:"rows"`
		Notes   []string   `json:"notes,omitempty"`
	}{t.ID, t.Title, t.Columns, t.Rows, t.Notes}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(doc)
}

// csvField quotes one cell per RFC 4180: cells containing the separator, a
// quote, or a line break are wrapped in quotes with inner quotes doubled.
func csvField(s string) string {
	if !strings.ContainsAny(s, ",\"\r\n") {
		return s
	}
	return `"` + strings.ReplaceAll(s, `"`, `""`) + `"`
}

// writeCSVRow appends one quoted CSV record.
func writeCSVRow(b *strings.Builder, cells []string) {
	for i, c := range cells {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(csvField(c))
	}
	b.WriteByte('\n')
}

// runeLen counts display runes (the coverage symbols are multi-byte).
func runeLen(s string) int { return len([]rune(s)) }

// Point is one (x, y) sample of a figure series.
type Point struct {
	X float64 `json:"x"`
	Y float64 `json:"y"`
}

// Series is one named line of a figure.
type Series struct {
	Name   string  `json:"name"`
	Points []Point `json:"points"`
}

// Figure is a rendered experiment figure: series of points, printed as
// aligned columns (the "figure" of a terminal harness) and exportable as
// CSV for external plotting.
type Figure struct {
	ID     string
	Title  string
	XLabel string
	YLabel string
	XFmt   string // format verb for X values (default %g)
	YFmt   string // format verb for Y values (default %g)
	Series []Series
	Notes  []string
}

// AddPoint appends a sample to the named series, creating it on first use.
func (f *Figure) AddPoint(series string, x, y float64) {
	for i := range f.Series {
		if f.Series[i].Name == series {
			f.Series[i].Points = append(f.Series[i].Points, Point{X: x, Y: y})
			return
		}
	}
	f.Series = append(f.Series, Series{Name: series, Points: []Point{{X: x, Y: y}}})
}

// fmtOr returns the format or a default.
func fmtOr(f, def string) string {
	if f == "" {
		return def
	}
	return f
}

// Render writes the figure as one aligned column block per series.
func (f *Figure) Render(w io.Writer) error {
	var b strings.Builder
	fmt.Fprintf(&b, "%s: %s\n", f.ID, f.Title)
	fmt.Fprintf(&b, "x = %s, y = %s\n", f.XLabel, f.YLabel)
	xf, yf := fmtOr(f.XFmt, "%g"), fmtOr(f.YFmt, "%g")
	for _, s := range f.Series {
		fmt.Fprintf(&b, "-- series %s\n", s.Name)
		for _, p := range s.Points {
			fmt.Fprintf(&b, "   "+xf+"\t"+yf+"\n", p.X, p.Y)
		}
	}
	for _, n := range f.Notes {
		fmt.Fprintf(&b, "note: %s\n", n)
	}
	_, err := io.WriteString(w, b.String())
	return err
}

// ArtifactID returns the figure's display identifier.
func (f *Figure) ArtifactID() string { return f.ID }

// CSV writes long-format RFC-4180 rows: series,x,y.
func (f *Figure) CSV(w io.Writer) error {
	var b strings.Builder
	fmt.Fprintf(&b, "series,%s,%s\n", csvField(f.XLabel), csvField(f.YLabel))
	for _, s := range f.Series {
		for _, p := range s.Points {
			fmt.Fprintf(&b, "%s,%g,%g\n", csvField(s.Name), p.X, p.Y)
		}
	}
	_, err := io.WriteString(w, b.String())
	return err
}

// JSON writes the figure as one indented JSON document.
func (f *Figure) JSON(w io.Writer) error {
	doc := struct {
		ID     string   `json:"id"`
		Title  string   `json:"title"`
		XLabel string   `json:"xLabel"`
		YLabel string   `json:"yLabel"`
		Series []Series `json:"series"`
		Notes  []string `json:"notes,omitempty"`
	}{f.ID, f.Title, f.XLabel, f.YLabel, f.Series, f.Notes}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(doc)
}
