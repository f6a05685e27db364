// Package report renders experiment results as aligned text tables,
// CSV, Markdown, and JSON — the output formats of cmd/siptbench and the
// siptd HTTP API. Each paper table/figure is regenerated as one Table
// whose rows mirror the paper's series.
package report

import (
	"encoding/json"
	"fmt"
	"io"
	"strings"
)

// Table is a titled grid of string cells with a header row. The JSON
// field order below is part of the siptd API: encoding/json emits
// struct fields in declaration order, so marshalling is deterministic
// and golden-testable byte for byte.
type Table struct {
	Title   string     `json:"title"`
	Note    string     `json:"note,omitempty"`
	Columns []string   `json:"columns"`
	Rows    [][]string `json:"rows"`
}

// AddRow appends a row; it panics if the arity differs from Columns
// (a malformed experiment is a programming error).
func (t *Table) AddRow(cells ...string) {
	if len(cells) != len(t.Columns) {
		panic(fmt.Sprintf("report: row has %d cells, table %q has %d columns",
			len(cells), t.Title, len(t.Columns)))
	}
	t.Rows = append(t.Rows, cells)
}

// F formats a float at 3 decimal places, the precision used throughout
// the experiment output.
func F(v float64) string { return fmt.Sprintf("%.3f", v) }

// Render writes the table as aligned text.
func (t *Table) Render(w io.Writer) error {
	widths := make([]int, len(t.Columns))
	for i, c := range t.Columns {
		widths[i] = len(c)
	}
	for _, row := range t.Rows {
		for i, cell := range row {
			if len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	var b strings.Builder
	b.WriteString("# " + t.Title + "\n")
	if t.Note != "" {
		b.WriteString("# " + t.Note + "\n")
	}
	writeRow := func(cells []string) {
		for i, cell := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			// Left-align the first column (labels), right-align numbers.
			if i == 0 {
				b.WriteString(cell + strings.Repeat(" ", widths[i]-len(cell)))
			} else {
				b.WriteString(strings.Repeat(" ", widths[i]-len(cell)) + cell)
			}
		}
		b.WriteString("\n")
	}
	writeRow(t.Columns)
	total := len(widths) - 1
	for _, w2 := range widths {
		total += w2 + 1
	}
	b.WriteString(strings.Repeat("-", total) + "\n")
	for _, row := range t.Rows {
		writeRow(row)
	}
	_, err := io.WriteString(w, b.String())
	return err
}

// RenderMarkdown writes the table as a GitHub-flavoured Markdown table
// (for dropping results straight into EXPERIMENTS.md-style documents).
func (t *Table) RenderMarkdown(w io.Writer) error {
	var b strings.Builder
	b.WriteString("### " + t.Title + "\n\n")
	if t.Note != "" {
		b.WriteString("_" + t.Note + "_\n\n")
	}
	esc := func(s string) string { return strings.ReplaceAll(s, "|", "\\|") }
	b.WriteString("|")
	for _, c := range t.Columns {
		b.WriteString(" " + esc(c) + " |")
	}
	b.WriteString("\n|")
	for range t.Columns {
		b.WriteString("---|")
	}
	b.WriteString("\n")
	for _, row := range t.Rows {
		b.WriteString("|")
		for _, cell := range row {
			b.WriteString(" " + esc(cell) + " |")
		}
		b.WriteString("\n")
	}
	_, err := io.WriteString(w, b.String())
	return err
}

// Document is the JSON envelope the siptd API returns for a set of
// tables (one experiment, or a single-run summary).
type Document struct {
	Tables []*Table `json:"tables"`
}

// RenderJSON writes the tables as an indented JSON Document. Output is
// deterministic: field order follows the struct declarations and every
// collection is a slice.
func RenderJSON(w io.Writer, tables []*Table) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(Document{Tables: tables})
}

// ParseJSON is the inverse of RenderJSON; API clients (and the
// round-trip tests) use it to decode a Document.
func ParseJSON(r io.Reader) ([]*Table, error) {
	var doc Document
	if err := json.NewDecoder(r).Decode(&doc); err != nil {
		return nil, fmt.Errorf("report: decoding document: %w", err)
	}
	return doc.Tables, nil
}

// RenderCSV writes the table as CSV (RFC-4180-style quoting for cells
// containing commas or quotes).
func (t *Table) RenderCSV(w io.Writer) error {
	var b strings.Builder
	writeRow := func(cells []string) {
		for i, cell := range cells {
			if i > 0 {
				b.WriteByte(',')
			}
			if strings.ContainsAny(cell, ",\"\n") {
				b.WriteString(`"` + strings.ReplaceAll(cell, `"`, `""`) + `"`)
			} else {
				b.WriteString(cell)
			}
		}
		b.WriteByte('\n')
	}
	writeRow(t.Columns)
	for _, row := range t.Rows {
		writeRow(row)
	}
	_, err := io.WriteString(w, b.String())
	return err
}
