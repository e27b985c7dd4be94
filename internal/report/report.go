// Package report renders benchmark results as aligned text tables (for
// cmd/aeobench), markdown (for EXPERIMENTS.md), and JSON (for CI bench
// artifacts).
package report

import (
	"encoding/json"
	"fmt"
	"io"
	"strings"
)

// Table is one figure/table's regenerated data.
type Table struct {
	ID      string // experiment id, e.g. "fig2"
	Title   string
	Columns []string
	Rows    [][]string
	Notes   []string
}

// AddRow appends a row of stringified cells.
func (t *Table) AddRow(cells ...string) {
	t.Rows = append(t.Rows, cells)
}

// AddRowf appends a row, formatting each value with fmtOne.
func (t *Table) AddRowf(cells ...any) {
	row := make([]string, len(cells))
	for i, c := range cells {
		row[i] = fmtOne(c)
	}
	t.Rows = append(t.Rows, row)
}

func fmtOne(v any) string {
	switch x := v.(type) {
	case string:
		return x
	case float64:
		switch {
		case x == 0:
			return "0"
		case x >= 1000:
			return fmt.Sprintf("%.0f", x)
		case x >= 10:
			return fmt.Sprintf("%.1f", x)
		default:
			return fmt.Sprintf("%.2f", x)
		}
	default:
		return fmt.Sprint(v)
	}
}

// Note records a free-form annotation printed under the table.
func (t *Table) Note(format string, args ...any) {
	t.Notes = append(t.Notes, fmt.Sprintf(format, args...))
}

// Print writes an aligned text rendering.
func (t *Table) Print(w io.Writer) {
	fmt.Fprintf(w, "== %s: %s ==\n", t.ID, t.Title)
	widths := make([]int, len(t.Columns))
	for i, c := range t.Columns {
		widths[i] = len(c)
	}
	for _, row := range t.Rows {
		for i, c := range row {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	printRow := func(cells []string) {
		parts := make([]string, len(cells))
		for i, c := range cells {
			if i < len(widths) {
				parts[i] = pad(c, widths[i])
			} else {
				parts[i] = c
			}
		}
		fmt.Fprintln(w, "  "+strings.Join(parts, "  "))
	}
	printRow(t.Columns)
	sep := make([]string, len(t.Columns))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	printRow(sep)
	for _, row := range t.Rows {
		printRow(row)
	}
	for _, n := range t.Notes {
		fmt.Fprintf(w, "  note: %s\n", n)
	}
	fmt.Fprintln(w)
}

// Markdown writes a GitHub-flavored markdown rendering.
func (t *Table) Markdown(w io.Writer) {
	fmt.Fprintf(w, "### %s — %s\n\n", t.ID, t.Title)
	fmt.Fprintf(w, "| %s |\n", strings.Join(t.Columns, " | "))
	seps := make([]string, len(t.Columns))
	for i := range seps {
		seps[i] = "---"
	}
	fmt.Fprintf(w, "| %s |\n", strings.Join(seps, " | "))
	for _, row := range t.Rows {
		fmt.Fprintf(w, "| %s |\n", strings.Join(row, " | "))
	}
	for _, n := range t.Notes {
		fmt.Fprintf(w, "\n*%s*\n", n)
	}
	fmt.Fprintln(w)
}

// JSON writes a machine-readable rendering (one object per table): what
// `aeobench -json` prints, so the field names are that flag's contract.
func WriteJSON(w io.Writer, tables []*Table) error {
	type jsonTable struct {
		ID      string     `json:"id"`
		Title   string     `json:"title"`
		Columns []string   `json:"columns"`
		Rows    [][]string `json:"rows"`
		Notes   []string   `json:"notes,omitempty"`
	}
	out := make([]jsonTable, len(tables))
	for i, t := range tables {
		out[i] = jsonTable{ID: t.ID, Title: t.Title, Columns: t.Columns, Rows: t.Rows, Notes: t.Notes}
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(out)
}

func pad(s string, n int) string {
	if len(s) >= n {
		return s
	}
	return s + strings.Repeat(" ", n-len(s))
}
