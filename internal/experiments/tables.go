// Package experiments implements the paper's evaluation: one function
// per table or figure, each regenerating the corresponding rows or
// series on this machine. `arcstudy <experiment>` (cmd/arcstudy) is the
// one driver over this package; the DESIGN.md per-experiment index maps
// figures to these functions and their experiment names.
package experiments

import (
	"fmt"
	"io"
	"strings"
)

// Table is a simple text table for experiment output.
type Table struct {
	Title   string
	Header  []string
	Rows    [][]string
	Caption string
}

// AddRow appends a formatted row.
func (t *Table) AddRow(cells ...string) { t.Rows = append(t.Rows, cells) }

// Write renders the table. The render is staged through an in-memory
// builder so w sees a single write whose error is reported — a table
// truncated by a full disk or closed pipe must not pass silently.
func (t *Table) Write(w io.Writer) error {
	var sb strings.Builder
	if t.Title != "" {
		fmt.Fprintf(&sb, "== %s ==\n", t.Title)
	}
	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
		widths[i] = len(h)
	}
	for _, r := range t.Rows {
		for i, c := range r {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	line := func(cells []string) {
		parts := make([]string, len(cells))
		for i, c := range cells {
			parts[i] = pad(c, widths[i])
		}
		fmt.Fprintln(&sb, strings.Join(parts, "  "))
	}
	line(t.Header)
	sep := make([]string, len(t.Header))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	line(sep)
	for _, r := range t.Rows {
		line(r)
	}
	if t.Caption != "" {
		fmt.Fprintln(&sb, t.Caption)
	}
	fmt.Fprintln(&sb)
	_, err := io.WriteString(w, sb.String())
	return err
}

func pad(s string, w int) string {
	if len(s) >= w {
		return s
	}
	return s + strings.Repeat(" ", w-len(s))
}

func f1(v float64) string  { return fmt.Sprintf("%.1f", v) }
func f2(v float64) string  { return fmt.Sprintf("%.2f", v) }
func f3(v float64) string  { return fmt.Sprintf("%.3f", v) }
func eg(v float64) string  { return fmt.Sprintf("%.3g", v) }
func iS(v int) string      { return fmt.Sprintf("%d", v) }
func pct(v float64) string { return fmt.Sprintf("%.2f%%", v) }

// WriteCSV renders the table as RFC-4180-ish CSV (header row first),
// for piping experiment output into plotting tools. Like Write, it
// reports the destination's write error.
func (t *Table) WriteCSV(w io.Writer) error {
	var sb strings.Builder
	writeCSVRow(&sb, t.Header)
	for _, r := range t.Rows {
		writeCSVRow(&sb, r)
	}
	_, err := io.WriteString(w, sb.String())
	return err
}

func writeCSVRow(sb *strings.Builder, cells []string) {
	for i, c := range cells {
		if i > 0 {
			sb.WriteString(",")
		}
		if strings.ContainsAny(c, ",\"\n") {
			fmt.Fprintf(sb, "%q", c)
		} else {
			sb.WriteString(c)
		}
	}
	sb.WriteString("\n")
}
