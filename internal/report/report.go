// Package report renders aligned text tables for the experiment drivers and
// CLI tools.
package report

import (
	"fmt"
	"io"
	"strings"
	"unicode/utf8"

	"nnbaton/internal/engine"
)

// Table is a titled, column-aligned text table.
type Table struct {
	Title  string
	Header []string
	Rows   [][]string
}

// New creates a table with a title and column headers.
func New(title string, header ...string) *Table {
	return &Table{Title: title, Header: header}
}

// Add appends one row; cells beyond the header width are kept.
func (t *Table) Add(cells ...string) { t.Rows = append(t.Rows, cells) }

// Addf appends a row of pre-formatted values: each argument is rendered with
// %v unless it is a float64, which is rendered with 4 significant digits.
func (t *Table) Addf(cells ...interface{}) {
	row := make([]string, len(cells))
	for i, c := range cells {
		switch v := c.(type) {
		case float64:
			row[i] = fmt.Sprintf("%.4g", v)
		default:
			row[i] = fmt.Sprintf("%v", v)
		}
	}
	t.Add(row...)
}

// widths computes per-column display widths in runes — a byte count would
// misalign any column holding a multi-byte cell (µJ, ×, —), and fmt's %-*s
// padding already counts runes.
func (t *Table) widths() []int {
	w := make([]int, len(t.Header))
	grow := func(row []string) {
		for i, c := range row {
			if i >= len(w) {
				w = append(w, 0)
			}
			w[i] = max(w[i], utf8.RuneCountInString(c))
		}
	}
	grow(t.Header)
	for _, r := range t.Rows {
		grow(r)
	}
	return w
}

// Render writes the table to w.
func (t *Table) Render(w io.Writer) error {
	ws := t.widths()
	line := func(cells []string) string {
		var sb strings.Builder
		for i, width := range ws {
			c := ""
			if i < len(cells) {
				c = cells[i]
			}
			if i > 0 {
				sb.WriteString("  ")
			}
			fmt.Fprintf(&sb, "%-*s", width, c)
		}
		return strings.TrimRight(sb.String(), " ")
	}
	if t.Title != "" {
		if _, err := fmt.Fprintf(w, "== %s ==\n", t.Title); err != nil {
			return err
		}
	}
	if len(t.Header) > 0 {
		if _, err := fmt.Fprintln(w, line(t.Header)); err != nil {
			return err
		}
		// The rule spans every column, including ones contributed by rows
		// ragged past the header, so it never renders truncated.
		rule := make([]string, len(ws))
		for i := range rule {
			rule[i] = strings.Repeat("-", ws[i])
		}
		if _, err := fmt.Fprintln(w, line(rule)); err != nil {
			return err
		}
	}
	for _, r := range t.Rows {
		if _, err := fmt.Fprintln(w, line(r)); err != nil {
			return err
		}
	}
	_, err := fmt.Fprintln(w)
	return err
}

// String renders the table to a string.
func (t *Table) String() string {
	var sb strings.Builder
	_ = t.Render(&sb)
	return sb.String()
}

// DegradationCurve renders a degradation-curve table: energy/runtime/EDP
// versus failed units, one row per fault scenario in series order, with the
// relative cost against the first (healthy) evaluated row. A failed scenario
// keeps its fault columns and reports its error.
func DegradationCurve(title string, pts []engine.ScenarioPoint) *Table {
	t := New(title, "scenario", "failed", "alive", "MACs", "envelope",
		"energy (uJ)", "runtime (ms)", "EDP (pJ*s)", "vs healthy")
	var baseEDP float64
	for _, pt := range pts {
		if pt.Err == nil {
			baseEDP = pt.EDP()
			break
		}
	}
	for _, pt := range pts {
		if pt.Err != nil {
			t.Add(pt.Mask.String(), fmt.Sprint(pt.FailedUnits), fmt.Sprint(pt.Alive),
				fmt.Sprint(pt.TotalMACs), "-", "-", "-", "-", "error: "+pt.Err.Error())
			continue
		}
		env := pt.Envelope.Tuple()
		if !pt.EnvMask.IsZero() {
			env += " (rerouted)"
		}
		rel := "-"
		if baseEDP > 0 {
			rel = fmt.Sprintf("%.2fx", pt.EDP()/baseEDP)
		}
		t.Add(pt.Mask.String(), fmt.Sprint(pt.FailedUnits), fmt.Sprint(pt.Alive),
			fmt.Sprint(pt.TotalMACs), env, UJ(pt.Energy), MS(pt.Seconds),
			fmt.Sprintf("%.4g", pt.EDP()), rel)
	}
	return t
}

// UJ formats picojoules as microjoules.
func UJ(pj float64) string { return fmt.Sprintf("%.2f", pj/1e6) }

// MS formats seconds as milliseconds.
func MS(s float64) string { return fmt.Sprintf("%.3f", s*1e3) }

// Pct formats a ratio as a percentage.
func Pct(r float64) string { return fmt.Sprintf("%.1f%%", r*100) }
