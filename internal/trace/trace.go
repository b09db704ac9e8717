// Package trace provides lightweight named-column time series for
// experiment runs, with CSV export and fixed-width table rendering for
// the figure/table reproduction reports.
package trace

import (
	"fmt"
	"io"
	"strings"
)

// Series is an append-only table of float64 rows with named columns. The
// rows lie end to end in one slice, len(names) values apart, so a row costs
// no allocation of its own.
type Series struct {
	names []string
	index map[string]int
	data  []float64
	n     int // rows: data cannot count them when there are no columns
}

// NewSeries creates a series with the given column names.
func NewSeries(names ...string) *Series {
	idx := make(map[string]int, len(names))
	for i, n := range names {
		if _, dup := idx[n]; dup {
			panic(fmt.Sprintf("trace: duplicate column %q", n))
		}
		idx[n] = i
	}
	return &Series{names: append([]string(nil), names...), index: idx}
}

// Add appends one row; the number of values must match the column count.
func (s *Series) Add(values ...float64) {
	if len(values) != len(s.names) {
		panic(fmt.Sprintf("trace: row has %d values, series has %d columns", len(values), len(s.names)))
	}
	s.data = append(s.data, values...)
	s.n++
}

// Column returns a copy of the named column. It panics on unknown names.
func (s *Series) Column(name string) []float64 {
	i, ok := s.index[name]
	if !ok {
		panic(fmt.Sprintf("trace: unknown column %q", name))
	}
	out := make([]float64, s.n)
	for r := range out {
		out[r] = s.data[r*len(s.names)+i]
	}
	return out
}

// WriteCSV writes the series as CSV with a header row.
func (s *Series) WriteCSV(w io.Writer) error {
	if _, err := fmt.Fprintln(w, strings.Join(s.names, ",")); err != nil {
		return err
	}
	width := len(s.names)
	for r := range s.n {
		row := s.data[r*width : (r+1)*width]
		parts := make([]string, len(row))
		for i, v := range row {
			parts[i] = fmt.Sprintf("%g", v)
		}
		if _, err := fmt.Fprintln(w, strings.Join(parts, ",")); err != nil {
			return err
		}
	}
	return nil
}

// Table renders rows of labeled values as a fixed-width text table —
// the rendering used by cmd/experiments for every reproduced figure.
type Table struct {
	header []string
	rows   [][]string
}

// NewTable creates a table with the given column headers.
func NewTable(header ...string) *Table {
	return &Table{header: append([]string(nil), header...)}
}

// AddRow appends a row of already-formatted cells; missing cells render
// empty, extra cells are rejected.
func (t *Table) AddRow(cells ...string) {
	if len(cells) > len(t.header) {
		panic(fmt.Sprintf("trace: row has %d cells, table has %d columns", len(cells), len(t.header)))
	}
	row := make([]string, len(t.header))
	copy(row, cells)
	t.rows = append(t.rows, row)
}

// String renders the table.
func (t *Table) String() string {
	widths := make([]int, len(t.header))
	for i, h := range t.header {
		widths[i] = len(h)
	}
	for _, row := range t.rows {
		for i, c := range row {
			if len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	var b strings.Builder
	writeRow := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], c)
		}
		b.WriteByte('\n')
	}
	writeRow(t.header)
	sep := make([]string, len(t.header))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	writeRow(sep)
	for _, row := range t.rows {
		writeRow(row)
	}
	return b.String()
}

// WriteCSV writes the table's header and rows as CSV. Cells containing
// commas or quotes are quoted per RFC 4180.
func (t *Table) WriteCSV(w io.Writer) error {
	writeRow := func(cells []string) error {
		parts := make([]string, len(cells))
		for i, c := range cells {
			if strings.ContainsAny(c, ",\"\n") {
				c = "\"" + strings.ReplaceAll(c, "\"", "\"\"") + "\""
			}
			parts[i] = c
		}
		_, err := fmt.Fprintln(w, strings.Join(parts, ","))
		return err
	}
	if err := writeRow(t.header); err != nil {
		return err
	}
	for _, row := range t.rows {
		if err := writeRow(row); err != nil {
			return err
		}
	}
	return nil
}

// F formats a float for table cells with 3 significant decimals.
func F(v float64) string { return fmt.Sprintf("%.3f", v) }

// Pct formats a ratio as a percentage cell.
func Pct(v float64) string { return fmt.Sprintf("%.1f%%", v*100) }
