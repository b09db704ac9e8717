package trace

import (
	"fmt"
	"strings"
	"testing"
)

func TestSeriesBasics(t *testing.T) {
	s := NewSeries("tick", "value")
	if n := len(s.Column("tick")); n != 0 {
		t.Fatalf("a new series has %d rows", n)
	}
	s.Add(1, 10)
	s.Add(2, 20)
	col := s.Column("value")
	if len(col) != 2 {
		t.Fatalf("%d rows", len(col))
	}
	if col[0] != 10 || col[1] != 20 {
		t.Errorf("Column = %v", col)
	}
	if tick := s.Column("tick"); tick[1] != 2 {
		t.Errorf("Column(tick) = %v", tick)
	}
}

func TestSeriesColumnIsCopy(t *testing.T) {
	s := NewSeries("x")
	s.Add(1)
	col := s.Column("x")
	col[0] = 99
	if s.Column("x")[0] == 99 {
		t.Error("Column aliases internal storage")
	}
}

func TestSeriesAddCopiesRow(t *testing.T) {
	s := NewSeries("a", "b")
	row := []float64{1, 2}
	s.Add(row...)
	row[0] = 99
	if s.Column("a")[0] == 99 {
		t.Error("Add aliased the caller's slice")
	}
}

// Rows lie end to end in one slice: every value is read back from its own
// row and column, through Column and WriteCSV alike, after the storage has
// grown many times.
func TestSeriesReadsBackEveryCell(t *testing.T) {
	s := NewSeries("r", "c1", "c2")
	var want strings.Builder
	want.WriteString("r,c1,c2\n")
	for r := range 100 {
		x := float64(r)
		s.Add(x, x+0.5, -x)
		fmt.Fprintf(&want, "%g,%g,%g\n", x, x+0.5, -x)
	}
	for r, v := range s.Column("c1") {
		if v != float64(r)+0.5 {
			t.Fatalf("Column(c1)[%d] = %g", r, v)
		}
	}
	var b strings.Builder
	if err := s.WriteCSV(&b); err != nil {
		t.Fatal(err)
	}
	if b.String() != want.String() {
		t.Errorf("CSV differs from the rows added:\n%s", b.String())
	}
}

func TestSeriesPanics(t *testing.T) {
	for name, fn := range map[string]func(){
		"duplicate column": func() { NewSeries("a", "a") },
		"wrong row width":  func() { NewSeries("a").Add(1, 2) },
		"unknown column":   func() { s := NewSeries("a"); s.Add(1); s.Column("b") },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s did not panic", name)
				}
			}()
			fn()
		}()
	}
}

func TestWriteCSV(t *testing.T) {
	s := NewSeries("tick", "v")
	s.Add(1, 0.5)
	s.Add(2, 1.5)
	var b strings.Builder
	if err := s.WriteCSV(&b); err != nil {
		t.Fatal(err)
	}
	want := "tick,v\n1,0.5\n2,1.5\n"
	if b.String() != want {
		t.Errorf("CSV = %q, want %q", b.String(), want)
	}
}

func TestTableRendering(t *testing.T) {
	tbl := NewTable("policy", "score")
	tbl.AddRow("satori", "0.92")
	tbl.AddRow("random") // short rows pad
	out := tbl.String()
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 4 {
		t.Fatalf("table has %d lines: %q", len(lines), out)
	}
	if !strings.HasPrefix(lines[0], "policy") || !strings.Contains(lines[0], "score") {
		t.Errorf("header wrong: %q", lines[0])
	}
	if !strings.Contains(lines[1], "---") {
		t.Errorf("separator wrong: %q", lines[1])
	}
	if !strings.Contains(lines[2], "satori") || !strings.Contains(lines[2], "0.92") {
		t.Errorf("row wrong: %q", lines[2])
	}
	// Columns align: every line is at least as wide as the widest cell.
	if len(lines[2]) < len(lines[0]) {
		t.Error("rows narrower than header")
	}
}

func TestTableRejectsWideRows(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("over-wide row did not panic")
		}
	}()
	NewTable("a").AddRow("1", "2")
}

func TestFormatters(t *testing.T) {
	if F(0.123456) != "0.123" {
		t.Errorf("F = %s", F(0.123456))
	}
	if Pct(0.925) != "92.5%" {
		t.Errorf("Pct = %s", Pct(0.925))
	}
}

func TestTableWriteCSV(t *testing.T) {
	tbl := NewTable("policy", "note")
	tbl.AddRow("satori", "plain")
	tbl.AddRow("a,b", `say "hi"`)
	var b strings.Builder
	if err := tbl.WriteCSV(&b); err != nil {
		t.Fatal(err)
	}
	want := "policy,note\nsatori,plain\n\"a,b\",\"say \"\"hi\"\"\"\n"
	if b.String() != want {
		t.Errorf("CSV = %q, want %q", b.String(), want)
	}
}
