package report

import (
	"flag"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

// update regenerates golden fixtures: go test ./internal/report -update
var update = flag.Bool("update", false, "rewrite golden fixtures")

func sample() *Table {
	t := &Table{
		Title:   "Fig. X: sample",
		Note:    "normalised to baseline",
		Columns: []string{"app", "ipc", "energy"},
	}
	t.AddRow("sjeng", "1.023", "0.744")
	t.AddRow("mcf", "0.981", "0.802")
	return t
}

func TestRenderAligned(t *testing.T) {
	var b strings.Builder
	if err := sample().Render(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	if !strings.Contains(out, "# Fig. X: sample") {
		t.Error("title missing")
	}
	if !strings.Contains(out, "# normalised to baseline") {
		t.Error("note missing")
	}
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	// title, note, header, rule, 2 rows
	if len(lines) != 6 {
		t.Fatalf("got %d lines:\n%s", len(lines), out)
	}
	// Numeric columns right-aligned: both rows end at the same width.
	if len(lines[4]) != len(lines[5]) {
		t.Errorf("rows not aligned:\n%s", out)
	}
}

func TestRenderCSV(t *testing.T) {
	var b strings.Builder
	if err := sample().RenderCSV(&b); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(b.String()), "\n")
	if lines[0] != "app,ipc,energy" {
		t.Errorf("header = %q", lines[0])
	}
	if lines[1] != "sjeng,1.023,0.744" {
		t.Errorf("row = %q", lines[1])
	}
}

func TestCSVQuoting(t *testing.T) {
	tbl := &Table{Title: "q", Columns: []string{"a", "b"}}
	tbl.AddRow(`x,y`, `he said "hi"`)
	var b strings.Builder
	if err := tbl.RenderCSV(&b); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), `"x,y","he said ""hi"""`) {
		t.Errorf("quoting wrong: %q", b.String())
	}
}

func TestAddRowArityPanics(t *testing.T) {
	tbl := &Table{Title: "t", Columns: []string{"a", "b"}}
	defer func() {
		if recover() == nil {
			t.Error("arity mismatch did not panic")
		}
	}()
	tbl.AddRow("only-one")
}

func TestFormatters(t *testing.T) {
	if F(1.23456) != "1.235" {
		t.Errorf("F = %q", F(1.23456))
	}
}

func TestRenderMarkdown(t *testing.T) {
	var b strings.Builder
	if err := sample().RenderMarkdown(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	if !strings.Contains(out, "### Fig. X: sample") {
		t.Error("markdown heading missing")
	}
	if !strings.Contains(out, "| app | ipc | energy |") {
		t.Errorf("markdown header wrong:\n%s", out)
	}
	if !strings.Contains(out, "|---|---|---|") {
		t.Error("markdown rule missing")
	}
	if !strings.Contains(out, "| sjeng | 1.023 | 0.744 |") {
		t.Error("markdown row missing")
	}
}

func TestRenderMarkdownEscapesPipes(t *testing.T) {
	tbl := &Table{Title: "p", Columns: []string{"a"}}
	tbl.AddRow("x|y")
	var b strings.Builder
	if err := tbl.RenderMarkdown(&b); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), `x\|y`) {
		t.Error("pipe not escaped")
	}
}

// jsonFixtureTables builds the tables behind testdata/tables.json.
func jsonFixtureTables() []*Table {
	t1 := &Table{
		Title:   "Fig. X: example",
		Note:    "normalised to baseline",
		Columns: []string{"app", "ipc", "energy"},
	}
	t1.AddRow("mcf", "1.042", "0.911")
	t1.AddRow("gcc", "1.017", "0.954")
	t2 := &Table{
		Title:   "Run summary",
		Columns: []string{"metric", "value"},
	}
	t2.AddRow("IPC", "1.3370")
	return []*Table{t1, t2}
}

// TestRenderJSONGolden pins the exact bytes of the API's JSON encoding:
// field order, indentation, and omitempty behaviour are all contract.
// Regenerate with -update after a deliberate format change.
func TestRenderJSONGolden(t *testing.T) {
	var b strings.Builder
	if err := RenderJSON(&b, jsonFixtureTables()); err != nil {
		t.Fatal(err)
	}
	golden := filepath.Join("testdata", "tables.json")
	if *update {
		if err := os.WriteFile(golden, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (run with -update to generate)", err)
	}
	if b.String() != string(want) {
		t.Errorf("JSON encoding drifted from golden fixture:\ngot:\n%s\nwant:\n%s", b.String(), want)
	}
}

// TestRenderJSONDeterministic encodes the same tables repeatedly and
// requires byte-identical output.
func TestRenderJSONDeterministic(t *testing.T) {
	var first string
	for i := 0; i < 5; i++ {
		var b strings.Builder
		if err := RenderJSON(&b, jsonFixtureTables()); err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			first = b.String()
		} else if b.String() != first {
			t.Fatalf("encoding %d differs from encoding 0", i)
		}
	}
}

// TestJSONRoundTrip verifies ParseJSON inverts RenderJSON exactly.
func TestJSONRoundTrip(t *testing.T) {
	in := jsonFixtureTables()
	var b strings.Builder
	if err := RenderJSON(&b, in); err != nil {
		t.Fatal(err)
	}
	out, err := ParseJSON(strings.NewReader(b.String()))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(in, out) {
		t.Errorf("round trip mismatch:\nin:  %+v\nout: %+v", in, out)
	}
}

func TestParseJSONRejectsGarbage(t *testing.T) {
	if _, err := ParseJSON(strings.NewReader("{not json")); err == nil {
		t.Error("ParseJSON accepted malformed input")
	}
}
