package stats

import (
	"bytes"
	"strings"
	"testing"
)

func TestSeriesAddAndLookup(t *testing.T) {
	s := &Series{Name: "bw", XLabel: "size", YLabel: "MB/s"}
	s.Add(64, 1.5)
	s.Add(128, 3.0)
	if v, ok := s.Y(128); !ok || v != 3.0 {
		t.Fatalf("Y(128) = %v,%v", v, ok)
	}
	if _, ok := s.Y(999); ok {
		t.Fatal("Y(999) found a value")
	}
	if s.MaxY() != 3.0 {
		t.Fatalf("MaxY = %v", s.MaxY())
	}
}

func TestSeriesMaxYEmpty(t *testing.T) {
	s := &Series{}
	if s.MaxY() != 0 {
		t.Fatalf("empty MaxY = %v", s.MaxY())
	}
}

func TestSeriesCSV(t *testing.T) {
	s := &Series{XLabel: "size,bytes", YLabel: "MB/s"}
	s.Add(64, 1.5)
	var buf bytes.Buffer
	if err := s.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	got := buf.String()
	if !strings.Contains(got, `"size,bytes",MB/s`) {
		t.Fatalf("header not escaped: %q", got)
	}
	if !strings.Contains(got, "64,1.5") {
		t.Fatalf("row missing: %q", got)
	}
}

func TestPlotASCII(t *testing.T) {
	s := &Series{Name: "fig8", XLabel: "size"}
	for _, x := range []float64{64, 128, 256, 512, 1024, 2048, 4096, 8192} {
		s.Add(x, x/(x+500)*100)
	}
	var buf bytes.Buffer
	s.PlotASCII(&buf, 40, 10)
	out := buf.String()
	if !strings.Contains(out, "*") {
		t.Fatalf("plot has no points:\n%s", out)
	}
	if !strings.Contains(out, "log") {
		t.Fatalf("wide x range should plot log-x:\n%s", out)
	}
	if !strings.Contains(out, "fig8") {
		t.Fatal("plot missing series name")
	}
}

func TestPlotASCIIDegenerate(t *testing.T) {
	var buf bytes.Buffer
	(&Series{}).PlotASCII(&buf, 40, 10)
	if !strings.Contains(buf.String(), "no data") {
		t.Fatal("empty series did not say no data")
	}
	s := &Series{}
	s.Add(5, 7) // single point, zero ranges
	buf.Reset()
	s.PlotASCII(&buf, 40, 10)
	if !strings.Contains(buf.String(), "*") {
		t.Fatal("single point not plotted")
	}
	buf.Reset()
	s.PlotASCII(&buf, 4, 2) // too small
	if !strings.Contains(buf.String(), "no data") {
		t.Fatal("tiny plot should refuse")
	}
}

func TestTableRenderAligned(t *testing.T) {
	tbl := NewTable("Results", "name", "value")
	tbl.AddRow("short", "1")
	tbl.AddRow("a much longer name", "23456")
	tbl.AddRow("partial") // short row padded
	var buf bytes.Buffer
	tbl.Render(&buf)
	out := buf.String()
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if lines[0] != "Results" {
		t.Fatalf("title line = %q", lines[0])
	}
	if !strings.Contains(lines[1], "name") || !strings.Contains(lines[1], "value") {
		t.Fatalf("header = %q", lines[1])
	}
	if !strings.Contains(lines[2], "---") {
		t.Fatalf("separator = %q", lines[2])
	}
	// The value column must start at the same offset in every row.
	col := strings.Index(lines[1], "value")
	if lines[4][col:col+5] != "23456" {
		t.Fatalf("columns not aligned:\n%s", out)
	}
}

func TestTableCSV(t *testing.T) {
	tbl := NewTable("", "a", "b")
	tbl.AddRow(`x"y`, "1,2")
	var buf bytes.Buffer
	if err := tbl.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	want := "a,b\n\"x\"\"y\",\"1,2\"\n"
	if buf.String() != want {
		t.Fatalf("CSV = %q, want %q", buf.String(), want)
	}
}

func TestBytesFormatting(t *testing.T) {
	cases := map[int]string{
		0:       "0",
		512:     "512",
		1024:    "1K",
		4096:    "4K",
		65536:   "64K",
		1 << 20: "1M",
		1500:    "1500",
		3 << 20: "3M",
		2096:    "2096",
	}
	for n, want := range cases {
		if got := Bytes(n); got != want {
			t.Errorf("Bytes(%d) = %q, want %q", n, got, want)
		}
	}
}
