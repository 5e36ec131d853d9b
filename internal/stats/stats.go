// Package stats collects and renders experiment results: named series
// (for figures), aligned text tables (for tables), CSV export, and a
// small ASCII plotter used by `shrimpsim -exp e1 -plot` to redraw
// Figure 8 in the terminal.
package stats

import (
	"encoding/csv"
	"fmt"
	"io"
	"math"
	"sort"
	"strings"
)

// Point is one (x, y) sample.
type Point struct {
	X, Y float64
}

// Series is a named curve, e.g. "% of peak bandwidth vs message size".
type Series struct {
	Name   string
	XLabel string
	YLabel string
	Points []Point
}

// Add appends a sample.
func (s *Series) Add(x, y float64) {
	s.Points = append(s.Points, Point{X: x, Y: y})
}

// Y returns the y value at the first point with the given x, and
// whether one exists.
func (s *Series) Y(x float64) (float64, bool) {
	for _, p := range s.Points {
		if p.X == x {
			return p.Y, true
		}
	}
	return 0, false
}

// MaxY returns the largest y value (0 for an empty series).
func (s *Series) MaxY() float64 {
	m := math.Inf(-1)
	for _, p := range s.Points {
		if p.Y > m {
			m = p.Y
		}
	}
	if math.IsInf(m, -1) {
		return 0
	}
	return m
}

// WriteCSV emits "x,y" lines with a header.
func (s *Series) WriteCSV(w io.Writer) error {
	rows := [][]string{{s.XLabel, s.YLabel}}
	for _, p := range s.Points {
		rows = append(rows, []string{fmt.Sprintf("%g", p.X), fmt.Sprintf("%g", p.Y)})
	}
	return csv.NewWriter(w).WriteAll(rows)
}

// PlotASCII renders the series as a crude scatter plot, log-x if the x
// range spans more than a decade. Width and height are in characters.
func (s *Series) PlotASCII(w io.Writer, width, height int) {
	if len(s.Points) == 0 || width < 16 || height < 4 {
		fmt.Fprintln(w, "(no data)")
		return
	}
	pts := make([]Point, len(s.Points))
	copy(pts, s.Points)
	sort.Slice(pts, func(i, j int) bool { return pts[i].X < pts[j].X })

	minX, maxX := pts[0].X, pts[len(pts)-1].X
	logX := minX > 0 && maxX/minX > 10
	xpos := func(x float64) float64 {
		if logX {
			return math.Log(x/minX) / math.Log(maxX/minX)
		}
		if maxX == minX {
			return 0
		}
		return (x - minX) / (maxX - minX)
	}
	minY, maxY := math.Inf(1), math.Inf(-1)
	for _, p := range pts {
		minY = math.Min(minY, p.Y)
		maxY = math.Max(maxY, p.Y)
	}
	if minY > 0 && minY < maxY/4 {
		minY = 0
	}
	if maxY == minY {
		maxY = minY + 1
	}

	grid := make([][]byte, height)
	for i := range grid {
		grid[i] = []byte(strings.Repeat(" ", width))
	}
	for _, p := range pts {
		cx := int(xpos(p.X) * float64(width-1))
		cy := int((p.Y - minY) / (maxY - minY) * float64(height-1))
		row := height - 1 - cy
		if row >= 0 && row < height && cx >= 0 && cx < width {
			grid[row][cx] = '*'
		}
	}
	fmt.Fprintf(w, "%s (y: %.4g..%.4g, x: %.4g..%.4g%s)\n",
		s.Name, minY, maxY, minX, maxX, map[bool]string{true: " log", false: ""}[logX])
	for _, row := range grid {
		fmt.Fprintf(w, "  |%s\n", string(row))
	}
	fmt.Fprintf(w, "  +%s\n", strings.Repeat("-", width))
	fmt.Fprintf(w, "   %-*s%s\n", width-len(s.XLabel), s.XLabel, "")
}

// Table is an aligned text table.
type Table struct {
	Title   string
	Columns []string
	Rows    [][]string
}

// NewTable creates a table with the given title and column headers.
func NewTable(title string, columns ...string) *Table {
	return &Table{Title: title, Columns: columns}
}

// AddRow appends a row; short rows are padded.
func (t *Table) AddRow(cells ...string) {
	row := make([]string, len(t.Columns))
	copy(row, cells)
	t.Rows = append(t.Rows, row)
}

// Render writes the table with aligned columns.
func (t *Table) Render(w io.Writer) {
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
	if t.Title != "" {
		fmt.Fprintf(w, "%s\n", t.Title)
	}
	line := func(cells []string) {
		parts := make([]string, len(cells))
		for i, c := range cells {
			parts[i] = fmt.Sprintf("%-*s", widths[i], c)
		}
		fmt.Fprintf(w, "  %s\n", strings.TrimRight(strings.Join(parts, "  "), " "))
	}
	line(t.Columns)
	sep := make([]string, len(t.Columns))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	line(sep)
	for _, row := range t.Rows {
		line(row)
	}
}

// WriteCSV emits the table as CSV: the column names, then the rows.
func (t *Table) WriteCSV(w io.Writer) error {
	return csv.NewWriter(w).WriteAll(append([][]string{t.Columns}, t.Rows...))
}

// Bytes formats a byte count compactly (512, 4K, 64K).
func Bytes(n int) string {
	switch {
	case n >= 1<<20 && n%(1<<20) == 0:
		return fmt.Sprintf("%dM", n>>20)
	case n >= 1<<10 && n%(1<<10) == 0:
		return fmt.Sprintf("%dK", n>>10)
	default:
		return fmt.Sprintf("%d", n)
	}
}
