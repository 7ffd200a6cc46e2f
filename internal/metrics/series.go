package metrics

import (
	"fmt"
	"io"
	"math"
	"strings"
)

// Point is one (x, y) observation in a Series.
type Point struct {
	X float64
	Y float64
}

// Series is an ordered list of labelled points — one curve on a figure.
type Series struct {
	Name   string
	XLabel string
	YLabel string
	Points []Point
}

// Add appends a point.
func (s *Series) Add(x, y float64) { s.Points = append(s.Points, Point{x, y}) }

// Len returns the number of points.
func (s *Series) Len() int { return len(s.Points) }

// Ys returns the y values in order.
func (s *Series) Ys() []float64 {
	ys := make([]float64, len(s.Points))
	for i, p := range s.Points {
		ys[i] = p.Y
	}
	return ys
}

// Xs returns the x values in order.
func (s *Series) Xs() []float64 {
	xs := make([]float64, len(s.Points))
	for i, p := range s.Points {
		xs[i] = p.X
	}
	return xs
}

// YAt returns the y value for the first point with the given x, and whether
// one exists.
func (s *Series) YAt(x float64) (float64, bool) {
	for _, p := range s.Points {
		if p.X == x {
			return p.Y, true
		}
	}
	return 0, false
}

// MinMaxY returns the extrema of the y values; ok is false for an empty
// series.
func (s *Series) MinMaxY() (lo, hi float64, ok bool) {
	if len(s.Points) == 0 {
		return 0, 0, false
	}
	lo, hi = s.Points[0].Y, s.Points[0].Y
	for _, p := range s.Points[1:] {
		lo = math.Min(lo, p.Y)
		hi = math.Max(hi, p.Y)
	}
	return lo, hi, true
}

// LinearFit returns the least-squares slope, intercept and Pearson r² of the
// series. It panics with fewer than two points.
func (s *Series) LinearFit() (slope, intercept, r2 float64) {
	n := float64(len(s.Points))
	if n < 2 {
		panic("metrics: LinearFit needs at least two points")
	}
	var sx, sy, sxx, sxy, syy float64
	for _, p := range s.Points {
		sx += p.X
		sy += p.Y
		sxx += p.X * p.X
		sxy += p.X * p.Y
		syy += p.Y * p.Y
	}
	denom := n*sxx - sx*sx
	if denom == 0 {
		panic("metrics: LinearFit on degenerate x values")
	}
	slope = (n*sxy - sx*sy) / denom
	intercept = (sy - slope*sx) / n
	den2 := (n*sxx - sx*sx) * (n*syy - sy*sy)
	if den2 <= 0 {
		r2 = 1
	} else {
		r := (n*sxy - sx*sy) / math.Sqrt(den2)
		r2 = r * r
	}
	return slope, intercept, r2
}

// Figure is a named collection of series sharing axes — the in-memory form
// of one paper figure.
type Figure struct {
	Title  string
	XLabel string
	YLabel string
	LogX   bool
	LogY   bool
	Series []*Series
}

// AddSeries appends a new empty series with the figure's axis labels and
// returns it.
func (f *Figure) AddSeries(name string) *Series {
	s := &Series{Name: name, XLabel: f.XLabel, YLabel: f.YLabel}
	f.Series = append(f.Series, s)
	return s
}

// Get returns the series with the given name, or nil.
func (f *Figure) Get(name string) *Series {
	for _, s := range f.Series {
		if s.Name == name {
			return s
		}
	}
	return nil
}

// WriteCSV emits the figure as tidy CSV: series,x,y.
func (f *Figure) WriteCSV(w io.Writer) error {
	if _, err := fmt.Fprintf(w, "series,%s,%s\n", csvEscape(f.XLabel), csvEscape(f.YLabel)); err != nil {
		return err
	}
	for _, s := range f.Series {
		for _, p := range s.Points {
			if _, err := fmt.Fprintf(w, "%s,%g,%g\n", csvEscape(s.Name), p.X, p.Y); err != nil {
				return err
			}
		}
	}
	return nil
}

func csvEscape(s string) string {
	if strings.ContainsAny(s, ",\"\n") {
		return `"` + strings.ReplaceAll(s, `"`, `""`) + `"`
	}
	return s
}

// RenderASCII draws the figure as a crude scatter plot for terminal
// inspection: width×height character cells, one glyph per series.
func (f *Figure) RenderASCII(w io.Writer, width, height int) error {
	if width < 16 {
		width = 16
	}
	if height < 6 {
		height = 6
	}
	glyphs := []byte{'*', 'o', '+', 'x', '#', '@', '%', '&'}
	xmin, xmax := math.Inf(1), math.Inf(-1)
	ymin, ymax := math.Inf(1), math.Inf(-1)
	for _, s := range f.Series {
		for _, p := range s.Points {
			x, y := f.coord(p)
			xmin, xmax = math.Min(xmin, x), math.Max(xmax, x)
			ymin, ymax = math.Min(ymin, y), math.Max(ymax, y)
		}
	}
	if math.IsInf(xmin, 1) {
		_, err := fmt.Fprintf(w, "%s: (no data)\n", f.Title)
		return err
	}
	if xmax == xmin {
		xmax = xmin + 1
	}
	if ymax == ymin {
		ymax = ymin + 1
	}
	grid := make([][]byte, height)
	for i := range grid {
		grid[i] = []byte(strings.Repeat(" ", width))
	}
	for si, s := range f.Series {
		g := glyphs[si%len(glyphs)]
		for _, p := range s.Points {
			x, y := f.coord(p)
			cx := int((x - xmin) / (xmax - xmin) * float64(width-1))
			cy := int((y - ymin) / (ymax - ymin) * float64(height-1))
			grid[height-1-cy][cx] = g
		}
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%s\n", f.Title)
	fmt.Fprintf(&b, "y: %s%s\n", f.YLabel, logNote(f.LogY))
	for _, row := range grid {
		b.WriteString("  |")
		b.Write(row)
		b.WriteByte('\n')
	}
	b.WriteString("  +" + strings.Repeat("-", width) + "\n")
	fmt.Fprintf(&b, "x: %s%s  [%.4g .. %.4g]\n", f.XLabel, logNote(f.LogX), unlog(xmin, f.LogX), unlog(xmax, f.LogX))
	for si, s := range f.Series {
		fmt.Fprintf(&b, "   %c %s\n", glyphs[si%len(glyphs)], s.Name)
	}
	_, err := io.WriteString(w, b.String())
	return err
}

func (f *Figure) coord(p Point) (x, y float64) {
	x, y = p.X, p.Y
	if f.LogX {
		x = safeLog10(x)
	}
	if f.LogY {
		y = safeLog10(y)
	}
	return x, y
}

func safeLog10(v float64) float64 {
	if v <= 0 {
		return -12
	}
	return math.Log10(v)
}

func unlog(v float64, logged bool) float64 {
	if logged {
		return math.Pow(10, v)
	}
	return v
}

func logNote(on bool) string {
	if on {
		return " (log)"
	}
	return ""
}

// Table is a simple labelled grid — the in-memory form of one paper table.
type Table struct {
	Title   string
	Columns []string
	Rows    [][]string
}

// AddRow appends a row; it must match the column count.
func (t *Table) AddRow(cells ...string) {
	if len(cells) != len(t.Columns) {
		panic(fmt.Sprintf("metrics: row has %d cells, table has %d columns", len(cells), len(t.Columns)))
	}
	t.Rows = append(t.Rows, cells)
}

// Cell returns the cell at (row, col).
func (t *Table) Cell(row, col int) string { return t.Rows[row][col] }

// Lookup returns the cell in the named column of the first row whose first
// column equals key.
func (t *Table) Lookup(key, column string) (string, bool) {
	ci := -1
	for i, c := range t.Columns {
		if c == column {
			ci = i
		}
	}
	if ci < 0 {
		return "", false
	}
	for _, r := range t.Rows {
		if r[0] == key {
			return r[ci], true
		}
	}
	return "", false
}

// WriteCSV emits the table as CSV.
func (t *Table) WriteCSV(w io.Writer) error {
	esc := make([]string, len(t.Columns))
	for i, c := range t.Columns {
		esc[i] = csvEscape(c)
	}
	if _, err := fmt.Fprintln(w, strings.Join(esc, ",")); err != nil {
		return err
	}
	for _, r := range t.Rows {
		cells := make([]string, len(r))
		for i, c := range r {
			cells[i] = csvEscape(c)
		}
		if _, err := fmt.Fprintln(w, strings.Join(cells, ",")); err != nil {
			return err
		}
	}
	return nil
}

// Render draws the table with aligned columns.
func (t *Table) Render(w io.Writer) error {
	widths := make([]int, len(t.Columns))
	for i, c := range t.Columns {
		widths[i] = len(c)
	}
	for _, r := range t.Rows {
		for i, c := range r {
			if len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	var b strings.Builder
	if t.Title != "" {
		fmt.Fprintf(&b, "%s\n", t.Title)
	}
	line := func(cells []string) {
		for i, c := range cells {
			fmt.Fprintf(&b, "| %-*s ", widths[i], c)
		}
		b.WriteString("|\n")
	}
	line(t.Columns)
	total := 1
	for _, wd := range widths {
		total += wd + 3
	}
	b.WriteString(strings.Repeat("-", total) + "\n")
	for _, r := range t.Rows {
		line(r)
	}
	_, err := io.WriteString(w, b.String())
	return err
}
