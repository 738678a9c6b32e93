// Package eval regenerates every table and figure of the paper's
// evaluation (§3, §7): each experiment is a named driver that runs the
// relevant modules and renders the same rows/series the paper reports,
// alongside the paper's published values for shape comparison. The
// drivers are deterministic for a given Config.
package eval

import (
	"encoding/json"
	"fmt"
	"math"
	"sort"
	"strings"

	"rem/internal/fault"
	"rem/internal/obs"
)

// Table is a printable table.
type Table struct {
	Title   string
	Columns []string
	Rows    [][]string
}

// Render formats the table with aligned columns.
func (t *Table) Render() string {
	var b strings.Builder
	if t.Title != "" {
		fmt.Fprintf(&b, "%s\n", t.Title)
	}
	widths := make([]int, len(t.Columns))
	for i, c := range t.Columns {
		widths[i] = len(c)
	}
	for _, row := range t.Rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	line := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], c)
		}
		b.WriteByte('\n')
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
	return b.String()
}

// Series is a named list of (x, y) points (a figure curve).
type Series struct {
	Name   string
	XLabel string
	YLabel string
	X, Y   []float64
}

// MarshalJSON encodes the series with non-finite points spelled out as
// the strings "+Inf", "-Inf" and "NaN", which JSON numbers cannot
// carry (fig13's SNR error is +Inf where an estimator fails). Finite
// points encode exactly as plain float64s do.
func (s Series) MarshalJSON() ([]byte, error) {
	type plain Series
	return json.Marshal(struct {
		plain
		X, Y []jsonFloat
	}{plain(s), convertFloats[jsonFloat](s.X), convertFloats[jsonFloat](s.Y)})
}

// UnmarshalJSON is MarshalJSON's inverse.
func (s *Series) UnmarshalJSON(b []byte) error {
	type plain Series
	var v struct {
		plain
		X, Y []jsonFloat
	}
	if err := json.Unmarshal(b, &v); err != nil {
		return err
	}
	*s = Series(v.plain)
	s.X, s.Y = convertFloats[float64](v.X), convertFloats[float64](v.Y)
	return nil
}

// jsonFloat is a float64 whose JSON form encodes ±Inf and NaN as
// strings.
type jsonFloat float64

func (f jsonFloat) MarshalJSON() ([]byte, error) {
	switch x := float64(f); {
	case math.IsInf(x, 1):
		return []byte(`"+Inf"`), nil
	case math.IsInf(x, -1):
		return []byte(`"-Inf"`), nil
	case math.IsNaN(x):
		return []byte(`"NaN"`), nil
	default:
		return json.Marshal(x)
	}
}

func (f *jsonFloat) UnmarshalJSON(b []byte) error {
	switch string(b) {
	case `"+Inf"`:
		*f = jsonFloat(math.Inf(1))
	case `"-Inf"`:
		*f = jsonFloat(math.Inf(-1))
	case `"NaN"`:
		*f = jsonFloat(math.NaN())
	default:
		var x float64
		if err := json.Unmarshal(b, &x); err != nil {
			return err
		}
		*f = jsonFloat(x)
	}
	return nil
}

// convertFloats converts between float64 and jsonFloat slices, keeping
// nil as nil so that absent series still encode as null.
func convertFloats[To, From ~float64](xs []From) []To {
	if xs == nil {
		return nil
	}
	out := make([]To, len(xs))
	for i, x := range xs {
		out[i] = To(x)
	}
	return out
}

// Summarize renders a compact textual view of the series: endpoints
// and key percentiles.
func (s *Series) Summarize() string {
	if len(s.X) == 0 {
		return fmt.Sprintf("%s: (empty)", s.Name)
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%s  [%s vs %s, %d points]\n", s.Name, s.YLabel, s.XLabel, len(s.X))
	step := len(s.X) / 8
	if step < 1 {
		step = 1
	}
	for i := 0; i < len(s.X); i += step {
		fmt.Fprintf(&b, "  x=%-10.4g y=%.4g\n", s.X[i], s.Y[i])
	}
	last := len(s.X) - 1
	if last%step != 0 {
		fmt.Fprintf(&b, "  x=%-10.4g y=%.4g\n", s.X[last], s.Y[last])
	}
	return b.String()
}

// Report is one experiment's output.
type Report struct {
	ID     string // e.g. "table2", "fig10"
	Title  string
	Paper  string // the paper's published headline numbers, for comparison
	Tables []Table
	Series []Series
	Notes  []string
}

// Render formats the whole report.
func (r *Report) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "=== %s: %s ===\n", r.ID, r.Title)
	if r.Paper != "" {
		fmt.Fprintf(&b, "Paper reports: %s\n", r.Paper)
	}
	for i := range r.Tables {
		b.WriteByte('\n')
		b.WriteString(r.Tables[i].Render())
	}
	for i := range r.Series {
		b.WriteByte('\n')
		if len(r.Series[i].X) >= 8 {
			b.WriteString(r.Series[i].Chart(64, 12))
		} else {
			b.WriteString(r.Series[i].Summarize())
		}
	}
	for _, n := range r.Notes {
		fmt.Fprintf(&b, "\nNote: %s\n", n)
	}
	return b.String()
}

// Config controls experiment scale.
type Config struct {
	// Seeds is the number of independent replica runs averaged per
	// cell (default 3).
	Seeds int
	// DurationSec is the simulated travel time per replica
	// (default 1500).
	DurationSec float64
	// BaseSeed offsets all replica seeds for reproducibility studies.
	BaseSeed int64
	// Quick shrinks workloads for smoke tests and benchmarks.
	Quick bool
	// Workers bounds the parallel execution layer's pool width per
	// fan-out (0 or negative = all cores). Reports are byte-identical
	// at any worker count: work items derive independent RNG streams
	// from their index and results are reduced in index order.
	Workers int
	// Faults arms the deterministic fault plane for every replica of
	// every experiment cell (nil = disarmed; reports then match a
	// build without the fault plane byte for byte).
	Faults *fault.Plan
	// Telemetry arms the observability plane for every replica (nil =
	// disarmed; rendered reports are byte-identical either way).
	// Scope IDs are replica indices within each experiment fan-out
	// (cell index × Seeds + seed index), so metrics aggregate across
	// an experiment's whole fan-out; timelines from multi-table
	// experiments reuse those IDs per fan-out.
	Telemetry *obs.Telemetry

	// telemetryBase offsets the scope IDs runCell assigns (runCells
	// sets it so each cell's replicas get distinct scopes).
	telemetryBase int
}

// DefaultConfig returns full-scale experiment settings.
func DefaultConfig() Config {
	return Config{Seeds: 3, DurationSec: 1500, BaseSeed: 1}
}

// QuickConfig returns a reduced-scale configuration.
func QuickConfig() Config {
	return Config{Seeds: 1, DurationSec: 300, BaseSeed: 1, Quick: true}
}

func (c Config) normalized() Config {
	if c.Seeds <= 0 {
		c.Seeds = 3
	}
	if c.DurationSec <= 0 {
		c.DurationSec = 1500
	}
	return c
}

// Experiment is a named driver.
type Experiment struct {
	ID    string
	Title string
	Run   func(Config) (*Report, error)
}

var registry []Experiment

func register(id, title string, run func(Config) (*Report, error)) {
	registry = append(registry, Experiment{ID: id, Title: title, Run: run})
}

// Register adds an experiment driver from outside the package. Layers
// above eval (the fleet engine, which eval cannot import without a
// cycle) use it to publish their experiments through the same registry
// the CLIs enumerate. IDs must be unique; listing order is sorted, so
// registration order is irrelevant.
func Register(id, title string, run func(Config) (*Report, error)) {
	register(id, title, run)
}

// Experiments lists all registered experiments sorted by ID.
func Experiments() []Experiment {
	out := append([]Experiment(nil), registry...)
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// ByID resolves one experiment.
func ByID(id string) (Experiment, bool) {
	for _, e := range registry {
		if e.ID == id {
			return e, true
		}
	}
	return Experiment{}, false
}

func pct(x float64) string   { return fmt.Sprintf("%.1f%%", 100*x) }
func f1(x float64) string    { return fmt.Sprintf("%.1f", x) }
func f2(x float64) string    { return fmt.Sprintf("%.2f", x) }
func secs(x float64) string  { return fmt.Sprintf("%.1fs", x) }
func times(x float64) string { return fmt.Sprintf("%.1fx", x) }
