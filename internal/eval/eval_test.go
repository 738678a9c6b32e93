package eval

import (
	"bytes"
	"encoding/json"
	"math"
	"strings"
	"testing"
)

func TestRegistryComplete(t *testing.T) {
	want := []string{
		"table2", "table3", "table4", "table5",
		"fig2a", "fig2b", "fig3", "fig4", "fig9",
		"fig10", "fig11", "fig12", "fig13", "fig14a", "fig14b", "fig15",
		"ablation-subgrid", "ablation-svdrank", "ablation-ttt", "ablation-crossband",
		"ablation-hybrid", "ablation-accel", "appendix-a", "5g-projection",
	}
	have := map[string]bool{}
	for _, e := range Experiments() {
		have[e.ID] = true
	}
	for _, id := range want {
		if !have[id] {
			t.Errorf("experiment %q not registered", id)
		}
	}
	if _, ok := ByID("table2"); !ok {
		t.Fatal("ByID failed")
	}
	if _, ok := ByID("nope"); ok {
		t.Fatal("unknown ID resolved")
	}
}

func TestTableRender(t *testing.T) {
	tab := Table{
		Title:   "demo",
		Columns: []string{"a", "longcolumn"},
		Rows:    [][]string{{"1", "2"}, {"333", "4"}},
	}
	out := tab.Render()
	if !strings.Contains(out, "demo") || !strings.Contains(out, "longcolumn") {
		t.Fatalf("render missing content:\n%s", out)
	}
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 5 { // title, header, separator, 2 rows
		t.Fatalf("render has %d lines:\n%s", len(lines), out)
	}
}

func TestSeriesSummarize(t *testing.T) {
	s := Series{Name: "x", XLabel: "t", YLabel: "v", X: []float64{1, 2, 3}, Y: []float64{4, 5, 6}}
	out := s.Summarize()
	if !strings.Contains(out, "x") || !strings.Contains(out, "3 points") {
		t.Fatalf("summary: %s", out)
	}
	empty := Series{Name: "e"}
	if !strings.Contains(empty.Summarize(), "empty") {
		t.Fatal("empty series not flagged")
	}
}

// TestCDFSeries pins the empirical-CDF rendering: one point per sample,
// monotone in both axes, reaching 1, whatever the input order.
func TestCDFSeries(t *testing.T) {
	s := CDFSeries("delay", "delay (s)", []float64{0.4, 0.2, 0.6})
	if len(s.X) != 3 || len(s.Y) != 3 || s.YLabel != "CDF" {
		t.Fatalf("CDF has %d/%d points (%q), want 3", len(s.X), len(s.Y), s.YLabel)
	}
	for i := 1; i < len(s.X); i++ {
		if s.X[i] < s.X[i-1] || s.Y[i] < s.Y[i-1] {
			t.Fatal("CDF not monotone")
		}
	}
	if s.Y[len(s.Y)-1] != 1 {
		t.Fatalf("CDF does not reach 1: %v", s.Y)
	}
}

// TestSeriesJSONNonFinite pins the JSON form of non-finite points:
// spelled-out strings that decode back to the same values, while
// finite points keep encoding/json's number form.
func TestSeriesJSONNonFinite(t *testing.T) {
	s := Series{Name: "e", X: []float64{1, 2.5, 3, 4}, Y: []float64{math.Inf(1), math.Inf(-1), math.NaN(), 0.1}}
	b, err := json.Marshal(s)
	if err != nil {
		t.Fatal(err)
	}
	const want = `{"Name":"e","XLabel":"","YLabel":"","X":[1,2.5,3,4],"Y":["+Inf","-Inf","NaN",0.1]}`
	if string(b) != want {
		t.Fatalf("marshal = %s, want %s", b, want)
	}
	var back Series
	if err := json.Unmarshal(b, &back); err != nil {
		t.Fatal(err)
	}
	if !math.IsInf(back.Y[0], 1) || !math.IsInf(back.Y[1], -1) || !math.IsNaN(back.Y[2]) ||
		back.Y[3] != 0.1 || back.X[1] != 2.5 || back.Name != "e" {
		t.Fatalf("round trip = %+v", back)
	}
	if err := json.Unmarshal([]byte(`{"Y":["Inf"]}`), &back); err == nil {
		t.Fatal("unknown non-finite spelling decoded without error")
	}
}

// reportJSONRoundTrips encodes a report as remeval -json does, decodes
// it and encodes it again: both encodings must succeed and agree.
func reportJSONRoundTrips(t *testing.T, rep *Report) {
	t.Helper()
	b, err := json.Marshal(rep)
	if err != nil {
		t.Fatalf("%s: json: %v", rep.ID, err)
	}
	var back Report
	if err := json.Unmarshal(b, &back); err != nil {
		t.Fatalf("%s: decode: %v", rep.ID, err)
	}
	b2, err := json.Marshal(&back)
	if err != nil || !bytes.Equal(b, b2) {
		t.Fatalf("%s: JSON does not round-trip (err %v)", rep.ID, err)
	}
}

func TestConfigNormalization(t *testing.T) {
	c := Config{}.normalized()
	if c.Seeds != 3 || c.DurationSec != 1500 {
		t.Fatalf("defaults not applied: %+v", c)
	}
}

// TestAllExperimentsQuick smoke-runs every registered experiment at
// quick scale; each must return a non-empty, renderable report.
func TestAllExperimentsQuick(t *testing.T) {
	if testing.Short() {
		t.Skip("quick experiment sweep skipped in -short")
	}
	cfg := QuickConfig()
	for _, e := range Experiments() {
		e := e
		t.Run(e.ID, func(t *testing.T) {
			rep, err := e.Run(cfg)
			if err != nil {
				t.Fatalf("%s: %v", e.ID, err)
			}
			if rep.ID != e.ID {
				t.Fatalf("report ID %q != experiment ID %q", rep.ID, e.ID)
			}
			if len(rep.Tables) == 0 && len(rep.Series) == 0 {
				t.Fatalf("%s: empty report", e.ID)
			}
			out := rep.Render()
			if len(out) < 40 {
				t.Fatalf("%s: render too short:\n%s", e.ID, out)
			}
			reportJSONRoundTrips(t, rep)
		})
	}
}
