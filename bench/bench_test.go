package main

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// TestSmoke runs every workload at smoke scale, traced (which runs it
// untraced first), and checks what BENCHMARK.json promises: every
// metric printed with its unit and finite, no failed operation, spans
// with parent links and non-negative self times, and CPU shares that
// cover the whole profile.
func TestSmoke(t *testing.T) {
	remserve := filepath.Join(t.TempDir(), "remserve")
	if out, err := exec.Command("go", "build", "-o", remserve, "rem/cmd/remserve").CombinedOutput(); err != nil {
		t.Fatalf("building remserve: %v\n%s", err, out)
	}
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			dir := t.TempDir()
			cfg := config{seed: defaultSeed, seconds: 1, smoke: true, remserve: remserve}
			rep, err := measure(context.Background(), w, cfg, dir)
			if err != nil {
				t.Fatal(err)
			}
			if rep.attempted < 1 || rep.failed != 0 {
				t.Errorf("attempted %d, failed %d", rep.attempted, rep.failed)
			}
			checkPrinted(t, rep, false, endToEnd)
			checkPrinted(t, rep, true, perLayer())
			checkSpans(t, filepath.Join(dir, "spans.json"))
			var sum float64
			for _, b := range cpuBuckets {
				sum += rep.perLayer["cpu."+b+".share"]
			}
			if math.Abs(sum-1) > 0.01 {
				t.Errorf("cpu shares sum to %g", sum)
			}
			for _, f := range []string{"cpu.pprof", "layers.txt"} {
				if st, err := os.Stat(filepath.Join(dir, f)); err != nil || st.Size() == 0 {
					t.Errorf("%s missing or empty: %v", f, err)
				}
			}
		})
	}
}

// checkPrinted parses what emit prints and checks every metric in defs
// is in the summary line, with its unit and a finite value, and that
// end-to-end values are positive.
func checkPrinted(t *testing.T, rep *report, traced bool, defs []metricDef) {
	t.Helper()
	var buf bytes.Buffer
	if err := emit(&buf, rep, traced); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	var line summaryLine
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &line); err != nil {
		t.Fatalf("last line is not the summary: %v", err)
	}
	if !line.Correct || len(line.Metrics) != len(defs) {
		t.Errorf("correct=%v with %d metrics, want %d", line.Correct, len(line.Metrics), len(defs))
	}
	for _, d := range defs {
		v, ok := line.Metrics[d.name]
		switch {
		case !ok || v.Unit != d.unit:
			t.Errorf("%s: printed %+v, want unit %s", d.name, v, d.unit)
		case math.IsNaN(v.Value) || math.IsInf(v.Value, 0):
			t.Errorf("%s = %g", d.name, v.Value)
		case !traced && v.Value <= 0:
			t.Errorf("end-to-end %s = %g, want > 0", d.name, v.Value)
		}
	}
}

func checkSpans(t *testing.T, path string) {
	t.Helper()
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var spans []span
	if err := json.Unmarshal(raw, &spans); err != nil {
		t.Fatal(err)
	}
	ids := map[int64]bool{}
	for _, s := range spans {
		ids[s.ID] = true
	}
	linked := 0
	for _, s := range spans {
		if s.Self < 0 || s.End < s.Start {
			t.Errorf("span %d %s: start %d end %d self %d", s.ID, s.Name, s.Start, s.End, s.Self)
		}
		if s.Parent != 0 {
			if !ids[s.Parent] {
				t.Errorf("span %d %s: parent %d missing", s.ID, s.Name, s.Parent)
			}
			linked++
		}
	}
	if len(spans) == 0 || linked == 0 {
		t.Errorf("%d spans, %d with a parent", len(spans), linked)
	}
}

// TestBenchmarkJSON keeps BENCHMARK.json in step with the program: the
// same workloads, and every metric with the same unit and direction.
func TestBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []struct{ Name, Unit, Better string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the program", len(spec.Workloads), len(workloads))
	}
	for i, w := range spec.Workloads {
		if w.Name != workloads[i].name || w.Why != workloads[i].why {
			t.Errorf("workload %d: %q (%q), program has %q (%q)", i, w.Name, w.Why, workloads[i].name, workloads[i].why)
		}
	}
	for _, set := range []struct {
		json []struct{ Name, Unit, Better string }
		prog []metricDef
	}{{spec.EndToEnd, endToEnd}, {spec.PerLayer, perLayer()}} {
		if len(set.json) != len(set.prog) {
			t.Errorf("%d metrics in BENCHMARK.json, %d in the program", len(set.json), len(set.prog))
			continue
		}
		for i, m := range set.json {
			if p := set.prog[i]; m.Name != p.name || m.Unit != p.unit || m.Better != p.better {
				t.Errorf("metric %d: %+v, program has %+v", i, m, p)
			}
		}
	}
}

// TestQuartilesMatchPython pins pyQuartiles to values Python's
// statistics.quantiles(xs, n=4) gives.
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		xs         []float64
		q1, q2, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 5.5, 8.25},
		{[]float64{3, 1, 2}, 1, 2, 3},
		{[]float64{5, 1, 4, 2}, 1.25, 3, 4.75},
	} {
		q1, q2, q3 := pyQuartiles(c.xs)
		if q1 != c.q1 || q2 != c.q2 || q3 != c.q3 {
			t.Errorf("%v: got %g %g %g, want %g %g %g", c.xs, q1, q2, q3, c.q1, c.q2, c.q3)
		}
	}
}
