package eval

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"rem/internal/obs"
)

var updateGolden = flag.Bool("update", false, "rewrite eval golden files from the current implementation")

// checkGolden compares got against testdata/<name>, rewriting the file
// under -update.
func checkGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden %s (run with -update to create): %v", path, err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("%s drifted from its golden (%d bytes got, %d want)", name, len(got), len(want))
	}
}

// TestFig9ArmedGolden pins the Fig. 9 stall path end to end: the
// rendered report (stall means and totals, the Fig. 9b throughput
// trace) and the telemetry the replica runner records when it replays
// each run's outages as TCP stalls (tcp_stall_open/close events and
// the rem_tcp_stall* metrics).
func TestFig9ArmedGolden(t *testing.T) {
	e, ok := ByID("fig9")
	if !ok {
		t.Fatal("fig9 not registered")
	}
	cfg := QuickConfig()
	cfg.Telemetry = obs.New(obs.Config{})
	rep, err := e.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "fig9_quick_report.txt", []byte(rep.Render()))
	checkGolden(t, "fig9_quick_metrics.prom", cfg.Telemetry.Snapshot().PrometheusText())
	checkGolden(t, "fig9_quick_timeline.ndjson", obs.MarshalNDJSON(cfg.Telemetry.Drain()))
}
