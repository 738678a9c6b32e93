package rem_test

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"rem"
)

var updateGolden = flag.Bool("update", false, "rewrite facade golden files from the current implementation")

// TestObserveTCPStallsGolden pins the facade's single-run stall path
// (AttachTelemetry, RunScenario, ObserveTCPStalls — the sequence remsim
// runs per replica): the run's timeline, with its tcp_stall_open/close
// pairs after the mobility events, and the Prometheus snapshot.
func TestObserveTCPStallsGolden(t *testing.T) {
	built, err := rem.BuildScenario(rem.ScenarioConfig{
		Dataset: rem.BeijingShanghai, SpeedKmh: 300, Mode: rem.ModeLegacy,
		Duration: 120, Seed: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	tel := rem.NewTelemetry(rem.TelemetryConfig{})
	rem.AttachTelemetry(built, tel, 0)
	res, err := rem.RunScenario(built)
	if err != nil {
		t.Fatal(err)
	}
	long := false
	for _, o := range res.Outages {
		long = long || o.Duration > 0.2
	}
	if !long {
		t.Fatal("no outage outlasts the base RTO; the golden would not exercise the backoff")
	}
	rem.ObserveTCPStalls(tel, 0, res)
	for name, got := range map[string][]byte{
		"stalls_armed_timeline.ndjson": rem.MarshalTimeline(tel.Drain()),
		"stalls_armed_metrics.prom":    tel.Snapshot().PrometheusText(),
	} {
		path := filepath.Join("testdata", name)
		if *updateGolden {
			if err := os.WriteFile(path, got, 0o644); err != nil {
				t.Fatal(err)
			}
			continue
		}
		want, err := os.ReadFile(path)
		if err != nil {
			t.Fatalf("missing golden %s (run with -update to create): %v", path, err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("%s drifted from its golden (%d bytes got, %d want)", name, len(got), len(want))
		}
	}
}
