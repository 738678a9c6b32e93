// Command rembench is the pinned performance harness for the PHY hot
// path and the experiment drivers built on it. Every benchmark runs a
// fixed workload from fixed seeds, so ns/op moves only when the code
// does (modulo machine noise) and allocs/op is fully deterministic.
//
// Usage:
//
//	rembench                      # full run, prints a table
//	rembench -quick               # CI-scale run (seconds, not minutes)
//	rembench -out BENCH_PR10.json # also write machine-readable results
//	rembench -quick -baseline BENCH_PR10.json
//	                              # compare against a committed baseline:
//	                              # prints a per-benchmark diff table and
//	                              # exits 1 on >25% ns/op, any allocs/op,
//	                              # or any B/op regression beyond slack
//
// The committed BENCH_PR10.json at the repo root is the reference the
// CI bench job gates on; regenerate it with `rembench -quick -out
// BENCH_PR10.json` after an intentional performance change. The fleet
// benchmarks measure a steady-state epoch (engine built and pools
// warmed outside the timer; one op = one StepEpoch), so their
// allocs/op is the zero-alloc contract itself. The fleet_100ue_epoch /
// fleet_100ue_epoch_armed pair additionally prints the telemetry
// instrumentation overhead (armed must stay within 5% ns/op of
// disarmed), and transport_100ue_epoch / fleet_100ue_epoch form the
// equivalent armed/disarmed pair for the per-UE transport plane.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"testing"

	"rem"
	"rem/internal/chanmodel"
	"rem/internal/crossband"
	"rem/internal/dsp"
	"rem/internal/fleet"
	"rem/internal/obs"
	"rem/internal/ofdm"
	"rem/internal/sim"
	"rem/internal/trace"
	"rem/internal/transport"
)

// result is one benchmark's measurement, the unit of BENCH_PR10.json.
type result struct {
	Name        string  `json:"name"`
	Iterations  int     `json:"iterations"`
	NsPerOp     float64 `json:"ns_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op"`
	// Extra carries benchmark-reported custom metrics (b.ReportMetric),
	// e.g. the fleet benchmarks' resident RNG bytes per UE. Informational
	// — the baseline gate does not compare them.
	Extra map[string]float64 `json:"extra,omitempty"`
}

type report struct {
	Quick      bool     `json:"quick"`
	Benchmarks []result `json:"benchmarks"`
}

// spec pins one benchmark: the function plus its benchtime at each
// scale ("1x", "100x", "0.5s"...).
type spec struct {
	name      string
	quickTime string
	fullTime  string
	fn        func(b *testing.B)
	// allocSlack is the tolerated fractional allocs/op increase over the
	// baseline. Single-threaded kernels are exactly deterministic and
	// use 0; the worker-pool meso-benchmarks jitter by a few allocations
	// with goroutine scheduling and get a small allowance.
	allocSlack float64
}

func main() {
	testing.Init() // registers test.benchtime before our flags parse
	var (
		quick    = flag.Bool("quick", false, "CI-scale iteration counts")
		outPath  = flag.String("out", "", "write results JSON to this path")
		baseline = flag.String("baseline", "", "baseline JSON to gate against")
		filter   = flag.String("bench", "", "run only benchmarks containing this substring")
	)
	flag.Parse()

	rep := report{Quick: *quick}
	for _, s := range specs() {
		if *filter != "" && !contains(s.name, *filter) {
			continue
		}
		bt := s.fullTime
		if *quick {
			bt = s.quickTime
		}
		if err := flag.Set("test.benchtime", bt); err != nil {
			fatal(err)
		}
		br := testing.Benchmark(s.fn)
		r := result{
			Name:        s.name,
			Iterations:  br.N,
			NsPerOp:     float64(br.T.Nanoseconds()) / float64(br.N),
			AllocsPerOp: br.AllocsPerOp(),
			BytesPerOp:  br.AllocedBytesPerOp(),
		}
		if len(br.Extra) > 0 {
			r.Extra = br.Extra
		}
		rep.Benchmarks = append(rep.Benchmarks, r)
		fmt.Printf("%-24s %10d it  %14.0f ns/op  %8d allocs/op  %12d B/op\n",
			r.Name, r.Iterations, r.NsPerOp, r.AllocsPerOp, r.BytesPerOp)
	}
	if len(rep.Benchmarks) == 0 {
		fatal(fmt.Errorf("no benchmarks matched -bench %q", *filter))
	}
	printOverhead(rep)

	if *outPath != "" {
		buf, err := json.MarshalIndent(rep, "", "  ")
		if err != nil {
			fatal(err)
		}
		if err := os.WriteFile(*outPath, append(buf, '\n'), 0o644); err != nil {
			fatal(err)
		}
		fmt.Printf("wrote %s\n", *outPath)
	}

	if *baseline != "" {
		if err := gate(rep, *baseline); err != nil {
			fmt.Fprintln(os.Stderr, "REGRESSION:", err)
			os.Exit(1)
		}
		fmt.Println("baseline gate passed")
	}
}

// printOverhead reports the telemetry instrumentation cost when both
// halves of the fleet benchmark pair ran.
func printOverhead(rep report) {
	var disarmed, armed, transported float64
	for _, r := range rep.Benchmarks {
		switch r.Name {
		case "fleet_100ue_epoch":
			disarmed = r.NsPerOp
		case "fleet_100ue_epoch_armed":
			armed = r.NsPerOp
		case "transport_100ue_epoch":
			transported = r.NsPerOp
		}
	}
	if disarmed > 0 && armed > 0 {
		fmt.Printf("telemetry overhead: %+.1f%% ns/op (armed vs disarmed 100-UE fleet)\n",
			100*(armed/disarmed-1))
	}
	if disarmed > 0 && transported > 0 {
		fmt.Printf("transport overhead: %+.1f%% ns/op (link recording armed vs disarmed 100-UE fleet)\n",
			100*(transported/disarmed-1))
	}
	for _, r := range rep.Benchmarks {
		if r.Name != "fleet_100k_epoch" || r.Extra == nil {
			continue
		}
		if bpu, ok := r.Extra["RNG_B/ue"]; ok {
			fmt.Printf("RNG state @100k UEs: %.0f B/UE resident (eager-equivalent %.0f B/UE, %.1fx smaller), %.0f spills\n",
				bpu, r.Extra["RNG_eager_B/ue"], r.Extra["RNG_eager_B/ue"]/bpu, r.Extra["RNG_spills"])
		}
	}
}

// gate compares every benchmark against the baseline, prints a
// per-benchmark diff table, and fails when any dimension regresses:
// ns/op by more than 25% (machine-noise allowance), allocs/op beyond
// the benchmark's slack — zero for the single-threaded kernels, where
// any increase is a real leak into the hot path — and B/op beyond the
// same slack plus a 64-byte absolute grace (worker-pool bookkeeping
// rounds bytes up a little between runs even at identical allocs).
func gate(rep report, path string) error {
	buf, err := os.ReadFile(path)
	if err != nil {
		return fmt.Errorf("read baseline: %w", err)
	}
	var base report
	if err := json.Unmarshal(buf, &base); err != nil {
		return fmt.Errorf("parse baseline: %w", err)
	}
	byName := make(map[string]result, len(base.Benchmarks))
	for _, b := range base.Benchmarks {
		byName[b.Name] = b
	}
	slack := make(map[string]float64)
	for _, s := range specs() {
		slack[s.name] = s.allocSlack
	}

	fmt.Printf("\n%-24s %22s %22s %26s  %s\n", "benchmark",
		"ns/op (base→cur)", "allocs/op (base→cur)", "B/op (base→cur)", "verdict")
	var failures []string
	for _, r := range rep.Benchmarks {
		b, ok := byName[r.Name]
		if !ok {
			fmt.Printf("%-24s %22s %22s %26s  %s\n", r.Name, "-", "-", "-", "new (not gated)")
			continue
		}
		var bad []string
		if b.NsPerOp > 0 && r.NsPerOp > b.NsPerOp*1.25 {
			bad = append(bad, fmt.Sprintf("ns/op +%.0f%%", 100*(r.NsPerOp/b.NsPerOp-1)))
		}
		allowedAllocs := int64(float64(b.AllocsPerOp) * (1 + slack[r.Name]))
		if r.AllocsPerOp > allowedAllocs {
			bad = append(bad, fmt.Sprintf("allocs/op %d > %d", r.AllocsPerOp, allowedAllocs))
		}
		allowedBytes := int64(float64(b.BytesPerOp)*(1+slack[r.Name])) + 64
		if r.BytesPerOp > allowedBytes {
			bad = append(bad, fmt.Sprintf("B/op %d > %d", r.BytesPerOp, allowedBytes))
		}
		verdict := "ok"
		if len(bad) > 0 {
			verdict = "FAIL: " + join(bad, "; ")
			failures = append(failures, r.Name+" ("+join(bad, "; ")+")")
		}
		fmt.Printf("%-24s %10.0f→%-10.0f %10d→%-10d %12d→%-12d  %s\n",
			r.Name, b.NsPerOp, r.NsPerOp, b.AllocsPerOp, r.AllocsPerOp,
			b.BytesPerOp, r.BytesPerOp, verdict)
	}
	if len(failures) > 0 {
		return fmt.Errorf("%d benchmark(s) regressed: %s", len(failures), join(failures, "; "))
	}
	return nil
}

func join(parts []string, sep string) string {
	out := ""
	for i, p := range parts {
		if i > 0 {
			out += sep
		}
		out += p
	}
	return out
}

// specs returns the pinned benchmark set. Seeds and workloads are
// fixed; do not vary them between runs or the baseline gate loses its
// meaning.
func specs() []spec {
	return []spec{
		{name: "tf_response", quickTime: "2000x", fullTime: "1s", fn: benchTFResponse},
		{name: "block_bler_fused", quickTime: "5000x", fullTime: "1s", fn: benchBlockBLER},
		{name: "svd_estimate", quickTime: "20x", fullTime: "1s", fn: benchSVDEstimate},
		{name: "table2_quick", quickTime: "1x", fullTime: "3x", fn: benchTable2, allocSlack: 0.02},
		{name: "rng_stream_new", quickTime: "20000x", fullTime: "1s", fn: benchRNGStreamNew},
		{name: "rng_stream_new_lazy", quickTime: "20000x", fullTime: "1s", fn: benchRNGStreamNewLazy},
		{name: "rng_seed_window", quickTime: "2000x", fullTime: "20000x", fn: benchRNGSeedWindow},
		{name: "world_build_rem_1200s", quickTime: "3x", fullTime: "10x", fn: benchWorldBuildREM},
		// The 100-UE epochs are ~10ms ops: quick scale runs 12 of them
		// so one host-scheduling blip cannot push a clean run past the
		// gate's 25% ns/op allowance.
		{name: "fleet_100ue_epoch", quickTime: "12x", fullTime: "30x", fn: benchFleet100, allocSlack: 0.02},
		{name: "fleet_100ue_epoch_armed", quickTime: "12x", fullTime: "30x", fn: benchFleet100Armed, allocSlack: 0.02},
		{name: "transport_100ue_epoch", quickTime: "12x", fullTime: "30x", fn: benchFleet100Transport, allocSlack: 0.02},
		{name: "fleet_1k_epoch", quickTime: "3x", fullTime: "9x", fn: benchFleet1k, allocSlack: 0.02},
		{name: "fleet_100k_epoch", quickTime: "1x", fullTime: "3x", fn: benchFleet100k, allocSlack: 0.02},
	}
}

// benchTFResponse: per-RE time-frequency response of a fixed EVA draw
// into a preallocated 72×14 LTE grid — the innermost PHY kernel.
func benchTFResponse(b *testing.B) {
	lte := ofdm.LTE()
	ch := chanmodel.Generate(sim.NewRNG(11), chanmodel.GenConfig{
		Profile: chanmodel.EVA, CarrierHz: 2.6e9, SpeedMS: 97.2, Normalize: true,
	})
	dst := dsp.NewGrid(72, 14)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ch.TFResponseInto(dst, lte.DeltaF, lte.SymbolT, 0)
	}
}

// benchBlockBLER: the fused grid → BLER link abstraction. Must stay at
// 0 allocs/op (also pinned by TestBlockBLERZeroAllocs).
func benchBlockBLER(b *testing.B) {
	lte := ofdm.LTE()
	ch := chanmodel.Generate(sim.NewRNG(12), chanmodel.GenConfig{
		Profile: chanmodel.ETU, CarrierHz: 2.6e9, SpeedMS: 97.2, Normalize: true,
	})
	h := ch.TFResponse(72, 14, lte.DeltaF, lte.SymbolT, 0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = ofdm.BlockBLER(h, 0.1, 0.02, ofdm.QAM16, 0.5)
	}
}

// benchSVDEstimate: Algorithm 1 on a 128×64 delay-Doppler grid — the
// cross-band estimation workhorse.
func benchSVDEstimate(b *testing.B) {
	cfg := crossband.Config{M: 128, N: 64, DeltaF: 60e3, SymT: 1.0 / 60e3, MaxPaths: 8}
	est, err := crossband.NewEstimator(cfg)
	if err != nil {
		b.Fatal(err)
	}
	ch := &chanmodel.Channel{Paths: []chanmodel.Path{
		{Gain: 0.9, Delay: 260e-9, Doppler: 595},
		{Gain: 0.3i, Delay: 700e-9, Doppler: -310},
	}}
	h1 := ch.DDResponse(cfg.M, cfg.N, cfg.DeltaF, cfg.SymT, 0).Matrix()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := est.Estimate(h1, 1.835e9, 2.665e9); err != nil {
			b.Fatal(err)
		}
	}
}

// benchTable2: one quick-scale replica of the paper's Table 2 driver —
// the meso-benchmark the PR's ≥1.5× acceptance criterion is stated on.
func benchTable2(b *testing.B) {
	cfg := rem.QuickExperimentConfig()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rep, err := rem.RunExperiment("table2", cfg)
		if err != nil {
			b.Fatal(err)
		}
		if len(rep.Tables) == 0 {
			b.Fatal("empty report")
		}
	}
}

// benchRNGStreamNew: the eager stream-derivation cost — one op hashes
// the name and allocates + runs the 607-word stdlib seeding loop, the
// per-stream price every UE build used to pay up front.
func benchRNGStreamNew(b *testing.B) {
	streams := sim.NewStreams(1)
	b.ReportAllocs()
	b.ResetTimer()
	var g *sim.RNG
	for i := 0; i < b.N; i++ {
		g = streams.Stream("bench.stream")
	}
	_ = g
}

// benchRNGStreamNewLazy: the arena-path twin — one op derives the same
// stream but defers seeding to first draw (which never comes here), the
// cost a fleet build pays per stream that is created but may stay cold.
func benchRNGStreamNewLazy(b *testing.B) {
	streams := sim.NewArena().Streams(1)
	b.ReportAllocs()
	b.ResetTimer()
	var g *sim.RNG
	for i := 0; i < b.N; i++ {
		g = streams.StreamBudget("bench.stream", 64)
	}
	_ = g
}

// benchRNGSeedWindow: the set-up cost a fleet pays per unbounded
// stream — one op derives an arena stream and takes its first draw,
// which runs the full 607-word seeding loop. Every 100 ops the arena
// is replaced with the clock stopped, and one warm-up window carves its
// 512 KiB chunk there too, so resident memory stays bounded and the
// timed ops fit in that chunk.
func benchRNGSeedWindow(b *testing.B) {
	var streams *sim.ArenaStreams
	var sink float64
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if i%100 == 0 {
			b.StopTimer()
			streams = sim.NewArena().Streams(1)
			sink += streams.Stream("bench.warm").Float64()
			b.StartTimer()
		}
		sink += streams.Stream("bench.stream").Float64()
	}
	_ = sink
}

// benchWorldBuildREM: one shared REM world for a 1200 s Beijing-Shanghai
// run — deployment, policy simplification and Theorem 2 enforcement
// over the complete cell graph, the per-run set-up a long served run
// pays before its first epoch.
func benchWorldBuildREM(b *testing.B) {
	cfg := trace.FleetConfig{BuildConfig: trace.BuildConfig{
		Dataset: trace.Describe(trace.BeijingShanghai), Mode: trace.REM,
		SpeedKmh: 300, Duration: 1200, Seed: 1,
	}}
	var shared *trace.Shared
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var err error
		if shared, err = trace.BuildFleetShared(cfg); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(len(shared.Dep.Cells)), "cells")
}

// benchFleetEpochs measures the steady-state epoch: the engine is
// built outside the timer, one warm-up epoch primes the scratch pools,
// and each op is one StepEpoch. When a run completes the engine is
// rebuilt and re-warmed with the clock stopped, so setup and
// first-epoch pool growth never count against the epoch figure —
// allocs/op is the true steady-state number the zero-alloc contract is
// stated on.
func benchFleetEpochs(b *testing.B, spec fleet.Spec, armed bool) {
	ctx := context.Background()
	events := 0
	build := func() *fleet.Engine {
		var opts fleet.Options
		if armed {
			opts.Telemetry = obs.New(obs.Config{})
			opts.OnTimeline = func(evs []obs.Event) { events += len(evs) }
		}
		eng, err := fleet.NewEngine(ctx, spec, opts)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := eng.StepEpoch(ctx); err != nil { // warm the pools
			b.Fatal(err)
		}
		return eng
	}
	eng := build()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		done, err := eng.StepEpoch(ctx)
		if err != nil {
			b.Fatal(err)
		}
		if done {
			b.StopTimer()
			eng = build()
			b.StartTimer()
		}
	}
	b.StopTimer()
	if armed && events == 0 {
		b.Fatal("armed run produced no telemetry")
	}
	// Resident RNG state accounting, the memory half of the substrate's
	// acceptance bar: live arena bytes per UE next to what the same
	// stream count cost as eagerly seeded heap generators.
	if st := eng.RNGStats(); st.Streams > 0 && st.LiveBytes > 0 {
		b.ReportMetric(float64(st.LiveBytes)/float64(spec.UEs), "RNG_B/ue")
		b.ReportMetric(float64(int64(st.Streams)*sim.EagerStreamBytes)/float64(spec.UEs), "RNG_eager_B/ue")
		b.ReportMetric(float64(st.Spills), "RNG_spills")
	}
}

// fleetSpec pins the shared benchmark workload shape at a UE scale.
func fleetSpec(ues int, epochSec, durationSec float64) fleet.Spec {
	return fleet.Spec{
		UEs: ues, Dataset: trace.BeijingShanghai, Mode: trace.REM,
		DurationSec: durationSec, Seed: 1, EpochSec: epochSec,
	}
}

// benchFleet100: one steady-state epoch of a 100-UE fleet (50 ticks
// per UE at the default 0.5s epoch).
func benchFleet100(b *testing.B) {
	benchFleetEpochs(b, fleetSpec(100, 0.5, 2), false)
}

// benchFleet100Armed: the identical epoch with the observability plane
// armed (per-UE scopes, timeline recording, epoch drains) — the
// instrumentation-overhead twin of fleet_100ue_epoch. The acceptance
// bar is armed ns/op within 5% of disarmed.
func benchFleet100Armed(b *testing.B) {
	benchFleetEpochs(b, fleetSpec(100, 0.5, 2), true)
}

// benchFleet100Transport: the identical 100-UE epoch with the per-UE
// transport plane armed (gcc controller, video workload) — the
// armed/disarmed twin of fleet_100ue_epoch for the transport cost.
// Each epoch records the UE's LinkDown intervals and then steps its
// transport flow over the intervals recorded so far (fleet
// stepTransport, on the worker that owns the UE), so the per-epoch
// delta measures both the recording hook and the controller.
func benchFleet100Transport(b *testing.B) {
	spec := fleetSpec(100, 0.5, 2)
	spec.Transport = &transport.Spec{Controller: "gcc", Workload: "video", StartRateMbps: 4}
	benchFleetEpochs(b, spec, false)
}

// benchFleet1k: one steady-state epoch at 1000 UEs — the scale where
// per-epoch barrier work (event sort, load swap, peak scan) starts to
// register next to the stepping itself.
func benchFleet1k(b *testing.B) {
	benchFleetEpochs(b, fleetSpec(1000, 0.5, 2), false)
}

// benchFleet100k: one steady-state epoch at 100k UEs, the road-to-100k
// target. The epoch runs at a 50ms cadence — the heartbeat granularity
// a serving system would actually use at this scale — which makes one
// op half a million UE-ticks; the acceptance bar is epoch time under
// two seconds.
func benchFleet100k(b *testing.B) {
	benchFleetEpochs(b, fleetSpec(100_000, 0.05, 0.4), false)
}

func contains(s, sub string) bool {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return true
		}
	}
	return false
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "rembench:", err)
	os.Exit(1)
}
