// Command bench is the repository benchmark. One invocation runs one
// named workload from a seed, checks the program's outputs, and prints
// every metric by name with its unit. The last line of standard output
// is one JSON object:
//
//	{"correct": true, "attempted": 12, "failed": 0, "metrics": {"setup_s": {"value": 1.2, "unit": "s"}, ...}}
//
// With -trace 0 the metrics are the end-to-end set, measured with
// tracing off. With -trace 1 the workload runs twice, untraced and then
// traced, and the metrics are the per-layer set: span self times,
// layer counters, Go runtime statistics, CPU-profile shares and the
// tracing overhead. The traced run's spans.json, cpu.pprof and
// layers.txt are written under -trace-dir/<workload>.
//
// -repeat N runs each workload named in -workload (comma-separated) N
// times, every repetition in a fresh child process with seed+i and the
// workload order alternating, and prints each metric's median,
// quartiles and spread.
//
// bench/run.sh builds this command and remserve from the checkout and
// runs it:
//
//	bash bench/run.sh --workload fleet_4k --seed 1 --seconds 20 --trace 0
//
// See bench/README.md for the workloads and what each metric means.
package main

import (
	"context"
	_ "embed"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"path/filepath"
	"sort"
	"strings"
	"syscall"
)

// defaultSeed is the seed the golden digests in golden.json pin.
const defaultSeed = 1

// config is one workload invocation's settings.
type config struct {
	seed     int64
	seconds  float64 // measured window per run
	smoke    bool    // tiny sizes for the tier-1 smoke test
	remserve string  // remserve binary the serve workload spawns
}

// result is what one run of a workload measured and checked.
type result struct {
	attempted, failed int
	setupS            []float64 // one entry per set-up repetition
	opMs              []float64 // one entry per unit of work (pass, epoch, served run)
	work              float64   // units counted by work_per_s in the measured window
	workSec           float64   // wall seconds that work took
	rssMB             float64   // VmHWM of the process under test
	digest            string    // sha256 of the deterministic outputs
	// layer holds per-layer values the workload computed itself; the
	// rest come from the tracer. Only traced runs fill it.
	layer map[string]float64
	// profile is the CPU profile of a system under test that runs in
	// another process (remserve); nil means this process was profiled.
	profile []byte
}

// check counts one attempted operation or correctness gate; when ok is
// false it counts a failure and says why.
func (r *result) check(ok bool, format string, args ...any) bool {
	r.attempted++
	if !ok {
		r.failed++
		fmt.Fprintf(os.Stderr, "bench: FAIL: "+format+"\n", args...)
	}
	return ok
}

// workload is one named input set with the reason it exists.
type workload struct {
	name, why string
	run       func(ctx context.Context, cfg config, tr *tracer) (*result, error)
}

var workloads = []workload{
	{"paper_quick", "every paper experiment at quick scale on an nproc pool: the PHY kernels dominate", runPaper},
	{"fleet_4k", "4000-UE disarmed REM fleet stepped in process: radio, mobility, RNG and the epoch barrier", runFleet},
	{"serve_runs", "remserve over HTTP, open-loop arrivals then closed-loop clients: serving and per-run set-up", runServe},
	{"cluster_armed", "2-shard loopback cluster with telemetry, transport and faults armed: RPC, wire and merge", runCluster},
}

func lookupWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

func main() {
	var (
		name     = flag.String("workload", "", "workload to run (comma-separated with -repeat)")
		seed     = flag.Int64("seed", defaultSeed, "seed the workload's inputs are generated from")
		seconds  = flag.Float64("seconds", 20, "measured window per run, in seconds")
		traceOn  = flag.Int("trace", 0, "1 runs a second, traced pass and prints the per-layer metrics")
		traceDir = flag.String("trace-dir", ".bench_build/trace", "directory for the traced run's artifacts")
		scale    = flag.String("scale", "full", "full, or smoke for the tier-1 test sizes")
		repeat   = flag.Int("repeat", 0, "run each workload this many times in fresh processes and print spreads")
		remserve = flag.String("remserve", "", "remserve binary for serve_runs (default: next to this binary)")
	)
	flag.Parse()
	if *scale != "full" && *scale != "smoke" {
		usage("-scale must be full or smoke")
	}
	if *traceOn != 0 && *traceOn != 1 {
		usage("-trace must be 0 or 1")
	}
	if *seconds <= 0 {
		usage("-seconds must be positive")
	}
	if *remserve == "" {
		exe, err := os.Executable()
		if err != nil {
			fmt.Fprintf(os.Stderr, "bench: %v\n", err)
			os.Exit(1)
		}
		*remserve = filepath.Join(filepath.Dir(exe), "remserve")
	}
	if *repeat > 0 {
		os.Exit(repeatMain(strings.Split(*name, ","), *repeat, *seed, []string{
			"-seconds", fmt.Sprint(*seconds), "-trace", fmt.Sprint(*traceOn), "-trace-dir", *traceDir,
			"-scale", *scale, "-remserve", *remserve,
		}))
	}
	w, ok := lookupWorkload(*name)
	if !ok {
		usage(fmt.Sprintf("unknown workload %q", *name))
	}
	cfg := config{seed: *seed, seconds: *seconds, smoke: *scale == "smoke", remserve: *remserve}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	dir := ""
	if *traceOn == 1 {
		dir = filepath.Join(*traceDir, w.name)
	}
	rep, err := measure(ctx, w, cfg, dir)
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: %s: %v\n", w.name, err)
		os.Exit(1)
	}
	if dir != "" {
		fmt.Fprintf(os.Stderr, "bench: trace artifacts in %s\n", dir)
	}
	if err := emit(os.Stdout, rep, dir != ""); err != nil {
		fmt.Fprintf(os.Stderr, "bench: %v\n", err)
		os.Exit(1)
	}
	stop()
	if rep.failed > 0 {
		os.Exit(1)
	}
}

// emit prints the end-to-end metrics, or the per-layer ones for a
// traced run, one per line, then the summary JSON line.
func emit(w io.Writer, rep *report, traced bool) error {
	metrics, defs := rep.endToEnd, endToEnd
	if traced {
		metrics, defs = rep.perLayer, perLayer()
	}
	out := map[string]metricValue{}
	for _, m := range defs {
		v := metrics[m.name]
		fmt.Fprintf(w, "%-36s %14.6g %s\n", m.name, v, m.unit)
		out[m.name] = metricValue{Value: v, Unit: m.unit}
	}
	line, err := json.Marshal(summaryLine{Correct: rep.failed == 0, Attempted: rep.attempted, Failed: rep.failed, Metrics: out})
	if err != nil {
		return err
	}
	_, err = fmt.Fprintln(w, string(line))
	return err
}

func usage(msg string) {
	fmt.Fprintf(os.Stderr, "bench: %s\n", msg)
	flag.Usage()
	os.Exit(2)
}

// summaryLine is the JSON object printed as the last line of output.
type summaryLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is one invocation's outcome.
type report struct {
	attempted, failed int
	endToEnd          map[string]float64
	perLayer          map[string]float64 // traced invocations only
}

// measure runs w untraced and, when traceDir is set, a second time
// traced, and checks the untraced run's digest against golden.json.
func measure(ctx context.Context, w workload, cfg config, traceDir string) (*report, error) {
	res, err := w.run(ctx, cfg, nil)
	if err != nil {
		return nil, err
	}
	rep := &report{endToEnd: endToEndValues(res)}
	if err := checkGolden(w.name, cfg, res); err != nil {
		return nil, err
	}
	rep.attempted, rep.failed = res.attempted, res.failed
	if traceDir == "" {
		return rep, nil
	}
	tr := newTracer()
	tres, err := w.run(ctx, cfg, tr)
	if err != nil {
		return nil, err
	}
	rep.attempted += tres.attempted
	rep.failed += tres.failed
	if rep.perLayer, err = tr.layerValues(tres); err != nil {
		return nil, err
	}
	rep.perLayer["trace_overhead_frac"] = median(tres.opMs)/median(res.opMs) - 1
	if err := tr.write(traceDir, tres, rep.perLayer); err != nil {
		return nil, err
	}
	return rep, nil
}

// goldenJSON maps "<workload> seed=<s> seconds=<n> scale=<scale>" to
// the sha256 of that run's deterministic outputs.
//
//go:embed golden.json
var goldenJSON []byte

// checkGolden compares the run's output digest with the one pinned for
// its seed, duration and scale, when golden.json pins one. A mismatch
// is a failed gate.
func checkGolden(name string, cfg config, res *result) error {
	var golden map[string]string
	if err := json.Unmarshal(goldenJSON, &golden); err != nil {
		return fmt.Errorf("golden.json: %w", err)
	}
	key := goldenKey(name, cfg)
	fmt.Fprintf(os.Stderr, "bench: output digest %q: %s\n", key, res.digest)
	if want, ok := golden[key]; ok {
		res.check(want == res.digest, "%s: output digest %s, golden.json pins %s", key, res.digest, want)
	}
	return nil
}

func goldenKey(name string, cfg config) string {
	scale := "full"
	if cfg.smoke {
		scale = "smoke"
	}
	return fmt.Sprintf("%s seed=%d seconds=%g scale=%s", name, cfg.seed, cfg.seconds, scale)
}

// endToEndValues reduces a run to the end-to-end metrics.
func endToEndValues(r *result) map[string]float64 {
	m := map[string]float64{
		"setup_s":   median(r.setupS),
		"op_p50_ms": median(r.opMs),
	}
	if r.workSec > 0 {
		m["work_per_s"] = r.work / r.workSec
	}
	return m
}

// median and quantile use linear interpolation between order
// statistics; an empty sample gives 0.
func median(xs []float64) float64 { return quantile(xs, 0.5) }

func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}
