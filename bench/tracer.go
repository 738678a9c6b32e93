package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"runtime/pprof"
	"sort"
	"sync"
	"text/tabwriter"
	"time"
)

// span is one timed call the benchmark made into a layer. Spans are
// recorded by the benchmark's own code around each call (and, for the
// cluster, by a timing transport and member middleware), never inside
// the program under test.
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent,omitempty"` // the span that caused this one; 0 for a root
	Name   string `json:"name"`
	Index  int    `json:"index"` // the pass, epoch or run the span belongs to
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"` // -1 while open
	Self   int64  `json:"self_ns"`
}

// tracer keeps a traced run's spans in memory, plus the CPU profile and
// Go runtime statistics of its measured window. A nil *tracer is the
// untraced run: every method is then a no-op.
type tracer struct {
	t0 time.Time

	mu    sync.Mutex
	spans []span

	prof        bytes.Buffer
	profiling   bool
	windowed    bool
	ms0, ms1    runtime.MemStats
	heapPeak    uint64
	heapSamples []metrics.Sample
}

func newTracer() *tracer {
	return &tracer{
		t0:          time.Now(),
		heapSamples: []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}},
	}
}

// start opens a span and returns its ID (0 on a nil tracer).
func (t *tracer) start(name string, parent int64, index int) int64 {
	if t == nil {
		return 0
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	id := int64(len(t.spans) + 1)
	t.spans = append(t.spans, span{ID: id, Parent: parent, Name: name, Index: index, Start: now, End: -1})
	return id
}

// end closes a span opened by start.
func (t *tracer) end(id int64) {
	if t == nil || id == 0 {
		return
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	t.spans[id-1].End = now
	t.mu.Unlock()
}

// add records a span whose interval was timed elsewhere.
func (t *tracer) add(name string, parent int64, index int, start, end time.Time) int64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	id := int64(len(t.spans) + 1)
	t.spans = append(t.spans, span{
		ID: id, Parent: parent, Name: name, Index: index,
		Start: start.Sub(t.t0).Nanoseconds(), End: end.Sub(t.t0).Nanoseconds(),
	})
	return id
}

// beginWindow starts the CPU profile and runtime statistics of an
// in-process measured window.
func (t *tracer) beginWindow() error {
	if t == nil {
		return nil
	}
	runtime.ReadMemStats(&t.ms0)
	t.sampleHeap()
	if err := pprof.StartCPUProfile(&t.prof); err != nil {
		return fmt.Errorf("starting CPU profile: %w", err)
	}
	t.profiling = true
	return nil
}

// endWindow closes the window beginWindow opened.
func (t *tracer) endWindow() {
	if t == nil || !t.profiling {
		return
	}
	pprof.StopCPUProfile()
	t.profiling = false
	runtime.ReadMemStats(&t.ms1)
	t.sampleHeap()
	t.windowed = true
}

// sampleHeap folds the current live-heap size into the window's peak.
// Workloads call it between operations, from their driving goroutine.
func (t *tracer) sampleHeap() {
	if t == nil {
		return
	}
	metrics.Read(t.heapSamples)
	if v := t.heapSamples[0].Value.Uint64(); v > t.heapPeak {
		t.heapPeak = v
	}
}

// finished returns a copy of every closed span with its self time: its
// duration minus the part of its interval its children cover.
func (t *tracer) finished() []span {
	t.mu.Lock()
	all := append([]span(nil), t.spans...)
	t.mu.Unlock()
	children := map[int64][]span{}
	for _, s := range all {
		if s.Parent != 0 && s.End >= 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := all[:0]
	for _, s := range all {
		if s.End < 0 {
			continue
		}
		s.Self = s.End - s.Start - covered(s, children[s.ID])
		out = append(out, s)
	}
	return out
}

// covered is the length of the union of the children's intervals,
// clipped to the parent's.
func covered(parent span, kids []span) int64 {
	type iv struct{ a, b int64 }
	ivs := make([]iv, 0, len(kids))
	for _, k := range kids {
		a, b := max(k.Start, parent.Start), min(k.End, parent.End)
		if b > a {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	var total, end int64
	for _, v := range ivs {
		if v.a < end {
			v.a = end
		}
		if v.b > v.a {
			total += v.b - v.a
			end = v.b
		}
	}
	return total
}

// msOf collects durations (or self times) in ms of the named spans.
func msOf(spans []span, name string, self bool) []float64 {
	var out []float64
	for _, s := range spans {
		if s.Name != name {
			continue
		}
		d := s.End - s.Start
		if self {
			d = s.Self
		}
		out = append(out, float64(d)/1e6)
	}
	return out
}

// layerValues computes every per-layer metric of a traced run. Values
// derived from spans and the measured window are filled here; the
// workload's own per-layer values (res.layer) override them; a metric
// the workload does not exercise reads 0.
func (t *tracer) layerValues(res *result) (map[string]float64, error) {
	spans := t.finished()
	dur := func(name string) []float64 { return msOf(spans, name, false) }
	self := func(name string) []float64 { return msOf(spans, name, true) }
	m := map[string]float64{}
	for _, d := range perLayer() {
		m[d.name] = 0
	}
	for _, id := range paperExperiments {
		m["eval."+id+".ms"] = median(dur("eval." + id))
	}
	m["fleet.new_engine.ms"] = median(dur("fleet.new_engine"))
	m["fleet.step_epoch.ms_p50"] = quantile(self("fleet.step_epoch"), 0.5)
	m["fleet.step_epoch.ms_p90"] = quantile(self("fleet.step_epoch"), 0.9)
	m["fleet.finish.ms"] = median(dur("fleet.finish"))
	for _, stage := range []string{"submit", "queue", "exec", "fetch"} {
		m["serve."+stage+".ms_p50"] = median(dur("serve." + stage))
	}
	for _, call := range []string{"start", "step", "finish"} {
		m["cluster.rpc."+call+".ms_p50"] = median(dur("cluster.rpc." + call))
	}
	m["cluster.rpc.step.ms_p90"] = quantile(dur("cluster.rpc.step"), 0.9)
	m["cluster.member.step.ms_p50"] = median(dur("cluster.member.step"))
	m["op.ms_p90"] = quantile(res.opMs, 0.9)
	m["proc.peak_rss_mb"] = res.rssMB
	if t.windowed {
		m["go.gc_cycles"] = float64(t.ms1.NumGC - t.ms0.NumGC)
		m["go.gc_pause_ms"] = float64(t.ms1.PauseTotalNs-t.ms0.PauseTotalNs) / 1e6
		m["go.alloc_mb"] = float64(t.ms1.TotalAlloc-t.ms0.TotalAlloc) / (1 << 20)
		m["go.heap_peak_mb"] = float64(t.heapPeak) / (1 << 20)
	}
	for k, v := range res.layer {
		m[k] = v
	}
	shares, err := cpuShares(t.profileOf(res), res.profile != nil)
	if err != nil {
		return nil, err
	}
	for b, v := range shares {
		m["cpu."+b+".share"] = v
	}
	return m, nil
}

// profileOf returns the run's CPU profile: the out-of-process one the
// workload fetched, or this process's from the measured window.
func (t *tracer) profileOf(res *result) []byte {
	if res.profile != nil {
		return res.profile
	}
	return t.prof.Bytes()
}

// write saves the traced run's artifacts under dir: spans.json (every
// span with its parent link and self time), cpu.pprof, and layers.txt
// (per-span-name totals, then every per-layer metric).
func (t *tracer) write(dir string, res *result, values map[string]float64) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	spans := t.finished()
	js, err := json.MarshalIndent(spans, "", " ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(filepath.Join(dir, "spans.json"), js, 0o644); err != nil {
		return err
	}
	if err := os.WriteFile(filepath.Join(dir, "cpu.pprof"), t.profileOf(res), 0o644); err != nil {
		return err
	}
	var buf bytes.Buffer
	writeSpanTable(&buf, spans)
	os.Stderr.Write(buf.Bytes())
	fmt.Fprintln(&buf)
	for _, d := range perLayer() {
		fmt.Fprintf(&buf, "%-36s %14.6g %s\n", d.name, values[d.name], d.unit)
	}
	return os.WriteFile(filepath.Join(dir, "layers.txt"), buf.Bytes(), 0o644)
}

// writeSpanTable renders the span totals by name, largest self time
// first.
func writeSpanTable(buf *bytes.Buffer, spans []span) {
	type row struct {
		name        string
		n           int
		total, self float64
		durs        []float64
	}
	rows := map[string]*row{}
	for _, s := range spans {
		r := rows[s.Name]
		if r == nil {
			r = &row{name: s.Name}
			rows[s.Name] = r
		}
		r.n++
		d := float64(s.End-s.Start) / 1e6
		r.total += d
		r.self += float64(s.Self) / 1e6
		r.durs = append(r.durs, d)
	}
	sorted := make([]*row, 0, len(rows))
	for _, r := range rows {
		sorted = append(sorted, r)
	}
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].self > sorted[j].self })
	tw := tabwriter.NewWriter(buf, 0, 4, 2, ' ', tabwriter.AlignRight)
	fmt.Fprintln(tw, "span\tcount\ttotal_ms\tself_ms\tp50_ms\tp90_ms\t")
	for _, r := range sorted {
		fmt.Fprintf(tw, "%s\t%d\t%.3f\t%.3f\t%.3f\t%.3f\t\n", r.name, r.n, r.total, r.self,
			quantile(r.durs, 0.5), quantile(r.durs, 0.9))
	}
	tw.Flush()
}
