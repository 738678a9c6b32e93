package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"path"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"rem"
	"rem/internal/cluster"
	"rem/internal/fleet"
	"rem/internal/mobility"
	"rem/internal/obs"
	"rem/internal/trace"
	"rem/internal/transport"
)

// clusterShards and clusterMinRuns shape cluster_armed: two shards on
// two members, and at least three runs so set-up has a median.
const (
	clusterShards  = 2
	clusterMinRuns = 3
)

// runCluster is cluster_armed: an in-process coordinator and two
// members on loopback httptest servers run a 2000-UE×30 s REM fleet in
// two shards with telemetry armed, a gcc/video transport flow per UE
// and a fault plan generated from the workload seed, back to back for
// the window. A cluster run always starts at UE 0, so the fleet itself
// is fixed and the seed varies the faults: single-cell outages, loss
// bursts and CSI windows, many and short so their total cost hardly
// depends on the draw. Each run's set-up is the time to its first
// barrier (shard placement and engine builds); each op is one
// barrier-to-barrier epoch. Every merged result and Prometheus
// snapshot must equal one untimed single-process fleet.RunWithOptions
// of the same spec.
func runCluster(ctx context.Context, cfg config, tr *tracer) (*result, error) {
	spec := fleet.Spec{
		UEs: 2000, Dataset: trace.BeijingShanghai, Mode: trace.REM, DurationSec: 30, Seed: worldSeed,
		Transport: &transport.Spec{Controller: "gcc", Workload: "video"},
	}
	if cfg.smoke {
		spec.UEs, spec.DurationSec = 100, 5
	}
	cells, err := deployedCells(ctx, spec)
	if err != nil {
		return nil, err
	}
	spec.Faults, err = rem.GenerateFaultPlan(cfg.seed, rem.FaultGenSpec{
		DurationSec: spec.DurationSec, Cells: cells,
		OutageEverySec: 3, OutageLenSec: [2]float64{1, 2},
		BurstEverySec: 4, BurstLenSec: [2]float64{1, 2},
		PGoodToBad: 0.2, PBadToGood: 0.3, LossBad: 0.9,
		CSIEverySec: 5, CSILenSec: [2]float64{1, 3}, CSIZeroFraction: 0.5,
	})
	if err != nil {
		return nil, err
	}

	tel := obs.New(obs.Config{})
	ref, err := fleet.RunWithOptions(ctx, spec, fleet.Options{Telemetry: tel})
	if err != nil {
		return nil, err
	}
	refJS, err := json.Marshal(ref)
	if err != nil {
		return nil, err
	}
	refProm := tel.Snapshot().PrometheusText()

	ct := &clusterTiming{tr: tr, base: http.DefaultTransport.(*http.Transport).Clone()}
	defer ct.base.CloseIdleConnections()
	client := &http.Client{Transport: ct.base}
	if tr != nil {
		client.Transport = ct
	}
	coord := cluster.NewCoordinator(cluster.Config{MemberTTL: time.Hour, HTTPClient: client})
	for i := 0; i < clusterShards; i++ {
		mux := http.NewServeMux()
		cluster.NewMember().RegisterHandlers(mux)
		var h http.Handler = mux
		if tr != nil {
			h = ct.member(mux)
		}
		srv := httptest.NewServer(h)
		defer srv.Close()
		coord.Register(fmt.Sprintf("m%d", i), srv.URL)
	}

	res := &result{}
	ticks := float64(spec.UEs) * spec.DurationSec / mobility.DefaultConfig().TickSec
	var merge, timelines []float64
	rpcs, expected := 0, 0
	if err := tr.beginWindow(); err != nil {
		return nil, err
	}
	start := time.Now()
	for run := 0; run < clusterMinRuns || time.Since(start).Seconds() < cfg.seconds; run++ {
		runtime.GC() // each run starts from a heap without the last run's garbage
		runSpan := tr.start("cluster.run", 0, run)
		ct.run.Store(runSpan)
		var last time.Time
		var epochMs []float64
		timeline := 0
		t0 := time.Now()
		art, err := coord.RunFleet(ctx, spec, cluster.RunOptions{
			RunID: "run-" + strconv.Itoa(run), Shards: clusterShards, Telemetry: true,
			Hooks: cluster.RunHooks{
				OnBarrier: func(k int, _ []int) {
					now := time.Now()
					if k == 0 {
						res.setupS = append(res.setupS, now.Sub(t0).Seconds())
					} else {
						epochMs = append(epochMs, float64(now.Sub(last))/float64(time.Millisecond))
					}
					last = now
					ct.epoch.Store(int64(k))
					tr.sampleHeap()
				},
				OnTimeline: func(evs []obs.Event) { timeline += len(evs) },
			},
		})
		end := time.Now()
		tr.end(runSpan)
		if err != nil {
			return nil, fmt.Errorf("cluster run %d: %w", run, err)
		}
		res.opMs = append(res.opMs, epochMs...)
		for _, ms := range epochMs {
			res.workSec += ms / 1000
		}
		res.work += ticks
		got, err := json.Marshal(art.Result)
		if err != nil {
			return nil, err
		}
		res.check(bytes.Equal(got, refJS), "cluster_armed: run %d: merged result differs from the single-process run", run)
		res.check(art.Snapshot != nil && bytes.Equal(art.Snapshot.PrometheusText(), refProm),
			"cluster_armed: run %d: merged Prometheus snapshot differs from the single-process run", run)
		if tr != nil {
			merge = append(merge, float64(end.Sub(ct.takeLastFinish()))/float64(time.Millisecond))
			timelines = append(timelines, float64(timeline))
			rpcs += ct.takeCount()
			expected += clusterShards * (art.Epochs + 3) // start, steps, finish, abort
		}
	}
	tr.endWindow()
	res.digest = digest(refJS, refProm)
	if res.rssMB, err = peakRSSMB("self"); err != nil {
		return nil, fmt.Errorf("peak RSS: %w", err)
	}
	if tr != nil {
		wire, skew := ct.stepSplit()
		res.layer = map[string]float64{
			"cluster.wire.ms_p50":         median(wire),
			"cluster.barrier_skew.ms_p50": median(skew),
			"cluster.merge.ms":            median(merge),
			"cluster.rpc.step.resp_kb":    ct.stepKB(),
			"cluster.rpc.count":           float64(rpcs),
			"cluster.rpc.retries":         float64(rpcs - expected),
			"cluster.timeline_events":     median(timelines),
		}
	}
	return res, nil
}

// deployedCells lists the cell IDs of spec's deployment, which depends
// on the world seed and the track length but not on the UEs.
func deployedCells(ctx context.Context, spec fleet.Spec) ([]int, error) {
	probe := spec
	probe.UEs = 1
	eng, err := fleet.NewEngine(ctx, probe, fleet.Options{})
	if err != nil {
		return nil, err
	}
	var ids []int
	for _, c := range eng.CellStats() {
		if c.Cell != 0 {
			ids = append(ids, c.Cell)
		}
	}
	return ids, nil
}

// spanHeader carries the coordinator-side RPC span ID to the member, so
// the member's handler span links to the call that caused it.
const spanHeader = "X-Bench-Span"

// clusterTiming is the traced run's instrumentation: an
// http.RoundTripper in cluster.Config.HTTPClient that times every shard
// RPC until its response body is read, and middleware around each
// member mux that times the handler.
type clusterTiming struct {
	tr    *tracer
	base  *http.Transport
	run   atomic.Int64 // span of the run in progress
	epoch atomic.Int64 // latest barrier, which is the epoch steps are sent for

	mu         sync.Mutex
	count      int
	lastFinish time.Time
	stepBytes  []float64
}

func (c *clusterTiming) RoundTrip(req *http.Request) (*http.Response, error) {
	call := path.Base(req.URL.Path)
	id := c.tr.start("cluster.rpc."+call, c.run.Load(), int(c.epoch.Load()))
	req = req.Clone(req.Context())
	req.Header.Set(spanHeader, strconv.FormatInt(id, 10))
	c.mu.Lock()
	c.count++
	c.mu.Unlock()
	resp, err := c.base.RoundTrip(req)
	if err != nil {
		c.tr.end(id)
		return nil, err
	}
	resp.Body = &timedBody{ReadCloser: resp.Body, done: func(n int64) {
		c.tr.end(id)
		c.mu.Lock()
		defer c.mu.Unlock()
		switch call {
		case "step":
			c.stepBytes = append(c.stepBytes, float64(n)/1024)
		case "finish":
			c.lastFinish = time.Now()
		}
	}}
	return resp, nil
}

func (c *clusterTiming) member(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		parent, _ := strconv.ParseInt(r.Header.Get(spanHeader), 10, 64)
		t := time.Now()
		h.ServeHTTP(w, r)
		c.tr.add("cluster.member."+path.Base(r.URL.Path), parent, int(c.epoch.Load()), t, time.Now())
	})
}

func (c *clusterTiming) takeLastFinish() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.lastFinish
}

func (c *clusterTiming) takeCount() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	n := c.count
	c.count = 0
	return n
}

func (c *clusterTiming) stepKB() float64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return median(c.stepBytes)
}

// stepSplit pairs every member step handler span with the RPC span
// that caused it. wire is RPC time minus handler time; skew is, per
// run and epoch, the slowest shard's handler time minus the fastest's.
func (c *clusterTiming) stepSplit() (wire, skew []float64) {
	spans := c.tr.finished()
	byID := map[int64]span{}
	for _, s := range spans {
		byID[s.ID] = s
	}
	type key struct {
		run   int64
		epoch int
	}
	handler := map[key][]float64{}
	for _, s := range spans {
		p, ok := byID[s.Parent]
		if s.Name != "cluster.member.step" || !ok {
			continue
		}
		h := float64(s.End-s.Start) / 1e6
		wire = append(wire, float64(p.End-p.Start)/1e6-h)
		k := key{p.Parent, p.Index}
		handler[k] = append(handler[k], h)
	}
	for _, hs := range handler {
		if len(hs) == clusterShards {
			lo, hi := hs[0], hs[0]
			for _, h := range hs[1:] {
				lo, hi = min(lo, h), max(hi, h)
			}
			skew = append(skew, hi-lo)
		}
	}
	return wire, skew
}

// timedBody calls done once, with the byte count, when the body has
// been read to its end or closed.
type timedBody struct {
	io.ReadCloser
	n    int64
	once sync.Once
	done func(n int64)
}

func (b *timedBody) Read(p []byte) (int, error) {
	n, err := b.ReadCloser.Read(p)
	b.n += int64(n)
	if err == io.EOF {
		b.once.Do(func() { b.done(b.n) })
	}
	return n, err
}

func (b *timedBody) Close() error {
	b.once.Do(func() { b.done(b.n) })
	return b.ReadCloser.Close()
}
