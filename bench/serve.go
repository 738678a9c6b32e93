package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net"
	"net/http"
	"os/exec"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"rem"
	"rem/internal/fleet"
	"rem/pkg/remclient"
)

// Serve workload shape. Phase A is an open loop: seeded Poisson
// arrivals at serveRate for the first third of the window, each run
// timed from its due time to the moment the client sees it finished.
// Phase B is a closed loop of serveClients callers for the last two
// thirds; its runs give the end-to-end latency and throughput. The open
// loop's latency is a per-layer metric only: with arrivals clustering
// differently from seed to seed, its median moved by 7% and its p90 by
// 11% between runs, against 3% for the closed loop.
//
// A served run is 128 UEs for 5 simulated seconds: two 64-UE step
// batches, so a run uses both cores of a 2-core machine and finishes in
// about 45 ms. A 20-UE×30 s run is one batch on one core, and its
// median time moved by 10-15% from one process to the next, with the
// server's garbage collector sharing the other core. At 8 runs/s the
// server is busy about a third of the time.
const (
	serveRate     = 8.0
	serveClients  = 2
	serveUEs      = 128
	serveSimSec   = 5
	servePoll     = 5 * time.Millisecond // remclient.Wait's 100 ms floor would swamp a 45 ms run
	serveRefRuns  = 5                    // served runs re-executed in process as the correctness gate
	serveLateMax  = 10.0                 // ms: generator lateness p99 above this marks the run invalid
	serveStartMax = 30 * time.Second
	// serveSpawns is how many times remserve is started (set-up); a
	// start takes about 2 ms and varies by a third, so it takes more
	// repeats than the other workloads' set-up for a steady median.
	serveSpawns = 5
)

// runServe is serve_runs: remserve spawned as a child process and
// driven over HTTP through pkg/remclient by one load-generating process
// whose connection pool is no wider than the machine.
func runServe(ctx context.Context, cfg config, tr *tracer) (*result, error) {
	res := &result{}
	var srv *remserveProc
	defer func() {
		if srv != nil {
			srv.stop()
		}
	}()
	for i := 0; i < serveSpawns; i++ {
		if srv != nil {
			srv.stop()
		}
		t := time.Now()
		var err error
		if srv, err = startRemserve(ctx, cfg.remserve, tr != nil); err != nil {
			return nil, err
		}
		res.setupS = append(res.setupS, time.Since(t).Seconds())
	}

	conns := min(serveClients, runtime.NumCPU())
	hc := &http.Client{Transport: &http.Transport{MaxConnsPerHost: conns, MaxIdleConnsPerHost: conns}}
	defer hc.CloseIdleConnections()
	g := &loadGen{hc: hc, rc: &remclient.Client{BaseURL: srv.base, HTTPClient: hc}}
	specs := &specGen{rng: rand.New(rand.NewSource(cfg.seed))}
	phaseA := time.Duration(cfg.seconds / 3 * float64(time.Second))
	phaseB := time.Duration(cfg.seconds * 2 / 3 * float64(time.Second))
	nA := max(serveRefRuns, int(math.Round(serveRate*phaseA.Seconds())))
	arrivals := rand.New(rand.NewSource(rem.ReplicaSeed(cfg.seed, 1)))
	dues := make([]time.Duration, nA)
	for i, at := 0, time.Duration(0); i < nA; i++ {
		at += time.Duration(arrivals.ExpFloat64() / serveRate * float64(time.Second))
		dues[i] = at
	}
	runsA := make([]*servedRun, nA)
	for i := range runsA {
		runsA[i] = &servedRun{spec: specs.next()}
	}

	var prof profileFetch
	mem := memScrape{}
	cpu0, err := cpuMs(srv.pid())
	if err != nil {
		return nil, err
	}
	if tr != nil {
		prof.start(ctx, srv.pprof, cfg.seconds+0.5)
		if err := mem.scrape(ctx, srv.pprof); err != nil {
			return nil, err
		}
	}

	// Phase A: open loop.
	lateMs := make([]float64, nA)
	var wg sync.WaitGroup
	t0 := time.Now()
	for i, d := range dues {
		due := t0.Add(d)
		time.Sleep(time.Until(due))
		lateMs[i] = float64(time.Since(due)) / float64(time.Millisecond)
		wg.Add(1)
		go func(s *servedRun) {
			defer wg.Done()
			g.run(ctx, s, due)
		}(runsA[i])
	}
	wg.Wait()
	if tr != nil {
		if err := mem.scrape(ctx, srv.pprof); err != nil {
			return nil, err
		}
	}

	// Phase B: closed loop.
	var mu sync.Mutex
	var runsB []*servedRun
	tB := time.Now()
	for c := 0; c < serveClients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Since(tB) < phaseB && ctx.Err() == nil {
				s := &servedRun{spec: specs.next()}
				g.run(ctx, s, time.Now())
				mu.Lock()
				runsB = append(runsB, s)
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	res.workSec = time.Since(tB).Seconds()
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	res.rssMB, err = peakRSSMB(strconv.Itoa(srv.pid()))
	if err != nil {
		return nil, fmt.Errorf("remserve peak RSS: %w", err)
	}

	cpu1, err := cpuMs(srv.pid())
	if err != nil {
		return nil, err
	}
	metricsText, err := g.rc.ServerMetricsText(ctx)
	if err != nil {
		return nil, fmt.Errorf("scraping remserve /metrics: %w", err)
	}
	if tr != nil {
		if err := mem.scrape(ctx, srv.pprof); err != nil {
			return nil, err
		}
		if res.profile, err = prof.wait(); err != nil {
			return nil, err
		}
	}
	srv.stop()
	srv = nil

	var openMs []float64
	for i, s := range append(runsA, runsB...) {
		if res.check(s.err == nil && s.state == remclient.StateDone, "serve_runs: run %d: state %q: %v", i, s.state, s.err) {
			ms := float64(s.terminal.Sub(s.due)) / float64(time.Millisecond)
			if i < nA {
				openMs = append(openMs, ms)
			} else {
				res.opMs = append(res.opMs, ms)
				res.work++
			}
		}
		tr.add("serve.run", 0, i, s.due, s.terminal)
		if s.err == nil {
			tr.add("serve.submit", 0, i, s.sent, s.submitted)
			tr.add("serve.queue", 0, i, s.submitted, s.running)
			tr.add("serve.exec", 0, i, s.running, s.fetchStart)
			tr.add("serve.fetch", 0, i, s.fetchStart, s.terminal)
		}
	}
	genLate := quantile(lateMs, 0.99)
	res.check(genLate <= serveLateMax, "serve_runs: load generator ran %.1f ms late at p99 (limit %g ms): run invalid", genLate, serveLateMax)

	// Correctness gate: the first runs re-executed in process must give
	// byte-identical summaries and reports.
	var parts [][]byte
	var overhead []float64
	for i, s := range runsA[:serveRefRuns] {
		ref, took, err := runInProcess(ctx, s.spec, tr, i)
		if err != nil {
			return nil, err
		}
		want, err := json.Marshal(ref.Summary)
		if err != nil {
			return nil, err
		}
		var got bytes.Buffer
		if s.summary != nil {
			if err := json.Compact(&got, s.summary); err != nil {
				return nil, fmt.Errorf("served summary %d: %w", i, err)
			}
		}
		res.check(bytes.Equal(got.Bytes(), want) && s.report == ref.Report,
			"serve_runs: run %d (%s, UEs from %d): served result differs from in-process rem.RunFleet", i, s.spec.Mode, s.spec.UEOffset)
		parts = append(parts, want, []byte(ref.Report))
		// The queue/exec boundary is only seen at poll granularity, so the
		// overhead spans both: 202 until the finished run was polled.
		overhead = append(overhead, float64(s.fetchStart.Sub(s.submitted)-took)/float64(time.Millisecond))
	}
	res.digest = digest(parts...)

	if tr != nil {
		all := append(runsA, runsB...)
		var kb []float64
		for _, s := range all {
			kb = append(kb, s.bodyKB)
		}
		res.layer = map[string]float64{
			"serve.open.ms_p50":           quantile(openMs, 0.5),
			"serve.open.ms_p90":           quantile(openMs, 0.9),
			"serve.result_kb":             median(kb),
			"serve.server_cpu_ms_per_run": (cpu1 - cpu0) / float64(len(all)),
			"serve.overhead.ms_p50":       median(overhead),
			"serve.gen_late.ms_p99":       genLate,
			"remserve.shed":               promValue(metricsText, "remserve_runs_shed_total"),
			"remserve.retried":            promValue(metricsText, "remserve_runs_retried_total"),
		}
		mem.fill(res.layer)
	}
	return res, nil
}

// runInProcess executes a served spec through the fleet engine in this
// process, as rem.RunFleet does, and returns the result and its wall
// time.
func runInProcess(ctx context.Context, s remclient.Spec, tr *tracer, index int) (*fleet.Result, time.Duration, error) {
	ds, err := rem.ParseDataset(s.Dataset)
	if err != nil {
		return nil, 0, err
	}
	md, err := rem.ParseMode(s.Mode)
	if err != nil {
		return nil, 0, err
	}
	spec := fleet.Spec{
		UEs: s.UEs, UEOffset: s.UEOffset, Dataset: ds, Mode: md,
		SpeedKmh: s.SpeedKmh, DurationSec: s.DurationSec, Seed: s.Seed,
	}
	h := &fleetHooks{tr: tr}
	parent := tr.start("serve.reference", 0, index)
	defer tr.end(parent)
	t := time.Now()
	sp := tr.start("fleet.new_engine", parent, index)
	eng, err := fleet.NewEngine(ctx, spec, h.options())
	tr.end(sp)
	if err != nil {
		return nil, 0, err
	}
	out, err := h.step(ctx, eng, parent, &result{})
	return out, time.Since(t), err
}

// specGen draws served specs from the workload seed: serveUEs×serveSimSec
// beijing-shanghai runs at 330 km/h in the fixed world, each a UE range
// the seed picks, in rem/legacy pairs whose order the seed picks too,
// so every phase is balanced between the two modes whatever the seed.
type specGen struct {
	mu    sync.Mutex
	rng   *rand.Rand
	n     int
	first string
}

func (g *specGen) next() remclient.Spec {
	g.mu.Lock()
	defer g.mu.Unlock()
	mode := "rem"
	if g.n%2 == 0 {
		g.first = []string{"rem", "legacy"}[g.rng.Intn(2)]
		mode = g.first
	} else if g.first == "rem" {
		mode = "legacy"
	}
	g.n++
	return remclient.Spec{
		UEs: serveUEs, UEOffset: ueOffset(g.rng.Int63(), serveUEs), Dataset: "beijing-shanghai", Mode: mode,
		SpeedKmh: 330, DurationSec: serveSimSec, Seed: worldSeed,
	}
}

// servedRun is one run's client-side timeline. running is when the
// client first saw the run out of the queue; fetchStart and terminal
// bracket the poll that returned the finished run with its result.
type servedRun struct {
	spec                                                remclient.Spec
	due, sent, submitted, running, fetchStart, terminal time.Time
	state                                               string
	summary                                             json.RawMessage
	report                                              string
	bodyKB                                              float64
	err                                                 error
}

// loadGen submits runs and polls them to completion.
type loadGen struct {
	hc *http.Client
	rc *remclient.Client
}

// run submits s and polls GET /runs/{id} every servePoll until the run
// is terminal.
func (g *loadGen) run(ctx context.Context, s *servedRun, due time.Time) {
	s.due, s.sent = due, time.Now()
	run, err := g.rc.Submit(ctx, s.spec)
	s.submitted = time.Now()
	if err != nil {
		s.err, s.terminal = err, s.submitted
		return
	}
	if run.State != remclient.StatePending {
		s.running = s.submitted
	}
	tick := time.NewTicker(servePoll)
	defer tick.Stop()
	for {
		select {
		case <-ctx.Done():
			s.err, s.terminal = ctx.Err(), time.Now()
			return
		case <-tick.C:
		}
		start := time.Now()
		body, err := g.get(ctx, "/runs/"+run.ID)
		now := time.Now()
		if err != nil {
			s.err, s.terminal = err, now
			return
		}
		var v remclient.Run
		if err := json.Unmarshal(body, &v); err != nil {
			s.err, s.terminal = fmt.Errorf("decoding run view: %w", err), now
			return
		}
		if !remclient.Terminal(v.State) {
			if s.running.IsZero() && v.State != remclient.StatePending {
				s.running = now
			}
			continue
		}
		if s.running.IsZero() {
			s.running = start
		}
		s.fetchStart, s.terminal, s.state = start, now, v.State
		s.bodyKB = float64(len(body)) / 1024
		if v.State != remclient.StateDone {
			s.err = errors.New(v.Error)
		}
		if v.Result != nil {
			s.summary, s.report = v.Result.Summary, v.Result.Report
		}
		return
	}
}

func (g *loadGen) get(ctx context.Context, path string) ([]byte, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, g.rc.BaseURL+path, nil)
	if err != nil {
		return nil, err
	}
	resp, err := g.hc.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s: %s", path, resp.Status)
	}
	return body, nil
}

// remserveProc is a spawned remserve child.
type remserveProc struct {
	cmd    *exec.Cmd
	base   string // service URL
	pprof  string // profiling URL ("" unless started for a traced run)
	exited chan struct{}
	log    *bytes.Buffer
}

func (p *remserveProc) pid() int { return p.cmd.Process.Pid }

// startRemserve spawns remserve on free loopback ports and returns once
// /healthz answers ready; the time that takes is the workload's set-up.
func startRemserve(ctx context.Context, bin string, withPprof bool) (*remserveProc, error) {
	port, err := freePort()
	if err != nil {
		return nil, err
	}
	p := &remserveProc{base: "http://" + port, exited: make(chan struct{}), log: &bytes.Buffer{}}
	args := []string{"-addr", port}
	if withPprof {
		pp, err := freePort()
		if err != nil {
			return nil, err
		}
		p.pprof = "http://" + pp
		args = append(args, "-pprof", pp)
	}
	p.cmd = exec.Command(bin, args...)
	p.cmd.Stdout, p.cmd.Stderr = p.log, p.log
	if err := p.cmd.Start(); err != nil {
		return nil, fmt.Errorf("starting remserve: %w", err)
	}
	go func() {
		p.cmd.Wait()
		close(p.exited)
	}()
	rc := remclient.New(p.base)
	deadline := time.Now().Add(serveStartMax)
	for {
		hctx, cancel := context.WithTimeout(ctx, time.Second)
		h, err := rc.Health(hctx)
		cancel()
		if err == nil && h.Ready && (p.pprof == "" || pprofUp(p.pprof)) {
			return p, nil
		}
		select {
		case <-p.exited:
			return nil, fmt.Errorf("remserve exited during start-up: %s", p.log.String())
		case <-ctx.Done():
			p.stop()
			return nil, ctx.Err()
		case <-time.After(time.Millisecond):
		}
		if time.Now().After(deadline) {
			p.stop()
			return nil, fmt.Errorf("remserve not ready after %s: %v", serveStartMax, err)
		}
	}
}

func pprofUp(base string) bool {
	resp, err := http.Get(base + "/debug/pprof/")
	if err != nil {
		return false
	}
	resp.Body.Close()
	return resp.StatusCode == http.StatusOK
}

// stop shuts remserve down and waits for it to exit.
func (p *remserveProc) stop() {
	p.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-p.exited:
	case <-time.After(10 * time.Second):
		p.cmd.Process.Kill()
		<-p.exited
	}
}

func freePort() (string, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	defer l.Close()
	return l.Addr().String(), nil
}

// profileFetch collects remserve's CPU profile from its pprof
// listener while the phases run.
type profileFetch struct {
	done chan struct{}
	data []byte
	err  error
}

func (f *profileFetch) start(ctx context.Context, base string, seconds float64) {
	f.done = make(chan struct{})
	go func() {
		defer close(f.done)
		url := fmt.Sprintf("%s/debug/pprof/profile?seconds=%d", base, int(math.Ceil(seconds)))
		req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
		if err != nil {
			f.err = err
			return
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			f.err = fmt.Errorf("fetching remserve CPU profile: %w", err)
			return
		}
		defer resp.Body.Close()
		f.data, f.err = io.ReadAll(resp.Body)
	}()
}

func (f *profileFetch) wait() ([]byte, error) {
	<-f.done
	return f.data, f.err
}

// memScrape reads remserve's Go runtime statistics from the
// runtime.MemStats block of its /debug/pprof/heap?debug=1 page.
type memScrape struct {
	n             int
	numGC0, numGC uint64
	alloc0, alloc uint64
	pause         [256]uint64
	heapPeak      uint64
}

func (m *memScrape) scrape(ctx context.Context, base string) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, base+"/debug/pprof/heap?debug=1", nil)
	if err != nil {
		return err
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return fmt.Errorf("scraping remserve heap stats: %w", err)
	}
	defer resp.Body.Close()
	var numGC, alloc, inuse uint64
	var pause [256]uint64
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		k, v, ok := strings.Cut(strings.TrimPrefix(sc.Text(), "# "), " = ")
		if !ok {
			continue
		}
		switch k {
		case "NumGC":
			numGC, _ = strconv.ParseUint(v, 10, 64)
		case "TotalAlloc":
			alloc, _ = strconv.ParseUint(v, 10, 64)
		case "HeapInuse":
			inuse, _ = strconv.ParseUint(v, 10, 64)
		case "PauseNs":
			for i, f := range strings.Fields(strings.Trim(v, "[]")) {
				if i < len(pause) {
					pause[i], _ = strconv.ParseUint(f, 10, 64)
				}
			}
		}
	}
	if err := sc.Err(); err != nil {
		return err
	}
	if m.n == 0 {
		m.numGC0, m.alloc0 = numGC, alloc
	}
	m.numGC, m.alloc, m.pause = numGC, alloc, pause
	m.heapPeak = max(m.heapPeak, inuse)
	m.n++
	return nil
}

// fill sets the go.* metrics from the first and last scrape. GC pauses
// are summed from the 256-entry pause ring, so a window of more than
// 256 cycles counts only the last 256.
func (m *memScrape) fill(layer map[string]float64) {
	cycles := m.numGC - m.numGC0
	var pauseNs uint64
	for k := max(m.numGC0+1, m.numGC-min(m.numGC, 255)); k <= m.numGC; k++ {
		pauseNs += m.pause[(k+255)%256]
	}
	layer["go.gc_cycles"] = float64(cycles)
	layer["go.gc_pause_ms"] = float64(pauseNs) / 1e6
	layer["go.alloc_mb"] = float64(m.alloc-m.alloc0) / (1 << 20)
	layer["go.heap_peak_mb"] = float64(m.heapPeak) / (1 << 20)
}

// promValue reads one unlabelled sample from Prometheus text.
func promValue(text []byte, name string) float64 {
	for _, line := range strings.Split(string(text), "\n") {
		if rest, ok := strings.CutPrefix(line, name+" "); ok {
			v, _ := strconv.ParseFloat(strings.TrimSpace(rest), 64)
			return v
		}
	}
	return 0
}
