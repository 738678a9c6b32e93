// Package fleet is the multi-UE layer of the reproduction: it steps N
// concurrent UE sessions — each a full mobility.Runner over the
// ran/trace substrate — against one shared deployment with per-cell
// attach state and load-aware handover admission (internal/core), on
// the deterministic internal/par pool.
//
// # Determinism model
//
// The fleet advances in epochs. Within an epoch every session steps
// independently on the worker pool: its RNG streams are rooted at
// sim.ReplicaSeed(fleet seed, UE index), and the per-cell loads its
// admission decisions read are the *frozen* loads from the epoch
// boundary. At the barrier the engine reduces session state in UE
// order: recomputes loads, updates per-cell statistics and emits the
// epoch's events sorted by (time, UE). Every quantity the fleet
// produces therefore depends only on (spec, epoch schedule) — never on
// the worker count or on goroutine interleaving — so aggregate
// reports are byte-identical at -workers 1 and -workers N.
//
// # Struct-of-arrays layout
//
// Session state is packed flat: all mobility.Runner values live in one
// contiguous slice indexed by UE, with per-UE fleet bookkeeping in a
// parallel sessState slice. Live UEs are tracked in a dense activity
// index that the worker pool steps in fixed-size batches, and every
// per-epoch buffer (event batches, admission candidate lists, frozen
// load snapshots, timeline drains) is pooled on the engine, so
// steady-state epochs allocate nothing on the coordinator path.
package fleet

import (
	"context"
	"fmt"
	"math"
	gometrics "runtime/metrics"
	"sort"
	"time"

	"rem/internal/core"
	"rem/internal/fault"
	"rem/internal/mobility"
	"rem/internal/obs"
	"rem/internal/par"
	"rem/internal/sim"
	"rem/internal/trace"
	"rem/internal/transport"
)

// Spec configures a fleet run.
type Spec struct {
	// UEs is the number of concurrent sessions (required, >= 1).
	UEs int `json:"ues"`
	// UEOffset shifts every UE of the run into the global id range
	// [UEOffset, UEOffset+UEs): local UE i draws its seed, substrate
	// and telemetry scope from global id UEOffset+i, and every event
	// and stat it emits carries that global id. It is how a cluster
	// shard of a larger fleet stays byte-identical to the same UE range
	// of the single-process run (0 = unsharded).
	UEOffset int `json:"ue_offset,omitempty"`
	// Dataset selects the synthesized deployment (default
	// beijing-shanghai).
	Dataset trace.DatasetID `json:"-"`
	// Mode selects the mobility system under test.
	Mode trace.Mode `json:"-"`
	// SpeedKmh is the nominal client speed (default 300).
	SpeedKmh float64 `json:"speed_kmh,omitempty"`
	// DurationSec is the simulated time per UE (required, > 0).
	DurationSec float64 `json:"duration_sec"`
	// Seed roots every RNG stream of the run (default 1).
	Seed int64 `json:"seed,omitempty"`
	// Workers bounds the parallel pool (0 = all cores; must not exceed
	// UEs). Results are byte-identical at any value.
	Workers int `json:"workers,omitempty"`
	// EpochSec is the barrier interval at which shared cell state is
	// refreshed and events are published (default 0.5 simulated
	// seconds). Smaller epochs mean fresher loads; the value is part of
	// the deterministic schedule, not a tuning-free knob.
	EpochSec float64 `json:"epoch_sec,omitempty"`
	// CellCapacity caps attached UEs per cell for handover admission
	// (0 = unlimited).
	CellCapacity int `json:"cell_capacity,omitempty"`
	// SpreadMarginDB enables load spreading: an admissible target
	// within this many dB of the best is preferred when lighter.
	SpreadMarginDB float64 `json:"spread_margin_db,omitempty"`
	// StartSpreadM / SpeedJitterFrac de-synchronize the fleet (see
	// trace.FleetConfig); zero selects the defaults.
	StartSpreadM    float64 `json:"start_spread_m,omitempty"`
	SpeedJitterFrac float64 `json:"speed_jitter_frac,omitempty"`
	// Faults arms the deterministic fault plane for every UE: the
	// schedule (outages, CSI windows) is shared fleet-wide, injection
	// randomness comes from each UE's private stream.
	Faults *fault.Plan `json:"faults,omitempty"`
	// Transport arms the per-UE transport plane: every UE runs a
	// congestion-controlled flow (see internal/transport) over its
	// simulated radio link, with jitter/loss randomness drawn from the
	// UE's private "transport.link" stream so arming it never perturbs
	// any pre-existing stream — disarmed runs are byte-identical to
	// builds that predate the field.
	Transport *transport.Spec `json:"transport,omitempty"`
}

// Defaulted returns the spec with unset tunables resolved — the exact
// spec a run executes, which is what a cluster coordinator must
// partition so every shard inherits the same resolved schedule.
func (s Spec) Defaulted() Spec { return s.withDefaults() }

func (s Spec) withDefaults() Spec {
	if s.SpeedKmh == 0 {
		s.SpeedKmh = 300
	}
	if s.Seed == 0 {
		s.Seed = 1
	}
	if s.EpochSec <= 0 {
		s.EpochSec = 0.5
	}
	return s
}

// SpecError is a typed spec-validation failure: which field was
// rejected and why. Invalid values are rejected, never silently
// clamped — a spec that runs is the spec that was asked for.
type SpecError struct {
	Field string // the offending Spec field name
	Msg   string // what was wrong with it
}

func (e *SpecError) Error() string {
	return "fleet: invalid spec: " + e.Field + ": " + e.Msg
}

// Validate checks the spec without running it.
func (s Spec) Validate() error {
	if s.UEs < 1 {
		return &SpecError{Field: "UEs", Msg: fmt.Sprintf("must be >= 1 (got %d)", s.UEs)}
	}
	if s.UEOffset < 0 {
		return &SpecError{Field: "UEOffset", Msg: fmt.Sprintf("must be >= 0 (got %d)", s.UEOffset)}
	}
	if s.UEOffset > math.MaxInt-s.UEs {
		return &SpecError{Field: "UEOffset", Msg: fmt.Sprintf("%d overflows with %d UEs", s.UEOffset, s.UEs)}
	}
	if s.DurationSec <= 0 {
		return &SpecError{Field: "DurationSec", Msg: fmt.Sprintf("must be > 0 (got %g)", s.DurationSec)}
	}
	if s.Workers < 0 {
		return &SpecError{Field: "Workers", Msg: fmt.Sprintf("must be >= 0 (got %d)", s.Workers)}
	}
	if s.Workers > s.UEs {
		return &SpecError{Field: "Workers", Msg: fmt.Sprintf("%d workers exceed %d UEs", s.Workers, s.UEs)}
	}
	if err := s.Faults.Validate(); err != nil {
		return err
	}
	if s.Transport != nil {
		if err := s.Transport.Validate(); err != nil {
			return &SpecError{Field: "Transport", Msg: err.Error()}
		}
	}
	return nil
}

// Progress is the per-epoch heartbeat handed to Options.Progress: the
// live counters a serving layer exports.
type Progress struct {
	SimTime   float64       // simulated seconds completed
	Attached  int           // UEs currently holding a radio link
	Handovers int           // cumulative
	Failures  int           // cumulative
	Blocked   int           // cumulative admission deferrals
	WallStep  time.Duration // wall-clock cost of this epoch
	// EpochAllocs is the number of heap objects allocated during this
	// epoch (workers plus coordinator, via runtime/metrics). Collected
	// only when a Progress hook is installed, so disarmed runs pay
	// nothing for it.
	EpochAllocs uint64
}

// Options customizes a run with observation hooks. All hooks are
// called from the coordinating goroutine only (never concurrently).
type Options struct {
	// Observer receives every fleet event in deterministic order
	// ((time, UE) within each epoch).
	Observer func(Event)
	// Progress receives one heartbeat per epoch.
	Progress func(Progress)
	// Telemetry arms the observability plane: every UE gets a scope
	// (recorder + metrics shard) on this Telemetry, drained at epoch
	// barriers. nil (the default) is fully disarmed — summaries and
	// reports are byte-identical either way, and armed output is
	// byte-identical at any worker count.
	Telemetry *obs.Telemetry
	// OnTimeline receives each epoch's merged timeline batch (sorted
	// by time, UE, sequence), plus one final batch after the run
	// completes that also carries the replayed TCP stall events.
	// Only called when Telemetry is armed. The batch slice is pooled
	// and reused between calls — copy events out to retain them.
	OnTimeline func([]obs.Event)

	// fullSnapshotInOutage forces every session onto the always-step
	// full-snapshot path while detached (see
	// mobility.Config.FullSnapshotInOutage). Test-only verification
	// knob for the detached fast path; outputs must be byte-identical
	// either way.
	fullSnapshotInOutage bool
}

// Run executes the fleet to completion (or ctx cancellation).
func Run(ctx context.Context, spec Spec) (*Result, error) {
	return RunWithOptions(ctx, spec, Options{})
}

// RunWithOptions is Run with observation hooks.
func RunWithOptions(ctx context.Context, spec Spec, opts Options) (*Result, error) {
	eng, err := NewEngine(ctx, spec, opts)
	if err != nil {
		return nil, err
	}
	return eng.runAll(ctx)
}

// stepBatchSize is the number of UEs one pool task steps back-to-back:
// large enough to amortize task dispatch, small enough to load-balance
// across workers.
const stepBatchSize = 64

// Engine is one fleet run's packed state, advanced epoch by epoch.
// Build it with NewEngine, call StepEpoch until done, then Finish.
// Run/RunWithOptions wrap that loop for callers that just want the
// result.
//
// All exported methods are coordinator-side: they must be called from
// a single goroutine.
type Engine struct {
	spec   Spec
	opts   Options
	shared *trace.Shared
	adm    *core.Admission

	// arena holds every UE's RNG generator state in contiguous chunks:
	// streams seed lazily on first draw and tick-budgeted streams
	// materialize as short output tapes, so an epoch streams generator
	// state roughly in stepping order instead of pointer-chasing ~20
	// scattered ~5 KB windows per UE. Draw sequences are byte-identical
	// to the eager path (see sim.ArenaStreams).
	arena *sim.Arena

	// Struct-of-arrays session state, indexed by UE: the runners slice
	// holds every mobility.Runner by value (contiguous, cache-friendly
	// batch stepping), sess the per-UE fleet bookkeeping.
	runners []mobility.Runner
	sess    []sessState

	// active is the dense activity index: the UE ids still live (not
	// Done), rebuilt at every barrier. Pool tasks step fixed-size
	// batches of it.
	active []int32

	// loads is the frozen per-cell attach count (indexed by cell ID)
	// the sessions' admission hooks read during an epoch. The two
	// buffers are swapped — never reallocated — at epoch barriers, and
	// the par pool's goroutine spawn provides the happens-before edge
	// to the workers.
	loads     []int
	loadsNext []int

	// cellStats is dense by cell ID (IDs start at 1; slot 0 unused).
	cellStats []CellStat
	handovers int
	failures  int
	blocked   int

	simT float64
	done bool

	// Pooled per-epoch scratch: the barrier's merged event batch and
	// its stored sorter (so sort.Stable takes an interface that is
	// already a pointer — no per-epoch allocation), plus the bound
	// batch-stepping closure handed to the pool.
	epochEvents []Event
	sorter      eventSorter
	stepFn      func(i int) error
	epochEnd    float64

	// tel / runObs are the armed observability plane (nil when
	// disarmed): per-UE scopes live on tel, run-level metrics on the
	// coordinator-owned obs.RunScope shard. timelineBuf is the pooled
	// drain target handed to OnTimeline.
	tel         *obs.Telemetry
	runObs      *runScopeObs
	timelineBuf []obs.Event

	// allocSamples is the runtime/metrics scratch for
	// Progress.EpochAllocs (nil unless a Progress hook is installed).
	allocSamples []gometrics.Sample
}

// runScopeObs holds the run-level metric handles the coordinator
// updates at epoch barriers.
type runScopeObs struct {
	epochs          *obs.Counter
	timelineEvents  *obs.Counter
	timelineDropped *obs.Counter
	attached        *obs.Gauge
	simTime         *obs.Gauge
	dropSeen        int
}

// armTelemetry installs the run's telemetry before any session exists.
func (e *Engine) armTelemetry(tel *obs.Telemetry) {
	if tel == nil {
		return
	}
	e.tel = tel
	if e.spec.Transport != nil {
		// Extend the schema before the first scope (and so the first
		// shard) exists; disarmed runs keep the pre-transport snapshot
		// byte shape.
		obs.RegisterTransportMetrics(tel.Registry)
	}
	sh := tel.Scope(obs.RunScope).Shard
	e.runObs = &runScopeObs{
		epochs:          sh.Counter(obs.MEpochs),
		timelineEvents:  sh.Counter(obs.MTimelineEvents),
		timelineDropped: sh.Counter(obs.MTimelineDropped),
		attached:        sh.Gauge(obs.MAttachedUEs),
		simTime:         sh.Gauge(obs.MSimTime),
	}
}

// publishTimeline drains every scope (UE order) into the pooled batch
// and hands it to the OnTimeline hook, keeping the run-level event
// counters current. Coordinator-only, at barriers or after the pool
// joins.
func (e *Engine) publishTimeline() {
	e.timelineBuf = e.tel.DrainInto(e.timelineBuf[:0])
	evs := e.timelineBuf
	if len(evs) > 0 {
		e.runObs.timelineEvents.Add(float64(len(evs)))
	}
	if d := e.tel.Dropped(); d > e.runObs.dropSeen {
		e.runObs.timelineDropped.Add(float64(d - e.runObs.dropSeen))
		e.runObs.dropSeen = d
	}
	if len(evs) > 0 && e.opts.OnTimeline != nil {
		e.opts.OnTimeline(evs)
	}
}

// NewEngine validates the spec, builds the shared world and every UE
// session (scenario assembly runs on the pool), and leaves the engine
// at simulated time zero, ready for StepEpoch.
func NewEngine(ctx context.Context, spec Spec, opts Options) (*Engine, error) {
	spec = spec.withDefaults()
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	shared, err := trace.BuildFleetShared(trace.FleetConfig{
		BuildConfig: trace.BuildConfig{
			Dataset:   trace.Describe(spec.Dataset),
			SpeedKmh:  spec.SpeedKmh,
			Mode:      spec.Mode,
			Duration:  spec.DurationSec,
			Seed:      spec.Seed,
			Faults:    spec.Faults,
			Transport: spec.Transport,
		},
		StartSpreadM:    spec.StartSpreadM,
		SpeedJitterFrac: spec.SpeedJitterFrac,
	})
	if err != nil {
		return nil, err
	}
	maxCell := shared.Dep.MaxCellID()
	e := &Engine{
		spec:      spec,
		opts:      opts,
		shared:    shared,
		arena:     sim.NewArena(),
		adm:       &core.Admission{Capacity: spec.CellCapacity, SpreadMarginDB: spec.SpreadMarginDB},
		loads:     make([]int, maxCell+1),
		loadsNext: make([]int, maxCell+1),
		cellStats: make([]CellStat, maxCell+1),
	}
	for _, c := range shared.Dep.Cells {
		e.cellStats[c.ID] = CellStat{Cell: c.ID, Channel: c.Channel}
	}
	e.armTelemetry(opts.Telemetry)
	if opts.Progress != nil {
		e.allocSamples = []gometrics.Sample{{Name: "/gc/heap/allocs:objects"}}
	}
	e.stepFn = e.stepBatch

	// Build every session on the pool: scenario assembly (deployment
	// lookups, policy wiring, per-UE RNG streams) is itself parallel.
	// Each worker writes only its own UE's slots.
	e.runners = make([]mobility.Runner, spec.UEs)
	e.sess = make([]sessState, spec.UEs)
	err = par.ForEachCtx(ctx, spec.Workers, spec.UEs, func(ue int) error {
		return e.buildSession(ue)
	})
	if err != nil {
		return nil, err
	}
	e.rebuildActive()
	e.refreshLoads()
	for i := range e.runners {
		e.bumpCell(e.runners[i].Serving(), func(cs *CellStat) { cs.Attaches++ })
	}
	e.updatePeaks()
	return e, nil
}

// runAll steps the engine to completion and finalizes.
func (e *Engine) runAll(ctx context.Context) (*Result, error) {
	for {
		done, err := e.StepEpoch(ctx)
		if err != nil {
			return nil, err
		}
		if done {
			return e.Finish(), nil
		}
	}
}

// allocCount reads the cumulative heap-allocation object count (only
// when Progress sampling is armed).
func (e *Engine) allocCount() uint64 {
	if e.allocSamples == nil {
		return 0
	}
	gometrics.Read(e.allocSamples)
	return e.allocSamples[0].Value.Uint64()
}

// StepEpoch advances the fleet one barrier interval: steps every live
// UE on the pool, then reduces in UE order (events, loads, cell stats,
// telemetry, progress). It reports done=true once simulated time has
// reached the spec duration; further calls are no-ops. Steady-state
// epochs allocate nothing beyond what the installed hooks do.
func (e *Engine) StepEpoch(ctx context.Context) (done bool, err error) {
	if e.done {
		return true, nil
	}
	spec := e.spec
	end := e.simT + spec.EpochSec
	if end > spec.DurationSec {
		end = spec.DurationSec
	}
	var wallStart time.Time
	var allocStart uint64
	if e.opts.Progress != nil {
		wallStart = time.Now()
		allocStart = e.allocCount()
	}
	e.epochEnd = end
	nBatches := (len(e.active) + stepBatchSize - 1) / stepBatchSize
	if err := par.ForEachCtx(ctx, spec.Workers, nBatches, e.stepFn); err != nil {
		return false, err
	}
	e.simT = end
	e.done = e.simT >= spec.DurationSec

	// Barrier: UE-ordered reduction of everything the epoch produced,
	// then refresh the frozen loads for the next epoch. The single
	// stable sort by (time, UE) fixes the same canonical order the
	// per-session time sort + global merge used to produce: events of
	// one UE at equal times keep their append order either way.
	e.epochEvents = e.epochEvents[:0]
	for i := range e.sess {
		e.drainEvents(i)
	}
	e.sorter.evs = e.epochEvents
	sort.Stable(&e.sorter)
	for _, ev := range e.epochEvents {
		e.applyEvent(ev)
		if e.opts.Observer != nil {
			e.opts.Observer(ev)
		}
	}
	e.rebuildActive()
	e.refreshLoads()
	e.updatePeaks()
	if e.tel != nil {
		e.runObs.epochs.Inc()
		e.runObs.attached.Set(float64(e.attachedCount()))
		e.runObs.simTime.Set(e.simT)
		e.publishTimeline()
	}
	if e.opts.Progress != nil {
		e.opts.Progress(Progress{
			SimTime:     e.simT,
			Attached:    e.attachedCount(),
			Handovers:   e.handovers,
			Failures:    e.failures,
			Blocked:     e.blocked,
			WallStep:    time.Since(wallStart),
			EpochAllocs: e.allocCount() - allocStart,
		})
	}
	return e.done, nil
}

// RNGStats returns a snapshot of the fleet's RNG arena accounting:
// stream/seeded/tape/window counts, spills, and resident bytes. It is
// the basis of BenchmarkEpoch's bytes-of-RNG-state-per-UE metric.
func (e *Engine) RNGStats() sim.ArenaStats { return e.arena.Stats() }

// Finish finalizes every runner and folds the fleet result. Call it
// once, after StepEpoch reported done.
func (e *Engine) Finish() *Result {
	sh := e.FinishShard()
	for id := range sh.Cells {
		sh.Cells[id].FinalAttached = e.loads[id]
	}
	return assemble(e.spec, sh.Outcomes, sh.Blocked, sh.Cells)
}

// FinishShard is the raw half of Finish: it finalizes every runner (UE
// order) into its outcome, closes each transport flow, replays outages
// through the TCP model and publishes the final timeline batch when
// telemetry is armed, and returns the outcomes with the admission and
// cell tallies, unfolded. Peak attach counts are engine-local and
// final ones unset. Cluster members ship it so the coordinator folds
// every shard through the same assemble. Call it once.
func (e *Engine) FinishShard() ShardSlice {
	sh := ShardSlice{
		Offset:   e.spec.UEOffset,
		Outcomes: make([]UEOutcome, len(e.runners)),
		Blocked:  e.blocked,
		Cells:    e.CellStats(),
	}
	for i := range e.runners {
		res := e.runners[i].Finish()
		o := outcomeOf(e.spec.UEOffset+i, res)
		ss := &e.sess[i]
		if ss.tp != nil {
			// Drain any link-trace tail the last epoch left unconsumed,
			// then close the flow. Totals are kept whether or not
			// telemetry is armed; the metric/event emission is
			// telemetry-only (Observe is nil-safe).
			e.stepTransport(i)
			ss.tp.Finish()
			tt := ss.tp.Totals()
			o.Transport = &tt
			transport.Observe(ss.scope, tt, ss.tp.Stalls())
		}
		transport.ObserveTCPStalls(ss.scope, res.Outages)
		sh.Outcomes[i] = o
	}
	if e.tel != nil {
		e.publishTimeline()
	}
	return sh
}

// Spec returns the resolved (defaulted) spec the engine is running.
func (e *Engine) Spec() Spec { return e.spec }

// Loads returns a copy of the frozen per-cell attach counts (dense by
// cell ID) the next epoch's admission decisions will read.
func (e *Engine) Loads() []int {
	return append([]int(nil), e.loads...)
}

// SetLoads replaces the frozen per-cell loads for the next epoch. A
// cluster coordinator installs the fleet-wide sums here before every
// StepEpoch, so each shard's admission decisions see the same global
// loads a single-process run would. The slice is copied.
func (e *Engine) SetLoads(loads []int) error {
	if len(loads) != len(e.loads) {
		return fmt.Errorf("fleet: SetLoads: %d cells, engine has %d", len(loads), len(e.loads))
	}
	copy(e.loads, loads)
	return nil
}

// CellStats returns a copy of the dense per-cell statistics table
// (indexed by cell ID; slot 0 and undeployed IDs carry Cell == 0).
// Peak/final attach counts are engine-local — a cluster merge
// recomputes them from the global load history.
func (e *Engine) CellStats() []CellStat {
	return append([]CellStat(nil), e.cellStats...)
}

// stepBatch advances one fixed-size slice of the activity index; pool
// task i owns active[i*stepBatchSize : (i+1)*stepBatchSize].
func (e *Engine) stepBatch(b int) error {
	lo := b * stepBatchSize
	hi := lo + stepBatchSize
	if hi > len(e.active) {
		hi = len(e.active)
	}
	batch := e.active[lo:hi]
	if stepHook != nil {
		for _, ue := range batch {
			stepHook(int(ue))
			e.runners[ue].StepTo(e.epochEnd)
		}
	} else {
		mobility.StepBatch(e.runners, batch, e.epochEnd)
	}
	if e.spec.Transport != nil {
		for _, ue := range batch {
			e.stepTransport(int(ue))
		}
	}
	return nil
}

// stepTransport feeds UE ue's newly recorded link-trace intervals to
// its transport flow. Runs on the worker that owns the UE this batch
// (single-writer, like the runner itself); randomness comes only from
// the UE's private transport stream, so the consumed-prefix position
// never depends on epoch boundaries or worker count.
func (e *Engine) stepTransport(ue int) {
	ss := &e.sess[ue]
	if ss.tp == nil {
		return
	}
	res := e.runners[ue].Result()
	for ss.tpSeen < len(res.LinkDown) {
		k := ss.tpSeen
		ss.tp.Step(res.SNRTrace[k], res.LinkDown[k])
		ss.tpSeen++
	}
}

// rebuildActive refreshes the dense activity index: UEs whose runner
// has not exhausted its tick schedule. Done UEs drop out and are never
// dispatched to the pool again.
func (e *Engine) rebuildActive() {
	e.active = e.active[:0]
	for i := range e.runners {
		if !e.runners[i].Done() {
			e.active = append(e.active, int32(i))
		}
	}
}

// bumpCell applies fn to cell id's stats when the id is a deployed
// cell.
func (e *Engine) bumpCell(id int, fn func(*CellStat)) {
	if id >= 0 && id < len(e.cellStats) && e.cellStats[id].Cell != 0 {
		fn(&e.cellStats[id])
	}
}

func (e *Engine) applyEvent(ev Event) {
	switch ev.Type {
	case EventHandover:
		e.handovers++
		e.bumpCell(ev.To, func(cs *CellStat) {
			cs.HandoversIn++
			cs.Attaches++
		})
	case EventFailure:
		e.failures++
		e.bumpCell(ev.From, func(cs *CellStat) { cs.Failures++ })
	case EventBlocked:
		e.blocked++
		e.bumpCell(ev.To, func(cs *CellStat) { cs.Blocked++ })
	case EventReattach:
		e.bumpCell(ev.To, func(cs *CellStat) { cs.Attaches++ })
	}
}

// refreshLoads recomputes the per-cell attach counts from the
// sessions' current serving cells (UE order; detached UEs count
// nowhere) into the spare buffer and swaps it in as the next epoch's
// frozen snapshot. The buffer being retired is not touched again until
// the following barrier, by which time the epoch that read it has
// joined.
func (e *Engine) refreshLoads() {
	loads := e.loadsNext
	clear(loads)
	for i := range e.runners {
		r := &e.runners[i]
		if r.Attached() {
			if id := r.Serving(); id >= 0 && id < len(loads) {
				loads[id]++
			}
		}
	}
	e.loadsNext = e.loads
	e.loads = loads
}

func (e *Engine) updatePeaks() {
	for id := range e.cellStats {
		cs := &e.cellStats[id]
		if cs.Cell != 0 && e.loads[id] > cs.PeakAttached {
			cs.PeakAttached = e.loads[id]
		}
	}
}

func (e *Engine) attachedCount() int {
	n := 0
	for _, l := range e.loads {
		n += l
	}
	return n
}

// specTitle renders the report title for a (defaulted) spec.
func specTitle(spec Spec) string {
	return fmt.Sprintf("%d-UE fleet, %s/%s at %g km/h for %gs (seed %d)",
		spec.UEs, trace.Describe(spec.Dataset).ID, spec.Mode,
		spec.SpeedKmh, spec.DurationSec, spec.Seed)
}

// eventSorter is the stored sort.Interface for the barrier's merged
// event batch: stable order by (time, UE), with same-UE same-time
// events keeping their per-session append order.
type eventSorter struct{ evs []Event }

func (s *eventSorter) Len() int      { return len(s.evs) }
func (s *eventSorter) Swap(a, b int) { s.evs[a], s.evs[b] = s.evs[b], s.evs[a] }
func (s *eventSorter) Less(a, b int) bool {
	if s.evs[a].Time != s.evs[b].Time {
		return s.evs[a].Time < s.evs[b].Time
	}
	return s.evs[a].UE < s.evs[b].UE
}
