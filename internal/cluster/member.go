package cluster

import (
	"encoding/json"
	"fmt"
	"net/http"
	"sync"
	"sync/atomic"

	"rem/internal/fleet"
	"rem/internal/obs"
)

// Member executes shard engines on behalf of a coordinator. It is the
// server side of the shard protocol: start builds an engine for one
// contiguous UE range, step advances it one epoch under
// coordinator-supplied global loads, finish finalizes and ships the raw
// shard state, abort drops it. A member holds any number of shards from
// any number of runs; distinct shards step concurrently, one shard
// never does.
//
// The protocol is idempotent per epoch: the member caches the response
// of the last step (keyed by epoch) and of finish, so a coordinator
// whose response was lost in flight can retry the call and receive the
// exact cached bytes — the engine is stepped once and finalized once
// no matter how many times a request is replayed. Without this, a lost
// response would force a full shard failover (the engine would already
// sit one epoch ahead of what the coordinator saw).
type Member struct {
	mu     sync.Mutex
	shards map[string]*shardRun

	// stepReplays / finishReplays count protocol retries answered from
	// the idempotency cache (observable in tests and diagnostics).
	stepReplays   atomic.Int64
	finishReplays atomic.Int64
}

// NewMember builds an empty member.
func NewMember() *Member {
	return &Member{shards: make(map[string]*shardRun)}
}

// StepReplays reports how many step requests were answered from the
// idempotency cache instead of advancing an engine.
func (m *Member) StepReplays() int64 { return m.stepReplays.Load() }

// FinishReplays reports how many finish requests were answered from
// the idempotency cache instead of finalizing an engine.
func (m *Member) FinishReplays() int64 { return m.finishReplays.Load() }

// shardRun is one shard engine plus its per-epoch output buffers. The
// engine's hooks append into the buffers; each protocol call swaps them
// out under the shard lock. lastStep and finResp are the idempotency
// caches: lastStep holds the response already sent for epoch-1 (valid
// until the next step truncates the buffers it references), finResp
// the finish response (the engine is released once it exists).
type shardRun struct {
	mu       sync.Mutex
	eng      *fleet.Engine
	tel      *obs.Telemetry
	epoch    int
	done     bool
	events   []fleet.Event
	timeline []obs.Event
	lastStep *stepResponse
	finResp  *finishResponse
}

func shardKey(run string, shard int) string {
	return fmt.Sprintf("%s/%d", run, shard)
}

// RegisterHandlers mounts the shard protocol on mux.
func (m *Member) RegisterHandlers(mux *http.ServeMux) {
	mux.HandleFunc("POST "+pathShardStart, m.handleStart)
	mux.HandleFunc("POST "+pathShardStep, m.handleStep)
	mux.HandleFunc("POST "+pathShardFinish, m.handleFinish)
	mux.HandleFunc("POST "+pathShardAbort, m.handleAbort)
}

// Shards reports how many shard engines are currently resident.
func (m *Member) Shards() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.shards)
}

// handleStart builds a shard engine. Restarting an existing key
// replaces the old engine: that is the failover path when a shard is
// reassigned back to a member that still holds a stale copy.
func (m *Member) handleStart(w http.ResponseWriter, r *http.Request) {
	var req startRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		protocolError(w, http.StatusBadRequest, err)
		return
	}
	spec, err := req.Spec.ToFleet()
	if err != nil {
		protocolError(w, http.StatusBadRequest, err)
		return
	}
	sr := &shardRun{}
	opts := fleet.Options{
		Observer: func(ev fleet.Event) { sr.events = append(sr.events, ev) },
	}
	if req.Telemetry {
		sr.tel = obs.New(obs.Config{})
		opts.Telemetry = sr.tel
		// The batch slice is pooled inside the engine — copy out.
		opts.OnTimeline = func(evs []obs.Event) { sr.timeline = append(sr.timeline, evs...) }
	}
	eng, err := fleet.NewEngine(r.Context(), spec, opts)
	if err != nil {
		protocolError(w, http.StatusBadRequest, err)
		return
	}
	sr.eng = eng
	m.mu.Lock()
	m.shards[shardKey(req.Run, req.Shard)] = sr
	m.mu.Unlock()
	writeProtocolJSON(w, startResponse{Loads: eng.Loads()})
}

func (m *Member) lookup(run string, shard int) *shardRun {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.shards[shardKey(run, shard)]
}

func (m *Member) drop(run string, shard int) {
	m.mu.Lock()
	delete(m.shards, shardKey(run, shard))
	m.mu.Unlock()
}

// handleStep installs the global loads and advances the shard one
// epoch. A request for the epoch just stepped is a retry after a lost
// response and is answered from the idempotency cache without touching
// the engine. Any engine failure drops the shard and reports 500 — the
// coordinator treats the member as lost for this shard and reassigns,
// so a half-stepped engine is never stepped again.
func (m *Member) handleStep(w http.ResponseWriter, r *http.Request) {
	var req stepRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		protocolError(w, http.StatusBadRequest, err)
		return
	}
	sr := m.lookup(req.Run, req.Shard)
	if sr == nil {
		protocolError(w, http.StatusNotFound, fmt.Errorf("cluster: unknown shard %s", shardKey(req.Run, req.Shard)))
		return
	}
	sr.mu.Lock()
	defer sr.mu.Unlock()
	if sr.lastStep != nil && req.Epoch == sr.epoch-1 {
		// Duplicate of the last step: the response never reached the
		// coordinator. Return the cached bytes; the engine already
		// advanced and must not advance again.
		m.stepReplays.Add(1)
		writeProtocolJSON(w, *sr.lastStep)
		return
	}
	if req.Epoch != sr.epoch || sr.finResp != nil {
		m.drop(req.Run, req.Shard)
		protocolError(w, http.StatusConflict,
			fmt.Errorf("cluster: shard %s at epoch %d, coordinator asked for %d", shardKey(req.Run, req.Shard), sr.epoch, req.Epoch))
		return
	}
	if err := sr.eng.SetLoads(req.Loads); err != nil {
		m.drop(req.Run, req.Shard)
		protocolError(w, http.StatusInternalServerError, err)
		return
	}
	sr.events = sr.events[:0]
	sr.timeline = sr.timeline[:0]
	done, err := sr.eng.StepEpoch(r.Context())
	if err != nil {
		m.drop(req.Run, req.Shard)
		protocolError(w, http.StatusInternalServerError, err)
		return
	}
	sr.epoch++
	sr.done = done
	// Cache the response before sending it: the buffers it references
	// are only truncated by the next step, which the coordinator sends
	// only after it has this epoch's response in hand.
	sr.lastStep = &stepResponse{
		Done:     done,
		Events:   sr.events,
		Loads:    sr.eng.Loads(),
		Timeline: sr.timeline,
	}
	writeProtocolJSON(w, *sr.lastStep)
}

// handleFinish finalizes a completed shard and ships its raw state:
// per-UE outcomes under global ids, shard-local admission and cell
// tallies, the metrics dump and the final timeline batch (TCP stall
// replay included). The response is cached and the engine released;
// the shard entry stays resident so a retry after a lost response
// replays the cached bytes (the engine is finalized exactly once),
// until the coordinator's post-run abort sweeps it away.
func (m *Member) handleFinish(w http.ResponseWriter, r *http.Request) {
	var req finishRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		protocolError(w, http.StatusBadRequest, err)
		return
	}
	sr := m.lookup(req.Run, req.Shard)
	if sr == nil {
		protocolError(w, http.StatusNotFound, fmt.Errorf("cluster: unknown shard %s", shardKey(req.Run, req.Shard)))
		return
	}
	sr.mu.Lock()
	defer sr.mu.Unlock()
	if sr.finResp != nil {
		m.finishReplays.Add(1)
		writeProtocolJSON(w, *sr.finResp)
		return
	}
	if !sr.done {
		protocolError(w, http.StatusConflict, fmt.Errorf("cluster: shard %s not done", shardKey(req.Run, req.Shard)))
		return
	}
	sr.timeline = sr.timeline[:0]
	sh := sr.eng.FinishShard()
	resp := &finishResponse{UEs: sh.Outcomes, Blocked: sh.Blocked, Cells: sh.Cells}
	if sr.tel != nil {
		resp.Metrics = sr.tel.Registry.Dump()
		resp.Timeline = sr.timeline
	}
	// Release the engine and telemetry plane — only the cached
	// response is needed from here on.
	sr.eng, sr.tel, sr.lastStep = nil, nil, nil
	sr.finResp = resp
	writeProtocolJSON(w, *resp)
}

// handleAbort drops a shard without finalizing it (run canceled, or
// the shard was reassigned elsewhere).
func (m *Member) handleAbort(w http.ResponseWriter, r *http.Request) {
	var req abortRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		protocolError(w, http.StatusBadRequest, err)
		return
	}
	m.drop(req.Run, req.Shard)
	writeProtocolJSON(w, struct{}{})
}

func protocolError(w http.ResponseWriter, code int, err error) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_ = json.NewEncoder(w).Encode(errorResponse{Error: err.Error()})
}

func writeProtocolJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(v)
}
