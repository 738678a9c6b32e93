// Package cluster is the horizontal scale-out plane: a coordinator
// that partitions a fleet run's UE id space into contiguous shard
// ranges, dispatches each range to a member node over HTTP, drives all
// shards through an epoch-locked barrier, and merges their output
// deterministically.
//
// # Determinism model
//
// The single-process fleet engine's admission decisions read the
// fleet-wide per-cell loads frozen at each epoch boundary, so a shard
// stepping alone would diverge from the same UE range of an unsharded
// run. The cluster therefore advances in lock-step: at every barrier
// each member reports its shard's per-cell loads, the coordinator sums
// them (integer addition — exact) and broadcasts the global vector,
// and members install it via Engine.SetLoads before the next epoch.
// Every admission decision then sees exactly the loads a
// single-process run would have frozen.
//
// Aggregation ships one outcome record per UE (fleet.UEOutcome), not
// pre-folded summaries: floating-point addition does not reassociate,
// so per-shard partial sums would already be wrong in the last bits.
// The coordinator hands the decoded records straight to
// fleet.MergeShards, which validates them and runs the fleet engine's
// own fold over global UE order; metric registries
// merge through the obs dump codec in ascending scope-ID order; and
// timelines concatenate and re-sort by the total (time, UE, seq)
// order. All three are byte-identical to single-process output, which
// the tests pin at shard counts 1, 2 and 4.
//
// Failover is deterministic re-execution: per-UE substrates derive
// from hash seeds, so a surviving member rebuilds a lost shard from
// its spec and replays it epoch by epoch against the coordinator's
// recorded global-load history, rejoining the barrier with state
// byte-identical to the member that died.
package cluster

import (
	"rem/internal/fleet"
	"rem/internal/obs"
	"rem/internal/trace"
)

// Protocol paths (rooted on the member or coordinator mux).
const (
	pathShardStart  = "/cluster/v1/shard/start"
	pathShardStep   = "/cluster/v1/shard/step"
	pathShardFinish = "/cluster/v1/shard/finish"
	pathShardAbort  = "/cluster/v1/shard/abort"
	pathJoin        = "/cluster/v1/join"
	pathHeartbeat   = "/cluster/v1/heartbeat"
	pathMembers     = "/cluster/v1/members"
)

// WireSpec carries a fleet spec across the shard protocol with its
// dataset and mode as strings (the typed fields are json:"-").
type WireSpec struct {
	fleet.Spec
	Dataset string `json:"dataset,omitempty"`
	Mode    string `json:"mode,omitempty"`
}

// SpecToWire converts a typed spec for transport.
func SpecToWire(spec fleet.Spec) WireSpec {
	return WireSpec{Spec: spec, Dataset: spec.Dataset.String(), Mode: spec.Mode.String()}
}

// ToFleet resolves the string-named dataset and mode back into the
// typed spec.
func (w WireSpec) ToFleet() (fleet.Spec, error) {
	ds, err := trace.ParseDataset(w.Dataset)
	if err != nil {
		return fleet.Spec{}, err
	}
	md, err := trace.ParseMode(w.Mode)
	if err != nil {
		return fleet.Spec{}, err
	}
	spec := w.Spec
	spec.Dataset = ds
	spec.Mode = md
	return spec, nil
}

// joinRequest registers (or refreshes) a member with the coordinator.
type joinRequest struct {
	ID   string `json:"id"`
	Addr string `json:"addr"` // base URL the coordinator dials back
}

// MemberInfo is one member's registry entry as /cluster/v1/members
// reports it.
type MemberInfo struct {
	ID   string `json:"id"`
	Addr string `json:"addr"`
	Live bool   `json:"live"`
}

// membersResponse is the GET /cluster/v1/members body.
type membersResponse struct {
	Members []MemberInfo `json:"members"`
}

// startRequest asks a member to build one shard engine.
type startRequest struct {
	Run       string   `json:"run"`
	Shard     int      `json:"shard"`
	Spec      WireSpec `json:"spec"`
	Telemetry bool     `json:"telemetry,omitempty"`
}

// startResponse reports the freshly built shard's initial per-cell
// loads (dense by cell ID), which the coordinator sums into the global
// epoch-zero snapshot.
type startResponse struct {
	Loads []int `json:"loads"`
}

// stepRequest drives one epoch barrier: the member installs the global
// loads, steps the shard, and reports what the epoch produced. The
// call is idempotent per epoch: a duplicate request for the epoch just
// stepped (a coordinator retry after a lost response) is answered from
// the member's response cache without advancing the engine.
type stepRequest struct {
	Run   string `json:"run"`
	Shard int    `json:"shard"`
	// Epoch is the zero-based barrier index, cross-checked against the
	// member's engine position to catch protocol drift.
	Epoch int   `json:"epoch"`
	Loads []int `json:"loads"`
}

// stepResponse is one shard's epoch output.
type stepResponse struct {
	Done bool `json:"done"`
	// Events is the epoch's fleet event batch (global UE ids, already
	// in the engine's canonical (time, UE) order).
	Events []fleet.Event `json:"events,omitempty"`
	// Loads is the shard's per-cell attach counts at the new barrier.
	Loads []int `json:"loads"`
	// Timeline is the epoch's telemetry batch (armed runs only).
	Timeline []obs.Event `json:"timeline,omitempty"`
}

// finishRequest finalizes a completed shard. Idempotent: the engine is
// finalized once and the response cached, so a retried finish returns
// the same bytes; the shard entry is swept by the post-run abort.
type finishRequest struct {
	Run   string `json:"run"`
	Shard int    `json:"shard"`
}

// finishResponse carries the shard's raw terminal state: per-UE
// outcomes for the deterministic re-fold, shard-local admission/cell
// tallies, the raw metrics dump and the final timeline batch.
type finishResponse struct {
	UEs      []fleet.UEOutcome `json:"ues"`
	Blocked  int               `json:"blocked,omitempty"`
	Cells    []fleet.CellStat  `json:"cells"`
	Metrics  *obs.Dump         `json:"metrics,omitempty"`
	Timeline []obs.Event       `json:"timeline,omitempty"`
}

// abortRequest drops a shard without finalizing it.
type abortRequest struct {
	Run   string `json:"run"`
	Shard int    `json:"shard"`
}

// errorResponse is the JSON error body of any failed protocol call.
type errorResponse struct {
	Error string `json:"error"`
}
