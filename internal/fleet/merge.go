package fleet

import (
	"fmt"
	"sort"
)

// ShardSlice is one shard's contribution to a merged fleet result: the
// per-UE outcomes for the contiguous global UE range starting at
// Offset, plus the shard engine's admission and cell tallies (Blocked,
// Cells).
type ShardSlice struct {
	Offset   int
	Outcomes []UEOutcome
	Blocked  int
	// Cells is the shard engine's dense per-cell table, indexed by cell
	// ID. Every shard shares one deployment, so tables must agree on
	// length and cell identity.
	Cells []CellStat
}

// MergeShards reduces per-shard outcomes into the Result a
// single-process run of spec produces. Shards are reordered by Offset
// and must tile [0, spec.UEs) exactly; every outcome must sit in its
// own UE's slot, carry transport totals when the spec arms the plane,
// and pass validate, and no shard tally may be negative. The reduction
// is the engine's own fold (assemble) over the concatenated outcomes
// in global UE order, so every floating-point sum runs in the
// single-process order and the merge is byte-identical, not merely
// statistically equivalent.
//
// peaks and finals are the coordinator-tracked global per-cell attach
// counts (dense by cell ID): the elementwise maximum over every epoch
// barrier, and the last barrier's counts. Shard-local peak/final
// values are discarded — a max of per-shard peaks is not the peak of
// the global sum.
func MergeShards(spec Spec, shards []ShardSlice, peaks, finals []int) (*Result, error) {
	spec = spec.withDefaults()
	spec.UEOffset = 0
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	sorted := append([]ShardSlice(nil), shards...)
	sort.Slice(sorted, func(a, b int) bool { return sorted[a].Offset < sorted[b].Offset })

	outcomes := make([]UEOutcome, 0, spec.UEs)
	blocked := 0
	var cells []CellStat
	for _, sh := range sorted {
		if sh.Offset != len(outcomes) {
			return nil, fmt.Errorf("fleet: merge: shard ranges not contiguous at UE %d (offset %d)", len(outcomes), sh.Offset)
		}
		for j := range sh.Outcomes {
			o := &sh.Outcomes[j]
			if want := sh.Offset + j; o.UE != want {
				return nil, fmt.Errorf("fleet: merge: shard at offset %d returned UE %d at slot %d, want %d", sh.Offset, o.UE, j, want)
			}
			if spec.Transport != nil && o.Transport == nil {
				return nil, fmt.Errorf("fleet: merge: UE %d missing transport totals", o.UE)
			}
			if err := o.validate(); err != nil {
				return nil, err
			}
		}
		if sh.Blocked < 0 {
			return nil, fmt.Errorf("fleet: merge: shard at offset %d: negative blocked count %d", sh.Offset, sh.Blocked)
		}
		for _, cs := range sh.Cells {
			if cs.Attaches < 0 || cs.HandoversIn < 0 || cs.Failures < 0 || cs.Blocked < 0 {
				return nil, fmt.Errorf("fleet: merge: shard at offset %d: negative tally for cell %d", sh.Offset, cs.Cell)
			}
		}
		outcomes = append(outcomes, sh.Outcomes...)
		blocked += sh.Blocked
		if cells == nil {
			cells = append(cells, sh.Cells...)
			continue
		}
		if len(sh.Cells) != len(cells) {
			return nil, fmt.Errorf("fleet: merge: cell table length %d, want %d", len(sh.Cells), len(cells))
		}
		for id, cs := range sh.Cells {
			if cs.Cell != cells[id].Cell || cs.Channel != cells[id].Channel {
				return nil, fmt.Errorf("fleet: merge: cell %d identity differs across shards", id)
			}
			cells[id].Attaches += cs.Attaches
			cells[id].HandoversIn += cs.HandoversIn
			cells[id].Failures += cs.Failures
			cells[id].Blocked += cs.Blocked
		}
	}
	if len(outcomes) != spec.UEs {
		return nil, fmt.Errorf("fleet: merge: shards cover %d UEs, spec has %d", len(outcomes), spec.UEs)
	}
	for id := range cells {
		cells[id].PeakAttached, cells[id].FinalAttached = 0, 0
		if id < len(peaks) {
			cells[id].PeakAttached = peaks[id]
		}
		if id < len(finals) {
			cells[id].FinalAttached = finals[id]
		}
	}
	return assemble(spec, outcomes, blocked, cells), nil
}
