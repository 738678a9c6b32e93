package fleet

import (
	"context"
	"encoding/json"
	"testing"

	"rem/internal/trace"
)

// TestMergeShardsMatchesSingleProcess runs one fleet as two UEOffset
// shard engines stepped in lockstep and merges them with MergeShards.
// The spec has no admission coupling (no capacity, no spreading), so
// shards are independent and the merged result must be byte-identical
// to the single-process run: same per-UE stats under global ids, same
// report bytes, same cell table with coordinator-recomputed peaks.
func TestMergeShardsMatchesSingleProcess(t *testing.T) {
	spec := Spec{
		UEs: 40, Dataset: trace.BeijingShanghai, Mode: trace.REM,
		SpeedKmh: 330, DurationSec: 2, Seed: 5, Workers: 4,
	}
	want, err := Run(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	wantJS, _ := json.Marshal(want)

	ranges := []struct{ off, n int }{{0, 23}, {23, 17}}
	engines := make([]*Engine, len(ranges))
	for i, rg := range ranges {
		ss := spec
		ss.UEOffset, ss.UEs = rg.off, rg.n
		eng, err := NewEngine(context.Background(), ss, Options{})
		if err != nil {
			t.Fatalf("shard %d: %v", i, err)
		}
		engines[i] = eng
	}

	// Coordinator-style load tracking: global loads are the elementwise
	// sum of shard loads at every barrier (including the initial one);
	// peaks are the running max, finals the last barrier's counts.
	sumLoads := func() []int {
		var loads []int
		for _, eng := range engines {
			l := eng.Loads()
			if loads == nil {
				loads = l
				continue
			}
			for i := range l {
				loads[i] += l[i]
			}
		}
		return loads
	}
	peaks := sumLoads()
	var finals []int
	for done := false; !done; {
		for i, eng := range engines {
			d, err := eng.StepEpoch(context.Background())
			if err != nil {
				t.Fatalf("shard %d: %v", i, err)
			}
			if i == 0 {
				done = d
			} else if d != done {
				t.Fatal("shards disagree on epoch schedule")
			}
		}
		finals = sumLoads()
		for i, l := range finals {
			if l > peaks[i] {
				peaks[i] = l
			}
		}
	}

	slices := make([]ShardSlice, len(engines))
	for i, eng := range engines {
		slices[i] = eng.FinishShard()
	}
	// Shards arrive out of order on purpose: MergeShards must reorder.
	slices[0], slices[1] = slices[1], slices[0]
	got, err := MergeShards(spec, slices, peaks, finals)
	if err != nil {
		t.Fatal(err)
	}
	gotJS, _ := json.Marshal(got)
	if string(gotJS) != string(wantJS) {
		t.Fatalf("merged result differs from single-process run:\n got %d bytes\nwant %d bytes", len(gotJS), len(wantJS))
	}
}

// TestMergeShardsRejectsGaps pins the contiguity check.
func TestMergeShardsRejectsGaps(t *testing.T) {
	spec := Spec{UEs: 4, DurationSec: 1}
	if _, err := MergeShards(spec, []ShardSlice{{Offset: 1}}, nil, nil); err == nil {
		t.Fatal("MergeShards accepted a non-contiguous shard set")
	}
}
