package cluster

import (
	"context"
	"encoding/json"
	"testing"

	"rem/internal/fleet"
)

// fuzzSpec is a small transport- and fault-armed, admission-coupled
// spec, so a real finish response carries every outcome field.
func fuzzSpec() fleet.Spec {
	spec := transportCoupledSpec()
	spec.UEs = 8
	return spec.Defaulted()
}

// finishBodies runs spec as n shard engines in lockstep under
// coordinator-style global loads and returns each shard's encoded
// finish response plus the global peak and final loads.
func finishBodies(t testing.TB, spec fleet.Spec, n int) (bodies [][]byte, peaks, finals []int) {
	t.Helper()
	ranges := PartitionUEs(spec.UEs, n)
	engines := make([]*fleet.Engine, n)
	for i, rg := range ranges {
		ss := spec
		ss.UEOffset, ss.UEs = rg.Offset, rg.UEs
		eng, err := fleet.NewEngine(context.Background(), ss, fleet.Options{})
		if err != nil {
			t.Fatal(err)
		}
		engines[i] = eng
	}
	global := func() []int {
		var sum []int
		for _, eng := range engines {
			l := eng.Loads()
			if sum == nil {
				sum = l
				continue
			}
			for c := range l {
				sum[c] += l[c]
			}
		}
		return sum
	}
	finals = global()
	peaks = append([]int(nil), finals...)
	for done := false; !done; {
		for _, eng := range engines {
			if err := eng.SetLoads(finals); err != nil {
				t.Fatal(err)
			}
			d, err := eng.StepEpoch(context.Background())
			if err != nil {
				t.Fatal(err)
			}
			done = d
		}
		finals = global()
		maxLoads(peaks, finals)
	}
	for _, eng := range engines {
		sh := eng.FinishShard()
		b, err := json.Marshal(finishResponse{UEs: sh.Outcomes, Blocked: sh.Blocked, Cells: sh.Cells})
		if err != nil {
			t.Fatal(err)
		}
		bodies = append(bodies, b)
	}
	return bodies, peaks, finals
}

// FuzzMergeFinishResponse feeds arbitrary bytes as the two members'
// finish-response bodies through the coordinator's decode and merge:
// whatever arrives, the merge returns an error or a result, never
// panics. The seed is a real 2-shard run's responses, which must merge.
func FuzzMergeFinishResponse(f *testing.F) {
	spec := fuzzSpec()
	bodies, peaks, finals := finishBodies(f, spec, 2)
	ranges := PartitionUEs(spec.UEs, 2)
	merge := func(raw0, raw1 []byte) (*fleet.Result, error) {
		slices := make([]fleet.ShardSlice, 2)
		for i, raw := range [][]byte{raw0, raw1} {
			var fr finishResponse
			if err := json.Unmarshal(raw, &fr); err != nil {
				return nil, err
			}
			slices[i] = fleet.ShardSlice{Offset: ranges[i].Offset, Outcomes: fr.UEs, Blocked: fr.Blocked, Cells: fr.Cells}
		}
		return fleet.MergeShards(spec, slices, peaks, finals)
	}
	if _, err := merge(bodies[0], bodies[1]); err != nil {
		f.Fatalf("real finish responses do not merge: %v", err)
	}
	f.Add(bodies[0], bodies[1])
	f.Add(bodies[1], bodies[0])
	f.Fuzz(func(t *testing.T, raw0, raw1 []byte) {
		res, err := merge(raw0, raw1)
		if err == nil && res == nil {
			t.Fatal("merge returned neither a result nor an error")
		}
	})
}
