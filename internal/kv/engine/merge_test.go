package engine_test

import (
	"testing"

	"flock/internal/kv/engine"
	"flock/internal/structures/set"
)

// runs builds n sorted runs over the keys 1..n*per, dealt round-robin.
func runs(n, per int) [][]set.KV {
	parts := make([][]set.KV, n)
	for k := 1; k <= n*per; k++ {
		parts[k%n] = append(parts[k%n], set.KV{Key: uint64(k), Value: uint64(k) * 2})
	}
	return parts
}

// TestMergeRunsNeverAliases pins that the result is the caller's own,
// the single-run fast path included: writing into it leaves the runs
// as they were.
func TestMergeRunsNeverAliases(t *testing.T) {
	for _, parts := range [][][]set.KV{
		runs(1, 6),                     // one run
		{nil, runs(1, 6)[0], nil, nil}, // one non-empty run among four
		runs(4, 6),                     // a real merge
	} {
		got := engine.MergeRuns(parts, -1)
		for i := range got {
			got[i] = set.KV{}
		}
		for _, r := range parts {
			for _, kv := range r {
				if kv.Key == 0 || kv.Value != kv.Key*2 {
					t.Fatalf("writing into the merged result changed a run: %v", r)
				}
			}
		}
	}
}

// TestAllocsMergeRuns pins the merge of up to 8 runs at one allocation,
// its result: the per-run cursors stay on the stack.
func TestAllocsMergeRuns(t *testing.T) {
	parts := runs(8, 4)
	if n := testing.AllocsPerRun(200, func() { engine.MergeRuns(parts, 16) }); n != 1 {
		t.Fatalf("MergeRuns of 8 runs allocates %v per op, want 1", n)
	}
}
