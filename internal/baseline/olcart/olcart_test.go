package olcart

import (
	"math/rand"
	"sort"
	"sync"
	"testing"

	flock "flock/internal/core"
	"flock/internal/structures/set"
	"flock/internal/structures/settest"
)

// TestSuite runs the repository-wide conformance suite: sequential
// differential testing, property-based programs, disjoint partitions,
// contended and oversubscribed stress, and lincheck linearizability
// histories (with and without stall injection), in both runtime modes
// (the modes only affect flock structures; this baseline ignores them).
func TestSuite(t *testing.T) {
	settest.Run(t, func(rt *flock.Runtime) set.Set { return New() })
}

// TestPessimisticReads forces every Find through the lock-coupled
// fallback path by zeroing the optimistic restart budget.
func TestPessimisticReads(t *testing.T) {
	old := maxOptimistic
	maxOptimistic = 0
	defer func() { maxOptimistic = old }()
	settest.Run(t, func(rt *flock.Runtime) set.Set { return New() })
}

func TestSortedKeysAfterMixedOps(t *testing.T) {
	tr := New()
	var p *flock.Proc
	rng := rand.New(rand.NewSource(3))
	model := map[uint64]bool{}
	for i := 0; i < 3000; i++ {
		k := uint64(rng.Intn(400) + 1)
		if rng.Intn(2) == 0 {
			if tr.Insert(p, k, k) != !model[k] {
				t.Fatalf("insert %d inconsistent", k)
			}
			model[k] = true
		} else {
			if tr.Delete(p, k) != model[k] {
				t.Fatalf("delete %d inconsistent", k)
			}
			delete(model, k)
		}
		if i%500 == 0 {
			if err := tr.CheckInvariants(p); err != nil {
				t.Fatalf("op %d: %v", i, err)
			}
		}
	}
	if err := tr.CheckInvariants(p); err != nil {
		t.Fatal(err)
	}
	got := tr.Keys(p)
	if !sort.SliceIsSorted(got, func(i, j int) bool { return got[i] < got[j] }) {
		t.Fatalf("keys not sorted: %v", got)
	}
	if len(got) != len(model) {
		t.Fatalf("%d keys, model has %d", len(got), len(model))
	}
	for _, k := range got {
		if !model[k] {
			t.Fatalf("stray key %d", k)
		}
	}
}

// TestGrowShrinkLifecycle walks one branch-byte level through every
// node kind (4 -> 16 -> 48 -> 256) and back down, checking invariants
// at each transition boundary.
func TestGrowShrinkLifecycle(t *testing.T) {
	tr := New()
	var p *flock.Proc
	// Keys 0x100..0x1FF share bytes 0..6 except byte 6 = 1, so they all
	// land under one inner node branching on the last byte.
	base := uint64(0x100)
	for n := 1; n <= 256; n++ {
		if !tr.Insert(p, base+uint64(n-1), uint64(n)) {
			t.Fatalf("insert %d failed", n)
		}
		if n == 4 || n == 5 || n == 16 || n == 17 || n == 48 || n == 49 || n == 256 {
			if err := tr.CheckInvariants(p); err != nil {
				t.Fatalf("after %d inserts: %v", n, err)
			}
		}
	}
	for n := 256; n >= 1; n-- {
		if !tr.Delete(p, base+uint64(n-1)) {
			t.Fatalf("delete %d failed", n)
		}
		if n == 41 || n == 13 || n == 4 || n == 2 || n == 1 {
			if err := tr.CheckInvariants(p); err != nil {
				t.Fatalf("after deleting down to %d: %v", n-1, err)
			}
		}
	}
	if got := tr.Keys(p); len(got) != 0 {
		t.Fatalf("%d keys remain", len(got))
	}
}

// TestPrefixSplitAndMerge exercises path compression: keys that share
// long prefixes force splits on insert and merges on delete.
func TestPrefixSplitAndMerge(t *testing.T) {
	tr := New()
	var p *flock.Proc
	keys := []uint64{
		0x0102030405060708,
		0x0102030405060709, // splits the last byte
		0x01020304FF060708, // splits mid-prefix
		0x0102FF0405060708, // splits early
		0x0102030405FF0708,
	}
	for i, k := range keys {
		if !tr.Insert(p, k, k) {
			t.Fatalf("insert #%d failed", i)
		}
		if err := tr.CheckInvariants(p); err != nil {
			t.Fatalf("after insert #%d: %v", i, err)
		}
	}
	for _, k := range keys {
		if v, ok := tr.Find(p, k); !ok || v != k {
			t.Fatalf("Find(%#x) = (%#x,%v)", k, v, ok)
		}
	}
	// Delete in an order that forces sibling promotion of inner nodes.
	for i, k := range keys {
		if !tr.Delete(p, k) {
			t.Fatalf("delete #%d failed", i)
		}
		if err := tr.CheckInvariants(p); err != nil {
			t.Fatalf("after delete #%d: %v", i, err)
		}
	}
	if got := tr.Keys(p); len(got) != 0 {
		t.Fatalf("%d keys remain", len(got))
	}
}

func TestConcurrentDeleteStorm(t *testing.T) {
	// Concurrent deletes of neighboring leaves exercise shrink and
	// path-compression merges under contention.
	tr := New()
	var p *flock.Proc
	const n = 512
	for k := uint64(1); k <= n; k++ {
		tr.Insert(p, k, k)
	}
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			var p *flock.Proc
			for k := uint64(1 + w); k <= n; k += 8 {
				if !tr.Delete(p, k) {
					t.Errorf("delete %d failed (disjoint keys)", k)
				}
			}
		}(w)
	}
	wg.Wait()
	if got := tr.Keys(p); len(got) != 0 {
		t.Fatalf("%d keys remain", len(got))
	}
	if err := tr.CheckInvariants(p); err != nil {
		t.Fatal(err)
	}
	// Tree still functional.
	if !tr.Insert(p, 7, 7) {
		t.Fatalf("post-storm insert failed")
	}
}

// TestFindZeroAlloc pins the packed-key read path's allocation budget:
// Find on a tree whose root is a full Node16 (the packed-key getChild
// path, one SWAR match over pkLo/pkHi) must not allocate.
func TestFindZeroAlloc(t *testing.T) {
	tr := New()
	var p *flock.Proc
	for b := uint64(0); b < 16; b++ {
		for j := uint64(1); j <= 4; j++ {
			if !tr.Insert(p, b<<56|j, j) {
				t.Fatalf("prefill insert failed")
			}
		}
	}
	var sink uint64
	if n := testing.AllocsPerRun(1000, func() {
		v, ok := tr.Find(p, 9<<56|2)
		if !ok {
			t.Fatal("key missing")
		}
		sink += v
	}); n != 0 {
		t.Errorf("Find: %v allocs/op, want 0", n)
	}
	_ = sink
}
