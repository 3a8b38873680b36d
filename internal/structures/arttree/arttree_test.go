package arttree

import (
	"math/rand"
	"sort"
	"sync"
	"testing"

	flock "flock/internal/core"
	"flock/internal/structures/set"
	"flock/internal/structures/settest"
)

func factory(rt *flock.Runtime) set.Set { return New(rt) }

func TestSuite(t *testing.T) { settest.RunComposable(t, factory) }

func TestNodeGrowthThroughAllKinds(t *testing.T) {
	rt := flock.New()
	p := rt.Register()
	defer p.Unregister()
	tr := New(rt)
	// Keys 0x??00...: all branch at the same top byte, forcing one node
	// to grow 4 -> 16 -> 48 -> 256.
	for i := uint64(0); i < 256; i++ {
		k := i<<56 | 1
		if !tr.Insert(p, k, i) {
			t.Fatalf("insert %x", k)
		}
	}
	if err := tr.CheckInvariants(p); err != nil {
		t.Fatal(err)
	}
	root := tr.root.Load(p)
	if root.kind != k256 {
		t.Fatalf("root kind %d, want k256 after 256 branches", root.kind)
	}
	for i := uint64(0); i < 256; i++ {
		k := i<<56 | 1
		if v, ok := tr.Find(p, k); !ok || v != i {
			t.Fatalf("Find(%x) = (%d,%v)", k, v, ok)
		}
	}
}

func TestNodeShrinkThroughAllKinds(t *testing.T) {
	rt := flock.New()
	p := rt.Register()
	defer p.Unregister()
	tr := New(rt)
	for i := uint64(0); i < 256; i++ {
		tr.Insert(p, i<<56|1, i)
	}
	// Delete down through every shrink threshold.
	for i := uint64(2); i < 256; i++ {
		if !tr.Delete(p, i<<56|1) {
			t.Fatalf("delete %x", i<<56|1)
		}
		if i%16 == 0 {
			if err := tr.CheckInvariants(p); err != nil {
				t.Fatalf("after deleting %d: %v", i, err)
			}
		}
	}
	// Two keys remain; the node is a k4.
	root := tr.root.Load(p)
	if root.kind != k4 {
		t.Fatalf("root kind %d, want k4 with 2 children", root.kind)
	}
	// Deleting one of the two compresses the root to a leaf.
	if !tr.Delete(p, 0<<56|1) {
		t.Fatalf("penultimate delete failed")
	}
	root = tr.root.Load(p)
	if root == nil || !root.isLeaf() {
		t.Fatalf("root should be the surviving leaf")
	}
	if !tr.Delete(p, 1<<56|1) {
		t.Fatalf("final delete failed")
	}
	if tr.root.Load(p) != nil {
		t.Fatalf("tree not empty after final delete")
	}
}

func TestPathCompressionSplitAndMerge(t *testing.T) {
	rt := flock.New()
	p := rt.Register()
	defer p.Unregister()
	tr := New(rt)
	// Two keys sharing 6 bytes: deep shared prefix, one Node4.
	a := uint64(0x1122334455660001)
	b := uint64(0x1122334455660002)
	tr.Insert(p, a, 1)
	tr.Insert(p, b, 2)
	if err := tr.CheckInvariants(p); err != nil {
		t.Fatal(err)
	}
	root := tr.root.Load(p)
	if root.isLeaf() || len(root.prefix) != 7 {
		t.Fatalf("expected 7-byte compressed prefix, got %v", root.prefix)
	}
	// A key diverging at byte 2 splits the prefix.
	c := uint64(0x11FF334455660003)
	tr.Insert(p, c, 3)
	if err := tr.CheckInvariants(p); err != nil {
		t.Fatal(err)
	}
	root = tr.root.Load(p)
	if len(root.prefix) != 1 {
		t.Fatalf("expected 1-byte split prefix, got %v", root.prefix)
	}
	for _, kv := range []struct{ k, v uint64 }{{a, 1}, {b, 2}, {c, 3}} {
		if v, ok := tr.Find(p, kv.k); !ok || v != kv.v {
			t.Fatalf("Find(%x) = (%d,%v), want %d", kv.k, v, ok, kv.v)
		}
	}
	// Deleting the diverging key must merge the prefix back.
	if !tr.Delete(p, c) {
		t.Fatalf("delete diverging key")
	}
	if err := tr.CheckInvariants(p); err != nil {
		t.Fatal(err)
	}
	root = tr.root.Load(p)
	if len(root.prefix) != 7 {
		t.Fatalf("prefix not re-merged: %v", root.prefix)
	}
}

func TestSparseHashedKeys(t *testing.T) {
	// The paper sparsifies ART keys by hashing; emulate that profile.
	rt := flock.New()
	p := rt.Register()
	defer p.Unregister()
	tr := New(rt)
	rng := rand.New(rand.NewSource(31))
	keys := map[uint64]uint64{}
	for len(keys) < 2000 {
		k := rng.Uint64()
		if _, dup := keys[k]; dup || k == 0 {
			continue
		}
		keys[k] = uint64(len(keys))
		if !tr.Insert(p, k, keys[k]) {
			t.Fatalf("insert %x", k)
		}
	}
	if err := tr.CheckInvariants(p); err != nil {
		t.Fatal(err)
	}
	for k, v := range keys {
		if got, ok := tr.Find(p, k); !ok || got != v {
			t.Fatalf("Find(%x) = (%d,%v), want %d", k, got, ok, v)
		}
	}
	got := tr.Keys(p)
	if len(got) != len(keys) {
		t.Fatalf("Keys() returned %d, want %d", len(got), len(keys))
	}
	if !sort.SliceIsSorted(got, func(i, j int) bool { return got[i] < got[j] }) {
		t.Fatalf("radix order traversal not sorted")
	}
	for k := range keys {
		if !tr.Delete(p, k) {
			t.Fatalf("delete %x", k)
		}
	}
	if tr.root.Load(p) != nil {
		t.Fatalf("tree not empty")
	}
}

func TestDenseSequentialKeys(t *testing.T) {
	// Dense keys exercise deep structure and heavy path compression.
	rt := flock.New()
	p := rt.Register()
	defer p.Unregister()
	tr := New(rt)
	const n = 3000
	for k := uint64(1); k <= n; k++ {
		if !tr.Insert(p, k, k*3) {
			t.Fatalf("insert %d", k)
		}
	}
	if err := tr.CheckInvariants(p); err != nil {
		t.Fatal(err)
	}
	for k := uint64(1); k <= n; k++ {
		if v, ok := tr.Find(p, k); !ok || v != k*3 {
			t.Fatalf("Find(%d)=(%d,%v)", k, v, ok)
		}
	}
	for k := uint64(2); k <= n; k += 2 {
		if !tr.Delete(p, k) {
			t.Fatalf("delete %d", k)
		}
	}
	if err := tr.CheckInvariants(p); err != nil {
		t.Fatal(err)
	}
	for k := uint64(1); k <= n; k++ {
		_, ok := tr.Find(p, k)
		if want := k%2 == 1; ok != want {
			t.Fatalf("Find(%d) present=%v want %v", k, ok, want)
		}
	}
}

func TestConcurrentGrowShrinkStorm(t *testing.T) {
	for _, mode := range settest.Modes {
		t.Run(mode.Name, func(t *testing.T) {
			rt := flock.New()
			rt.SetBlocking(mode.Blocking)
			tr := New(rt)
			const workers = 8
			var wg sync.WaitGroup
			for w := 0; w < workers; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					p := rt.Register()
					defer p.Unregister()
					rng := rand.New(rand.NewSource(int64(w)*17 + 29))
					for i := 0; i < 1200; i++ {
						// Cluster keys on a shared top byte so node
						// grow/shrink and prefix ops collide.
						k := uint64(rng.Intn(6))<<56 | uint64(rng.Intn(40)+1)
						if rng.Intn(2) == 0 {
							tr.Insert(p, k, k)
						} else {
							tr.Delete(p, k)
						}
					}
				}(w)
			}
			wg.Wait()
			p := rt.Register()
			defer p.Unregister()
			if err := tr.CheckInvariants(p); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestFindZeroAlloc pins the packed-key read path's allocation budget
// in both runtime modes: Find on a tree whose root is a full Node16
// (the packed-key getChild path, one SWAR match over the image's two
// words) must not allocate.
func TestFindZeroAlloc(t *testing.T) {
	for _, m := range settest.Modes {
		t.Run(m.Name, func(t *testing.T) {
			rt := flock.New()
			rt.SetBlocking(m.Blocking)
			p := rt.Register()
			defer p.Unregister()
			tr := New(rt)
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
		})
	}
}
