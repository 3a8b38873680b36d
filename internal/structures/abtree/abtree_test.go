package abtree

import (
	"math/rand"
	"sort"
	"sync"
	"testing"
	"testing/quick"

	flock "flock/internal/core"
	"flock/internal/structures/set"
	"flock/internal/structures/settest"
)

func factory(rt *flock.Runtime) set.Set { return New(rt) }

func TestSuite(t *testing.T) { settest.RunComposable(t, factory) }

func TestRootLeafGrowsAndSplits(t *testing.T) {
	rt := flock.New()
	p := rt.Register()
	defer p.Unregister()
	tr := New(rt)
	for k := uint64(1); k <= B; k++ {
		if !tr.Insert(p, k, k) {
			t.Fatalf("insert %d", k)
		}
	}
	if h := tr.Height(p); h != 0 {
		t.Fatalf("height %d with %d keys, want 0", h, B)
	}
	if !tr.Insert(p, B+1, B+1) {
		t.Fatalf("overflow insert failed")
	}
	if h := tr.Height(p); h != 1 {
		t.Fatalf("height %d after root split, want 1", h)
	}
	if err := tr.CheckInvariants(p); err != nil {
		t.Fatal(err)
	}
	for k := uint64(1); k <= B+1; k++ {
		if v, ok := tr.Find(p, k); !ok || v != k {
			t.Fatalf("Find(%d)=(%d,%v)", k, v, ok)
		}
	}
}

func TestDeepTreeOccupancyInvariants(t *testing.T) {
	rt := flock.New()
	p := rt.Register()
	defer p.Unregister()
	tr := New(rt)
	const n = 5000
	rng := rand.New(rand.NewSource(5))
	perm := rng.Perm(n)
	for _, i := range perm {
		tr.Insert(p, uint64(i)+1, uint64(i))
	}
	if err := tr.CheckInvariants(p); err != nil {
		t.Fatal(err)
	}
	if h := tr.Height(p); h < 2 {
		t.Fatalf("tree suspiciously shallow: height %d for %d keys", h, n)
	}
	got := tr.Keys(p)
	if len(got) != n {
		t.Fatalf("%d keys, want %d", len(got), n)
	}
	if !sort.SliceIsSorted(got, func(i, j int) bool { return got[i] < got[j] }) {
		t.Fatalf("keys not sorted")
	}
}

func TestDeleteDrainsWithMergesAndCollapse(t *testing.T) {
	rt := flock.New()
	p := rt.Register()
	defer p.Unregister()
	tr := New(rt)
	const n = 3000
	for k := uint64(1); k <= n; k++ {
		tr.Insert(p, k, k)
	}
	rng := rand.New(rand.NewSource(6))
	order := rng.Perm(n)
	for idx, i := range order {
		if !tr.Delete(p, uint64(i)+1) {
			t.Fatalf("delete %d failed", i+1)
		}
		if idx%500 == 0 {
			if err := tr.CheckInvariants(p); err != nil {
				t.Fatalf("after %d deletes: %v", idx+1, err)
			}
		}
	}
	if got := tr.Keys(p); len(got) != 0 {
		t.Fatalf("%d residual keys", len(got))
	}
	if h := tr.Height(p); h != 0 {
		t.Fatalf("height %d after drain, want 0 (collapsed to root leaf)", h)
	}
	if err := tr.CheckInvariants(p); err != nil {
		t.Fatal(err)
	}
}

func TestQuickInvariantPreservation(t *testing.T) {
	cfg := &quick.Config{MaxCount: 20, Rand: rand.New(rand.NewSource(17))}
	prop := func(ops []uint16) bool {
		rt := flock.New()
		p := rt.Register()
		defer p.Unregister()
		tr := New(rt)
		for _, o := range ops {
			k := uint64(o%quickKeyRange) + 1
			if o&0x8000 != 0 {
				tr.Insert(p, k, k)
			} else {
				tr.Delete(p, k)
			}
		}
		return tr.CheckInvariants(p) == nil
	}
	if err := quick.Check(prop, cfg); err != nil {
		t.Fatal(err)
	}
}

const quickKeyRange = 97 // key range for the quick test

func TestConcurrentStructuralStorm(t *testing.T) {
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
					rng := rand.New(rand.NewSource(int64(w)*7 + 11))
					for i := 0; i < 1200; i++ {
						k := uint64(rng.Intn(300) + 1)
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
