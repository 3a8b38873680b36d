package leaftreap

import (
	"math/bits"
	"math/rand"
	"sync"
	"testing"

	flock "flock/internal/core"
	"flock/internal/structures/set"
	"flock/internal/structures/settest"
)

func factory(rt *flock.Runtime) set.Set { return New(rt) }

func TestSuite(t *testing.T) { settest.RunComposable(t, factory) }

func TestBlockSplitOnOverflow(t *testing.T) {
	rt := flock.New()
	p := rt.Register()
	defer p.Unregister()
	tr := New(rt)
	// Fill exactly one block, then overflow it.
	for k := uint64(1); k <= LeafCap; k++ {
		if !tr.Insert(p, k*10, k) {
			t.Fatalf("insert %d", k*10)
		}
	}
	if h := tr.Height(p); h != 0 {
		t.Fatalf("height %d before overflow, want 0 (single block)", h)
	}
	if !tr.Insert(p, 5, 99) {
		t.Fatalf("overflow insert failed")
	}
	if h := tr.Height(p); h != 1 {
		t.Fatalf("height %d after split, want 1", h)
	}
	if err := tr.CheckInvariants(p); err != nil {
		t.Fatal(err)
	}
	for k := uint64(1); k <= LeafCap; k++ {
		if v, ok := tr.Find(p, k*10); !ok || v != k {
			t.Fatalf("Find(%d) = (%d,%v) after split", k*10, v, ok)
		}
	}
	if v, ok := tr.Find(p, 5); !ok || v != 99 {
		t.Fatalf("Find(5) = (%d,%v)", v, ok)
	}
}

func TestExpectedLogHeightRandomInserts(t *testing.T) {
	rt := flock.New()
	p := rt.Register()
	defer p.Unregister()
	tr := New(rt)
	const n = 4096
	rng := rand.New(rand.NewSource(99))
	inserted := 0
	for inserted < n {
		k := uint64(rng.Int63n(1 << 40))
		if k == 0 {
			continue
		}
		if tr.Insert(p, k, k) {
			inserted++
		}
	}
	// ~n/LeafCap blocks; random-order median splits give expected
	// O(log(blocks)) height. Allow a generous constant.
	blocks := n / LeafCap
	bound := 4 * (bits.Len(uint(blocks)) + 1)
	if h := tr.Height(p); h > bound {
		t.Fatalf("height %d exceeds expected-log bound %d for %d random keys", h, bound, n)
	}
	if err := tr.CheckInvariants(p); err != nil {
		t.Fatal(err)
	}
}

func TestDrainToEmptyBlock(t *testing.T) {
	rt := flock.New()
	p := rt.Register()
	defer p.Unregister()
	tr := New(rt)
	keys := []uint64{3, 1, 4, 1, 5, 9, 2, 6, 8, 7, 10, 11, 12, 13, 14, 15, 16, 17}
	seen := map[uint64]bool{}
	for _, k := range keys {
		want := !seen[k]
		if tr.Insert(p, k, k) != want {
			t.Fatalf("insert %d: want %v", k, want)
		}
		seen[k] = true
	}
	for k := range seen {
		if !tr.Delete(p, k) {
			t.Fatalf("delete %d", k)
		}
	}
	if got := tr.Keys(p); len(got) != 0 {
		t.Fatalf("residual keys %v", got)
	}
	if err := tr.CheckInvariants(p); err != nil {
		t.Fatal(err)
	}
	// Reusable after draining.
	if !tr.Insert(p, 42, 1) {
		t.Fatalf("insert after drain failed")
	}
}

func TestSplicePreservesSiblingSubtree(t *testing.T) {
	rt := flock.New()
	p := rt.Register()
	defer p.Unregister()
	tr := New(rt)
	// Build enough structure for multi-level splices.
	for k := uint64(1); k <= 64; k++ {
		tr.Insert(p, k, k)
	}
	// Delete a contiguous range to force repeated splices.
	for k := uint64(1); k <= 32; k++ {
		if !tr.Delete(p, k) {
			t.Fatalf("delete %d", k)
		}
	}
	if err := tr.CheckInvariants(p); err != nil {
		t.Fatal(err)
	}
	for k := uint64(33); k <= 64; k++ {
		if _, ok := tr.Find(p, k); !ok {
			t.Fatalf("surviving key %d lost", k)
		}
	}
}

func TestConcurrentSplitsAndSplices(t *testing.T) {
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
					rng := rand.New(rand.NewSource(int64(w)*13 + 3))
					for i := 0; i < 1500; i++ {
						k := uint64(rng.Intn(100) + 1)
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
