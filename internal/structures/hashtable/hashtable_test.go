package hashtable

import (
	"math/rand"
	"sync"
	"testing"

	flock "flock/internal/core"
	"flock/internal/structures/set"
	"flock/internal/structures/settest"
)

func factory(rt *flock.Runtime) set.Set { return New(rt, 64) }

func TestSuite(t *testing.T) { settest.RunComposable(t, factory) }

func TestSingleBucketDegenerate(t *testing.T) {
	// One bucket: the table degenerates to a sorted list; all collision
	// paths are exercised.
	rt := flock.New()
	p := rt.Register()
	defer p.Unregister()
	tb := New(rt, 1)
	for k := uint64(1); k <= 50; k++ {
		if !tb.Insert(p, k, k) {
			t.Fatalf("insert %d failed", k)
		}
	}
	if tb.Size(p) != 50 {
		t.Fatalf("size = %d", tb.Size(p))
	}
	if err := tb.CheckInvariants(p); err != nil {
		t.Fatal(err)
	}
	for k := uint64(1); k <= 50; k += 2 {
		if !tb.Delete(p, k) {
			t.Fatalf("delete %d failed", k)
		}
	}
	if tb.Size(p) != 25 {
		t.Fatalf("size after deletes = %d", tb.Size(p))
	}
	if err := tb.CheckInvariants(p); err != nil {
		t.Fatal(err)
	}
}

func TestBucketRounding(t *testing.T) {
	rt := flock.New()
	for _, want := range []struct{ in, n int }{{1, 1}, {2, 2}, {3, 4}, {63, 64}, {64, 64}, {65, 128}} {
		tb := New(rt, want.in)
		if len(tb.buckets) != want.n {
			t.Fatalf("New(%d) made %d buckets, want %d", want.in, len(tb.buckets), want.n)
		}
	}
}

func TestConcurrentChainIntegrity(t *testing.T) {
	for _, mode := range settest.Modes {
		t.Run(mode.Name, func(t *testing.T) {
			rt := flock.New()
			rt.SetBlocking(mode.Blocking)
			tb := New(rt, 4) // few buckets => heavy chain contention
			const workers = 8
			var wg sync.WaitGroup
			for w := 0; w < workers; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					p := rt.Register()
					defer p.Unregister()
					rng := rand.New(rand.NewSource(int64(w) + 5))
					for i := 0; i < 1000; i++ {
						k := uint64(rng.Intn(40) + 1)
						if rng.Intn(2) == 0 {
							tb.Insert(p, k, k)
						} else {
							tb.Delete(p, k)
						}
					}
				}(w)
			}
			wg.Wait()
			p := rt.Register()
			defer p.Unregister()
			if err := tb.CheckInvariants(p); err != nil {
				t.Fatal(err)
			}
		})
	}
}
