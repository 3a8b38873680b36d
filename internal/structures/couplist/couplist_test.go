package couplist

import (
	"math/rand"
	"sync"
	"testing"

	flock "flock/internal/core"
	"flock/internal/structures/set"
	"flock/internal/structures/settest"
)

func factory(rt *flock.Runtime) set.Set { return New(rt) }

func TestSuite(t *testing.T) { settest.RunComposable(t, factory) }

func TestNoLockLeaksAfterOps(t *testing.T) {
	rt := flock.New()
	p := rt.Register()
	defer p.Unregister()
	l := New(rt)
	for _, k := range []uint64{5, 1, 9, 3, 7} {
		if !l.Insert(p, k, k) {
			t.Fatalf("insert %d", k)
		}
	}
	l.Insert(p, 5, 0) // duplicate path also releases every coupled lock
	l.Delete(p, 3)
	l.Delete(p, 100) // absent path
	if err := l.CheckInvariants(p); err != nil {
		t.Fatal(err)
	}
}

func TestCoupledDescentDeepList(t *testing.T) {
	// A long list: the coupled descent nests hundreds of lock thunks.
	rt := flock.New()
	p := rt.Register()
	defer p.Unregister()
	l := New(rt)
	const n = 600
	for k := uint64(1); k <= n; k++ {
		if !l.Insert(p, k, k) {
			t.Fatalf("insert %d", k)
		}
	}
	// Touch the far end: maximal coupling depth.
	if v, ok := l.Find(p, n); !ok || v != n {
		t.Fatalf("find tail: (%d,%v)", v, ok)
	}
	if !l.Delete(p, n) {
		t.Fatalf("delete tail")
	}
	if !l.Insert(p, n+1, 1) {
		t.Fatalf("insert past tail")
	}
	if err := l.CheckInvariants(p); err != nil {
		t.Fatal(err)
	}
}

func TestConcurrentCouplingNoLeaks(t *testing.T) {
	for _, mode := range settest.Modes {
		t.Run(mode.Name, func(t *testing.T) {
			rt := flock.New()
			rt.SetBlocking(mode.Blocking)
			l := New(rt)
			const workers = 8
			var wg sync.WaitGroup
			for w := 0; w < workers; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					p := rt.Register()
					defer p.Unregister()
					rng := rand.New(rand.NewSource(int64(w)*3 + 7))
					for i := 0; i < 600; i++ {
						k := uint64(rng.Intn(20) + 1)
						if rng.Intn(2) == 0 {
							l.Insert(p, k, k)
						} else {
							l.Delete(p, k)
						}
					}
				}(w)
			}
			wg.Wait()
			p := rt.Register()
			defer p.Unregister()
			if err := l.CheckInvariants(p); err != nil {
				t.Fatal(err)
			}
		})
	}
}
