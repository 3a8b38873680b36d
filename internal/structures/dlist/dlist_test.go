package dlist

import (
	"math"
	"math/rand"
	"sync"
	"testing"

	flock "flock/internal/core"
	"flock/internal/structures/set"
	"flock/internal/structures/settest"
)

func factory(rt *flock.Runtime) set.Set { return New(rt) }

func TestSuite(t *testing.T) { settest.RunComposable(t, factory) }

func TestPrevPointersMirrorNext(t *testing.T) {
	rt := flock.New()
	p := rt.Register()
	defer p.Unregister()
	l := New(rt)
	for _, k := range []uint64{4, 2, 9, 1, 7} {
		l.Insert(p, k, k)
	}
	if err := l.CheckInvariants(p); err != nil {
		t.Fatal(err)
	}
	l.Delete(p, 2)
	l.Delete(p, 9)
	if err := l.CheckInvariants(p); err != nil {
		t.Fatal(err)
	}
	keys := l.Keys(p)
	want := []uint64{1, 4, 7}
	if len(keys) != len(want) {
		t.Fatalf("keys = %v, want %v", keys, want)
	}
	for i := range want {
		if keys[i] != want[i] {
			t.Fatalf("keys = %v, want %v", keys, want)
		}
	}
}

// TestBidirectionalIntegrityUnderContention runs concurrent updates on a
// hot range in both modes and then checks that the prev chain exactly
// mirrors the next chain — the property that needs lines 48-49 (and 31-32)
// of Algorithm 1 to execute atomically.
func TestBidirectionalIntegrityUnderContention(t *testing.T) {
	for _, mode := range settest.Modes {
		t.Run(mode.Name, func(t *testing.T) {
			rt := flock.New()
			rt.SetBlocking(mode.Blocking)
			l := New(rt)
			const workers = 8
			const opsPer = 1200
			var wg sync.WaitGroup
			for w := 0; w < workers; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					p := rt.Register()
					defer p.Unregister()
					rng := rand.New(rand.NewSource(int64(w)*37 + 1))
					for i := 0; i < opsPer; i++ {
						k := uint64(rng.Intn(16) + 1)
						if rng.Intn(2) == 0 {
							l.Insert(p, k, uint64(w))
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

func TestInsertAtBothEnds(t *testing.T) {
	rt := flock.New()
	p := rt.Register()
	defer p.Unregister()
	l := New(rt)
	l.Insert(p, 100, 1)
	l.Insert(p, 1, 2)            // new head
	l.Insert(p, ^uint64(0)-1, 3) // new tail
	if err := l.CheckInvariants(p); err != nil {
		t.Fatal(err)
	}
	keys := l.Keys(p)
	if len(keys) != 3 || keys[0] != 1 || keys[2] != ^uint64(0)-1 {
		t.Fatalf("keys = %v", keys)
	}
}

func TestDeleteOnlyElement(t *testing.T) {
	rt := flock.New()
	p := rt.Register()
	defer p.Unregister()
	l := New(rt)
	l.Insert(p, 5, 50)
	if !l.Delete(p, 5) {
		t.Fatalf("delete failed")
	}
	if len(l.Keys(p)) != 0 {
		t.Fatalf("list not empty")
	}
	if err := l.CheckInvariants(p); err != nil {
		t.Fatal(err)
	}
}

// TestScanAgreesWithFindMidDelete pins the state between a delete's two
// steps — the victim flagged removed but not yet spliced out — in which
// Find and Insert still see the key: a scan must report it too, or a
// scan could call the key absent before a later Find sees it present.
func TestScanAgreesWithFindMidDelete(t *testing.T) {
	rt := flock.New()
	p := rt.Register()
	defer p.Unregister()
	l := New(rt)
	for _, k := range []uint64{1, 2, 3} {
		l.Insert(p, k, k*10)
	}
	l.findLink(p, 2).removed.Store(p, true) // a delete paused before its splice
	if v, ok := l.Find(p, 2); !ok || v != 20 {
		t.Fatalf("Find(2) = (%d,%v), want (20,true)", v, ok)
	}
	got := l.Scan(p, 0, math.MaxUint64, -1, nil)
	want := []set.KV{{Key: 1, Value: 10}, {Key: 2, Value: 20}, {Key: 3, Value: 30}}
	if len(got) != len(want) {
		t.Fatalf("Scan = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Scan = %v, want %v", got, want)
		}
	}
}
