package lazylist

import (
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	flock "flock/internal/core"
	"flock/internal/structures/settest"
)

func TestMoveBasics(t *testing.T) {
	rt := flock.New()
	p := rt.Register()
	defer p.Unregister()
	a, b := New(rt), New(rt)
	a.Insert(p, 5, 50)

	if !Move(p, a, b, 5) {
		t.Fatalf("move of present key failed")
	}
	if _, ok := a.Find(p, 5); ok {
		t.Fatalf("key still in src after move")
	}
	if v, ok := b.Find(p, 5); !ok || v != 50 {
		t.Fatalf("key not in dst after move: (%d,%v)", v, ok)
	}
	if Move(p, a, b, 5) {
		t.Fatalf("move of absent key succeeded")
	}
	a.Insert(p, 5, 99)
	if Move(p, a, b, 5) {
		t.Fatalf("move onto occupied dst key succeeded")
	}
	if v, _ := b.Find(p, 5); v != 50 {
		t.Fatalf("occupied dst value clobbered: %d", v)
	}
}

// TestMoveConservation is the headline invariant: tokens shuttled
// between two lists by concurrent movers are never duplicated or lost,
// in either lock mode.
func TestMoveConservation(t *testing.T) {
	for _, mode := range settest.Modes {
		t.Run(mode.Name, func(t *testing.T) {
			rt := flock.New()
			rt.SetBlocking(mode.Blocking)
			a, b := New(rt), New(rt)
			const tokens = 40
			init := rt.Register()
			for k := uint64(1); k <= tokens; k++ {
				a.Insert(init, k, k*7)
			}
			init.Unregister()

			const workers = 8
			var wg sync.WaitGroup
			for w := 0; w < workers; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					p := rt.Register()
					defer p.Unregister()
					rng := rand.New(rand.NewSource(int64(w)*31 + 5))
					for i := 0; i < 800; i++ {
						k := uint64(rng.Intn(tokens) + 1)
						// Movers run in both directions concurrently;
						// Move's internal (list id, key) lock ordering is
						// what keeps opposite-direction helping chains
						// acyclic (see move.go).
						if rng.Intn(2) == 0 {
							Move(p, a, b, k)
						} else {
							Move(p, b, a, k)
						}
					}
				}(w)
			}
			wg.Wait()

			p := rt.Register()
			defer p.Unregister()
			if err := a.CheckInvariants(p); err != nil {
				t.Fatal(err)
			}
			if err := b.CheckInvariants(p); err != nil {
				t.Fatal(err)
			}
			for k := uint64(1); k <= tokens; k++ {
				va, inA := a.Find(p, k)
				vb, inB := b.Find(p, k)
				if inA == inB {
					t.Fatalf("token %d: inA=%v inB=%v (duplicated or lost)", k, inA, inB)
				}
				v := va
				if inB {
					v = vb
				}
				if v != k*7 {
					t.Fatalf("token %d: value corrupted to %d", k, v)
				}
			}
		})
	}
}

// TestMoveHelpedPastStall verifies a stalled mover cannot strand a token:
// the transfer completes (via helping) while its owner sleeps.
func TestMoveHelpedPastStall(t *testing.T) {
	rt := flock.New()
	a, b := New(rt), New(rt)
	seed := rt.Register()
	a.Insert(seed, 7, 70)
	seed.Unregister()

	var stall atomic.Int32
	release := make(chan struct{})
	started := make(chan struct{})
	go func() {
		p := rt.Register()
		defer p.Unregister()
		// Hand-rolled stalling move: acquire the same locks Move takes,
		// then sleep inside (first run only).
		sPred, sCurr := a.locate(p, 7)
		dPred, _ := b.locate(p, 7)
		p.Begin()
		sPred.lck.TryLock(p, func(hp *flock.Proc) bool {
			return sCurr.lck.TryLock(hp, func(hp2 *flock.Proc) bool {
				return dPred.lck.TryLock(hp2, func(hp3 *flock.Proc) bool {
					if sPred.removed.Load(hp3) || sPred.next.Load(hp3) != sCurr {
						return false
					}
					sNext := sCurr.next.Load(hp3)
					sCurr.removed.Store(hp3, true)
					sPred.next.Store(hp3, sNext)
					// The logged load stays outside mk: a run that finds
					// Allocate's slot committed skips mk, so a load inside
					// it would shift that run's log positions.
					dNext := dPred.next.Load(hp3)
					moved := flock.Allocate(hp3, func() *node {
						nn := &node{k: 7, v: 70}
						nn.next.Init(dNext)
						return nn
					})
					dPred.next.Store(hp3, moved)
					if stall.CompareAndSwap(0, 1) {
						close(started)
						<-release
					}
					return true
				})
			})
		})
		p.End()
	}()
	<-started

	// While the mover sleeps holding all three locks, another worker
	// operating on list a must get through (by helping).
	p := rt.Register()
	defer p.Unregister()
	done := make(chan bool, 1)
	go func() {
		q := rt.Register()
		defer q.Unregister()
		done <- q != nil && a.Insert(q, 8, 80)
	}()
	select {
	case ok := <-done:
		if !ok {
			t.Fatalf("insert next to stalled move failed")
		}
	case <-time.After(20 * time.Second):
		t.Fatalf("insert blocked behind stalled move in lock-free mode")
	}
	// The token must have arrived exactly once.
	if _, ok := a.Find(p, 7); ok {
		t.Fatalf("token still in src")
	}
	if v, ok := b.Find(p, 7); !ok || v != 70 {
		t.Fatalf("token not delivered: (%d,%v)", v, ok)
	}
	close(release)
}
