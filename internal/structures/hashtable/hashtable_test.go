package hashtable

import (
	"fmt"
	"maps"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"

	flock "flock/internal/core"
	"flock/internal/obs"
	"flock/internal/obs/trace"
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

// withObsTrace runs f once with obs and the flight recorder off and once
// with both on.
func withObsTrace(t *testing.T, f func(t *testing.T)) {
	for _, on := range []bool{false, true} {
		t.Run(fmt.Sprintf("obs-trace=%v", on), func(t *testing.T) {
			prevObs, prevTrace := obs.Enabled(), trace.Enabled()
			obs.SetEnabled(on)
			trace.SetEnabled(on)
			defer func() {
				obs.SetEnabled(prevObs)
				trace.SetEnabled(prevTrace)
			}()
			f(t)
		})
	}
}

// TestAllocsUpsertPresentKey pins an Upsert of a present key at one
// allocation, the new value's box, in both modes: its critical section
// runs on a recycled op whose thunk was bound when the op was first
// made, and the descriptor comes from the pool.
func TestAllocsUpsertPresentKey(t *testing.T) {
	withObsTrace(t, func(t *testing.T) {
		for _, mode := range settest.Modes {
			rt := flock.New()
			rt.SetBlocking(mode.Blocking)
			p := rt.Register()
			tb := New(rt, 64)
			for k := uint64(1); k <= 64; k++ {
				tb.Insert(p, k, k)
			}
			f := func(old uint64, _ bool) uint64 { return old + 1 }
			op := func() { tb.Upsert(p, 17, f) }
			for i := 0; i < 2000; i++ {
				op()
			}
			if n := testing.AllocsPerRun(500, op); n != 1 {
				t.Errorf("%s: Upsert of a present key allocates %v per op, want 1 (the value box)", mode.Name, n)
			}
			if v, ok := tb.Find(p, 17); !ok || v != 17+2000+501 {
				t.Errorf("%s: Find(17) = (%d,%v) after the upserts", mode.Name, v, ok)
			}
			p.Unregister()
		}
	})
}

// TestAllocsInsertDelete pins an Insert and Delete cycle at what its
// writes need, in both modes: the node, its value and next boxes and
// the predecessor's next box on insert; the removed flag's box and the
// predecessor's next box on delete. No critical section builds a
// closure.
func TestAllocsInsertDelete(t *testing.T) {
	withObsTrace(t, func(t *testing.T) {
		for _, mode := range settest.Modes {
			rt := flock.New()
			rt.SetBlocking(mode.Blocking)
			p := rt.Register()
			tb := New(rt, 64)
			for k := uint64(2); k <= 128; k += 2 {
				tb.Insert(p, k, k)
			}
			cycle := func() {
				if !tb.Insert(p, 33, 33) || !tb.Delete(p, 33) {
					t.Fatal("insert or delete of key 33 failed")
				}
			}
			for i := 0; i < 2000; i++ {
				cycle()
			}
			if n := testing.AllocsPerRun(500, cycle); n != 6 {
				t.Errorf("%s: Insert+Delete allocates %v per cycle, want 6 (node and five boxes)", mode.Name, n)
			}
			p.Unregister()
		}
	})
}

// TestStragglerBlocksRecycling parks a helper inside a committed
// Upsert's critical section (Lock.Help on the node's lock, while the
// owner is still inside it) and meanwhile has the owner run a hundred
// more Upserts. The helper's announcement is lowered to the birth epoch
// of the descriptor it replays, which is at most the stamp of every op
// and descriptor the owner parks from then on, so none may be handed out
// again while it is parked: no Upsert in the window reuses a record
// (obs.PoolHits). When the helper resumes, its replay changes no value,
// and once it is gone the owner recycles again.
func TestStragglerBlocksRecycling(t *testing.T) {
	prev := obs.Enabled()
	obs.SetEnabled(true)
	defer obs.SetEnabled(prev)
	rt := flock.New()
	tb := New(rt, 64)
	const keys = 8
	setup := rt.Register()
	for k := uint64(1); k <= keys; k++ {
		tb.Insert(setup, k, 100)
	}
	setup.Unregister()

	ownerIn, helperIn := make(chan struct{}), make(chan struct{})
	ownerGo, helperGo := make(chan struct{}), make(chan struct{})
	var runs atomic.Int32
	parked := func(old uint64, _ bool) uint64 {
		switch runs.Add(1) {
		case 1:
			close(ownerIn)
			<-ownerGo
		case 2:
			close(helperIn)
			<-helperGo
		}
		return old + 1
	}
	incr := func(old uint64, _ bool) uint64 { return old + 1 }

	p := rt.Register() // the owner: its recycler starts empty
	defer p.Unregister()
	ownerDone := make(chan uint64)
	go func() {
		old, _ := tb.Upsert(p, 1, parked)
		ownerDone <- old
	}()
	<-ownerIn
	helperDone := make(chan struct{})
	go func() {
		hp := rt.Register()
		defer hp.Unregister()
		hp.Begin()
		_, curr := tb.locate(hp, 1)
		hp.End()
		curr.lck.Help(hp) // finds the owner's descriptor and runs its section
		close(helperDone)
	}()
	<-helperIn
	close(ownerGo)
	if old := <-ownerDone; old != 100 {
		t.Fatalf("owner's Upsert replaced %d, want 100", old)
	}

	const window = 100
	s0 := obs.Snapshot()
	for i := 0; i < window; i++ {
		tb.Upsert(p, uint64(i%keys)+1, incr)
	}
	if h := obs.Snapshot().Sub(s0).Get(obs.PoolHits); h != 0 {
		t.Fatalf("%d records reused over %d Upserts with a straggler parked, want 0", h, window)
	}
	before := contents(tb, p)

	close(helperGo)
	<-helperDone
	if runs.Load() != 2 {
		t.Fatalf("the parked section ran %d times, want 2 (owner and straggler)", runs.Load())
	}
	if after := contents(tb, p); !maps.Equal(after, before) {
		t.Fatalf("straggler replay changed the table: %v -> %v", before, after)
	}
	var sum uint64
	for _, v := range before {
		sum += v
	}
	if want := uint64(100*keys + 1 + window); sum != want {
		t.Fatalf("values sum to %d, want %d", sum, want)
	}

	// Once the straggler is gone the epoch moves on and the parked
	// records ripen; after a short warm-up every Upsert reuses its op and
	// its descriptor.
	for i := 0; i < 2*window; i++ {
		tb.Upsert(p, uint64(i%keys)+1, incr)
	}
	s1 := obs.Snapshot()
	for i := 0; i < window; i++ {
		tb.Upsert(p, uint64(i%keys)+1, incr)
	}
	if m := obs.Snapshot().Sub(s1).Get(obs.PoolMisses); m != 0 {
		t.Fatalf("%d fresh records over %d Upserts after the straggler left, want 0", m, window)
	}
}

// contents reads every pair in the table (single-threaded use).
func contents(tb *Table, p *flock.Proc) map[uint64]uint64 {
	out := map[uint64]uint64{}
	for _, kv := range tb.Scan(p, 0, ^uint64(0), -1, nil) {
		out[kv.Key] = kv.Value
	}
	return out
}
