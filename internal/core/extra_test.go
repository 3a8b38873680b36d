package flock

import (
	"sync"
	"sync/atomic"
	"testing"
	"testing/quick"
)

// TestDeepNestingChain takes five locks in a strict chain inside one
// top-level tryLock and verifies all protected effects apply exactly
// once under concurrent replay pressure.
func TestDeepNestingChain(t *testing.T) {
	rt := New()
	const depth = 5
	var locks [depth]Lock
	var cells [depth]Mutable[uint64]

	var chain func(i int) Thunk
	chain = func(i int) Thunk {
		return func(hp *Proc) bool {
			v := cells[i].Load(hp)
			cells[i].Store(hp, v+1)
			if i+1 == depth {
				return true
			}
			return locks[i+1].TryLock(hp, chain(i+1))
		}
	}

	const workers = 6
	const per = 150
	var succ atomic.Uint64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			p := rt.Register()
			defer p.Unregister()
			for i := 0; i < per; i++ {
				for {
					p.Begin()
					ok := locks[0].TryLock(p, chain(0))
					p.End()
					if ok {
						succ.Add(1)
						break
					}
				}
			}
		}()
	}
	wg.Wait()

	probe := rt.Register()
	defer probe.Unregister()
	want := succ.Load()
	if want != workers*per {
		t.Fatalf("successes %d, want %d", want, workers*per)
	}
	for i := 0; i < depth; i++ {
		if got := cells[i].Load(probe); got != want {
			t.Fatalf("cell %d = %d, want %d (effects not exactly-once at depth %d)", i, got, want, i)
		}
	}
}

// TestNestedTryLockFailurePropagates: a failed inner try-lock makes the
// outer thunk return false without applying later effects, consistently
// across all runs.
func TestNestedTryLockFailurePropagates(t *testing.T) {
	rt := New()
	var outer, inner Lock
	var applied Mutable[uint64]

	// Hold the inner lock via a stalled acquisition.
	var stall atomic.Int32
	release := make(chan struct{})
	go func() {
		p := rt.Register()
		p.Begin()
		inner.TryLock(p, func(hp *Proc) bool {
			if stall.CompareAndSwap(0, 1) {
				<-release
			}
			return true
		})
		p.End()
	}()
	for stall.Load() == 0 {
	}

	p := rt.Register()
	defer p.Unregister()
	p.Begin()
	got := outer.TryLock(p, func(hp *Proc) bool {
		if !inner.TryLock(hp, func(*Proc) bool { return true }) {
			return false // inner busy: whole composite fails
		}
		v := applied.Load(hp)
		applied.Store(hp, v+1)
		return true
	})
	p.End()
	close(release)
	// The outer acquisition itself succeeded or helped; the composite
	// result must be false while inner was held... unless the helper
	// finished the inner holder first, in which case true is also
	// correct. Either way `applied` must match the returned result.
	probe := applied.Load(p)
	if got && probe != 1 {
		t.Fatalf("outer reported success but applied=%d", probe)
	}
	if !got && probe != 0 {
		t.Fatalf("outer reported failure but applied=%d", probe)
	}
}

// TestUnlockAllowsImmediateReacquire: early release inside a thunk makes
// the lock available to others before the thunk finishes.
func TestUnlockAllowsImmediateReacquire(t *testing.T) {
	rt := New()
	p := rt.Register()
	defer p.Unregister()
	q := rt.Register()
	defer q.Unregister()

	var l Lock
	reacquired := false
	ok := l.TryLock(p, func(hp *Proc) bool {
		l.Unlock(hp)
		// Another proc can now take the lock even though this thunk is
		// still running.
		reacquired = l.TryLock(q, func(*Proc) bool { return true })
		return true
	})
	if !ok || !reacquired {
		t.Fatalf("ok=%v reacquired=%v", ok, reacquired)
	}
}

// TestMutableStructValues exercises Mutable with a multi-field
// comparable struct (the lockState pattern user code can replicate).
func TestMutableStructValues(t *testing.T) {
	type pairT struct {
		A uint64
		B *int
	}
	rt := New()
	p := rt.Register()
	defer p.Unregister()
	var m Mutable[pairT]
	b1, b2 := new(int), new(int)
	m.Store(p, pairT{1, b1})
	if got := m.Load(p); got != (pairT{1, b1}) {
		t.Fatalf("struct round-trip: %+v", got)
	}
	m.CAM(p, pairT{1, b1}, pairT{2, b2})
	if got := m.Load(p); got != (pairT{2, b2}) {
		t.Fatalf("struct CAM: %+v", got)
	}
	m.CAM(p, pairT{1, b1}, pairT{3, nil}) // stale expected
	if got := m.Load(p); got != (pairT{2, b2}) {
		t.Fatalf("stale struct CAM applied: %+v", got)
	}
}

// TestQuickNestedCounterEquivalence: random nesting shapes (a sequence
// of lock indices, possibly repeating non-adjacent) applied through
// nested try-locks must increment each guarded counter exactly once per
// success, across modes.
func TestQuickNestedCounterEquivalence(t *testing.T) {
	prop := func(seq []uint8, blocking bool) bool {
		if len(seq) == 0 {
			return true
		}
		if len(seq) > 4 {
			seq = seq[:4]
		}
		// Map to strictly increasing lock indices to respect ordering.
		rt := New()
		rt.SetBlocking(blocking)
		var locks [4]Lock
		var cells [4]Mutable[uint64]
		var build func(i int) Thunk
		build = func(i int) Thunk {
			return func(hp *Proc) bool {
				v := cells[i].Load(hp)
				cells[i].Store(hp, v+1)
				if i+1 >= len(seq) {
					return true
				}
				return locks[i+1].TryLock(hp, build(i+1))
			}
		}
		p := rt.Register()
		defer p.Unregister()
		p.Begin()
		ok := locks[0].TryLock(p, build(0))
		p.End()
		if !ok {
			return false // uncontended: must succeed
		}
		for i := 0; i < len(seq); i++ {
			if cells[i].Load(p) != 1 {
				return false
			}
		}
		for i := len(seq); i < 4; i++ {
			if cells[i].Load(p) != 0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// TestEpochGuardNestingAcrossOps: Begin/End nest correctly when a user
// operation calls another operation (guard depth bookkeeping).
func TestEpochGuardNestingAcrossOps(t *testing.T) {
	rt := New()
	p := rt.Register()
	defer p.Unregister()
	p.Begin()
	p.Begin()
	var l Lock
	ok := l.TryLock(p, func(hp *Proc) bool { return true })
	p.End()
	p.End()
	if !ok {
		t.Fatalf("nested-guard tryLock failed")
	}
}

// TestConcurrentRuntimesAreIsolated: two runtimes (e.g. two structure
// families) do not interfere: mode flags, epochs and stalls are
// per-runtime.
func TestConcurrentRuntimesAreIsolated(t *testing.T) {
	rtA := New()
	rtB := New(Blocking())
	if rtA.Blocking() || !rtB.Blocking() {
		t.Fatalf("mode flags shared between runtimes")
	}
	pA := rtA.Register()
	pB := rtB.Register()
	defer pA.Unregister()
	defer pB.Unregister()
	var lA, lB Lock
	var cA, cB Mutable[uint64]
	okA := lA.TryLock(pA, func(hp *Proc) bool { cA.Store(hp, 1); return true })
	okB := lB.TryLock(pB, func(hp *Proc) bool { cB.Store(hp, 2); return true })
	if !okA || !okB || cA.Load(pA) != 1 || cB.Load(pB) != 2 {
		t.Fatalf("cross-runtime interference")
	}
}
