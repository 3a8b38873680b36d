package flock

import (
	"sync"
	"sync/atomic"
	"testing"

	"flock/internal/obs"
)

// TestVersionBumpsOnAcquireRelease pins the seqlock contract in both
// modes: a readable lock reports a version, a full critical section
// advances it, and the advance invalidates a prior ReadVersion.
func TestVersionBumpsOnAcquireRelease(t *testing.T) {
	for _, blocking := range []bool{false, true} {
		rt := New()
		rt.SetBlocking(blocking)
		p := rt.Register()
		var l Lock
		var m Mutable[int]

		p.Begin()
		v0, ok := l.ReadVersion()
		p.End()
		if !ok {
			t.Fatalf("blocking=%v: unlocked lock not readable", blocking)
		}
		l.Lock(p, func(hp *Proc) bool { m.Store(hp, 1); return true })
		p.Begin()
		v1, ok := l.ReadVersion()
		valid := l.Validate(v0)
		p.End()
		if !ok {
			t.Fatalf("blocking=%v: released lock not readable", blocking)
		}
		if v1 <= v0 {
			t.Fatalf("blocking=%v: version did not advance across a critical section: %d -> %d", blocking, v0, v1)
		}
		if valid {
			t.Fatalf("blocking=%v: stale version %d validated after a critical section", blocking, v0)
		}
		if !l.Validate(v1) {
			t.Fatalf("blocking=%v: fresh version %d failed to validate", blocking, v1)
		}
		p.Unregister()
	}
}

// TestReadVersionRefusesHeldLock pins that a held lock is unreadable:
// ReadVersion must return ok=false while a critical section is running,
// in both modes.
func TestReadVersionRefusesHeldLock(t *testing.T) {
	for _, blocking := range []bool{false, true} {
		rt := New()
		rt.SetBlocking(blocking)
		p := rt.Register()
		var l Lock
		inCS := make(chan struct{})
		release := make(chan struct{})
		var wg sync.WaitGroup
		wg.Add(1)
		go func() {
			defer wg.Done()
			hp := rt.Register()
			defer hp.Unregister()
			l.Lock(hp, func(q *Proc) bool {
				// Signal only on the first run (a replaying helper must
				// not re-close the channel; no helper exists in this
				// test, but the thunk contract stands). Outside a thunk
				// (blocking mode) Commit is a pass-through with
				// first=true.
				if _, first := q.Commit(0); first {
					close(inCS)
					<-release
				}
				return true
			})
		}()
		<-inCS
		p.Begin()
		_, ok := l.ReadVersion()
		p.End()
		if ok {
			t.Errorf("blocking=%v: held lock reported readable", blocking)
		}
		close(release)
		wg.Wait()
		p.Unregister()
	}
}

// TestOptimisticReadValidatesAndEscalates drives the combinator through
// its three outcomes: clean validation (no counter movement), restart
// then success, and escalation to the logged path after MaxOptimistic
// failures.
func TestOptimisticReadValidatesAndEscalates(t *testing.T) {
	// Restart/escalation counts live in the obs layer now (per-Proc
	// blocks, gated); enable collection for the duration of the test and
	// read p's own block, which no other goroutine writes.
	prev := obs.Enabled()
	obs.SetEnabled(true)
	defer obs.SetEnabled(prev)

	rt := New(MaxOptimistic(3))
	p := rt.Register()
	defer p.Unregister()
	var l Lock
	var m Mutable[uint64]
	l.Lock(p, func(hp *Proc) bool { m.Store(hp, 42); return true })

	// Clean run: no contention, value observed, counters untouched.
	var got uint64
	ok := rt.OptimisticRead(p, &l, func(hp *Proc) bool {
		got = m.Load(hp)
		return true
	})
	r0, e0 := p.Obs().Load(obs.OptRestarts), p.Obs().Load(obs.OptEscalations)
	if !ok || got != 42 {
		t.Fatalf("clean optimistic read = (%v, %d), want (true, 42)", ok, got)
	}
	if r0 != 0 || e0 != 0 {
		t.Fatalf("clean read moved counters: restarts=%d escalations=%d", r0, e0)
	}

	// Every attempt dirtied: a writer bumps the version inside fn, so
	// all MaxOptimistic attempts fail validation and the read escalates.
	// The escalated run holds the lock, so the bump-inside-fn cannot
	// happen there and the logged read completes.
	w := rt.Register()
	defer w.Unregister()
	reads := 0
	ok = rt.OptimisticRead(p, &l, func(hp *Proc) bool {
		reads++
		got = m.Load(hp)
		if !hp.InThunk() {
			l.Lock(w, func(q *Proc) bool { m.Store(q, m.Load(q)+1); return true })
		}
		return true
	})
	r1, e1 := p.Obs().Load(obs.OptRestarts), p.Obs().Load(obs.OptEscalations)
	if !ok {
		t.Fatal("escalated optimistic read failed")
	}
	if e1 != 1 {
		t.Fatalf("escalations = %d, want 1", e1)
	}
	if r1 != 3 {
		t.Fatalf("restarts = %d, want MaxOptimistic=3", r1)
	}
	if reads != 4 {
		t.Fatalf("fn ran %d times, want 3 optimistic + 1 escalated", reads)
	}
	p.Begin()
	want := m.Load(p)
	p.End()
	if got != want {
		t.Fatalf("escalated read observed %d, want the final value %d", got, want)
	}
}

// TestOptimisticReadNestedFallsBack pins that the combinator never runs
// the unlogged arm from inside a thunk: a nested call goes straight to
// the logged path (counters untouched) and still returns fn's result.
func TestOptimisticReadNestedFallsBack(t *testing.T) {
	prev := obs.Enabled()
	obs.SetEnabled(true)
	defer obs.SetEnabled(prev)

	rt := New()
	p := rt.Register()
	defer p.Unregister()
	var outer, inner Lock
	var m Mutable[uint64]
	inner.Lock(p, func(hp *Proc) bool { m.Store(hp, 7); return true })

	var got uint64
	ok := outer.Lock(p, func(hp *Proc) bool {
		return rt.OptimisticRead(hp, &inner, func(q *Proc) bool {
			if !q.InThunk() {
				t.Error("nested OptimisticRead ran fn outside the log")
			}
			got = m.Load(q)
			return true
		})
	})
	if !ok || got != 7 {
		t.Fatalf("nested OptimisticRead = (%v, %d), want (true, 7)", ok, got)
	}
	if r, e := p.Obs().Load(obs.OptRestarts), p.Obs().Load(obs.OptEscalations); r != 0 || e != 0 {
		t.Fatalf("nested fallback moved counters: restarts=%d escalations=%d", r, e)
	}
}

// TestOptimisticReadConcurrent races optimistic readers against writers
// incrementing two mutables that the lock keeps equal. Every validated
// read must observe them equal — a torn (unequal) observation that
// survives validation is exactly the bug the seqlock exists to prevent.
func TestOptimisticReadConcurrent(t *testing.T) {
	for _, blocking := range []bool{false, true} {
		rt := New()
		rt.SetBlocking(blocking)
		var l Lock
		var a, b Mutable[uint64]
		const (
			writers = 2
			readers = 4
			perG    = 2000
		)
		var torn atomic.Uint64
		var wg sync.WaitGroup
		for i := 0; i < writers; i++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				p := rt.Register()
				defer p.Unregister()
				for n := 0; n < perG; n++ {
					l.Lock(p, func(hp *Proc) bool {
						v := a.Load(hp) + 1
						a.Store(hp, v)
						b.Store(hp, v)
						return true
					})
				}
			}()
		}
		for i := 0; i < readers; i++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				p := rt.Register()
				defer p.Unregister()
				for n := 0; n < perG; n++ {
					// A fresh atomic pair per call: an escalated fn runs
					// as a thunk that the owner and helpers may run at
					// once, so it publishes through atomics, never plain
					// writes to shared locals (OptimisticRead's
					// contract). All runs store the same committed values.
					var x, y atomic.Uint64
					rt.OptimisticRead(p, &l, func(hp *Proc) bool {
						x.Store(a.Load(hp))
						y.Store(b.Load(hp))
						return true
					})
					if x.Load() != y.Load() {
						torn.Add(1)
					}
				}
			}()
		}
		wg.Wait()
		if torn.Load() != 0 {
			t.Fatalf("blocking=%v: %d torn reads survived validation", blocking, torn.Load())
		}
	}
}

// TestBlockingEarlyUnlockNoDoubleRelease pins the blocking-mode
// hand-over-hand contract (couplist's pattern): a critical section that
// releases its lock early via Unlock must not have the lock released
// again at scope exit — a second release would force-unlock whoever
// acquired in between, breaking mutual exclusion, and would flip the
// seqlock version to odd on a free lock, permanently blinding
// ReadVersion.
func TestBlockingEarlyUnlockNoDoubleRelease(t *testing.T) {
	rt := New()
	rt.SetBlocking(true)
	p := rt.Register()
	defer p.Unregister()
	var l Lock

	acquired := make(chan struct{})
	release := make(chan struct{})
	done := make(chan struct{})
	ok := l.TryLock(p, func(hp *Proc) bool {
		l.Unlock(hp)
		// While our scope is still open, another goroutine takes the
		// freed lock and parks inside it.
		go func() {
			defer close(done)
			q := rt.Register()
			defer q.Unregister()
			l.Lock(q, func(*Proc) bool {
				close(acquired)
				<-release
				return true
			})
		}()
		<-acquired
		return true
	})
	if !ok {
		t.Fatal("outer TryLock failed on a free lock")
	}
	// The outer scope has exited; the lock must still be held by the
	// goroutine, and unreadable.
	if !l.Held() {
		t.Fatal("scope exit force-released a lock held by another thread")
	}
	if _, readable := l.ReadVersion(); readable {
		t.Fatal("ReadVersion validated a held lock after early unlock")
	}
	close(release)
	<-done
	if _, readable := l.ReadVersion(); !readable {
		t.Fatal("version parity corrupt after early-unlock cycle: free lock unreadable")
	}
}
