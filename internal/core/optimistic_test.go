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

// TestOptimisticReadValidatesAndEscalates drives the test combinator
// through its three outcomes: clean validation (no restart), one
// restart then validation, and escalation to the logged path after
// optimisticReadBound failures. Production readers never escalate (they
// help and re-read until a read validates, internal/kv/engine); the
// restart and validation cases are the ReadVersion/Validate contract
// both loops rest on.
func TestOptimisticReadValidatesAndEscalates(t *testing.T) {
	// Restart counts live in the obs layer (per-Proc blocks, gated);
	// enable collection for the duration of the test and read p's own
	// block, which no other goroutine writes.
	prev := obs.Enabled()
	obs.SetEnabled(true)
	defer obs.SetEnabled(prev)

	rt := New()
	p := rt.Register()
	defer p.Unregister()
	var l Lock
	var m Mutable[uint64]
	l.Lock(p, func(hp *Proc) bool { m.Store(hp, 42); return true })
	w := rt.Register()
	defer w.Unregister()
	bump := func() { l.Lock(w, func(q *Proc) bool { m.Store(q, m.Load(q)+1); return true }) }
	final := func() uint64 { p.Begin(); defer p.End(); return m.Load(p) }

	// Clean run: no contention, value observed, counter untouched.
	var got uint64
	ok := rt.OptimisticRead(p, &l, func(hp *Proc) bool {
		got = m.Load(hp)
		return true
	})
	if !ok || got != 42 {
		t.Fatalf("clean optimistic read = (%v, %d), want (true, 42)", ok, got)
	}
	if r := p.Obs().Load(obs.OptRestarts); r != 0 {
		t.Fatalf("clean read counted %d restarts", r)
	}

	// One dirtied attempt: a writer bumps the version inside the first
	// read only, so that read is discarded and the second validates.
	reads := 0
	ok = rt.OptimisticRead(p, &l, func(hp *Proc) bool {
		reads++
		got = m.Load(hp)
		if reads == 1 {
			bump()
		}
		return true
	})
	if !ok || reads != 2 || got != final() {
		t.Fatalf("restarted read = (%v, %d) after %d reads, want (true, %d) after 2", ok, got, reads, final())
	}
	if r := p.Obs().Load(obs.OptRestarts); r != 1 {
		t.Fatalf("restarts = %d after one dirtied read, want 1", r)
	}

	// Every attempt dirtied: all optimisticReadBound attempts fail
	// validation and the read escalates. The escalated run holds the
	// lock, so the bump-inside-fn cannot happen there and the logged
	// read completes.
	reads = 0
	ok = rt.OptimisticRead(p, &l, func(hp *Proc) bool {
		reads++
		got = m.Load(hp)
		if !hp.InThunk() {
			bump()
		}
		return true
	})
	if !ok {
		t.Fatal("escalated optimistic read failed")
	}
	if r := p.Obs().Load(obs.OptRestarts); r != 1+optimisticReadBound {
		t.Fatalf("restarts = %d, want 1+%d", r, optimisticReadBound)
	}
	if reads != optimisticReadBound+1 {
		t.Fatalf("fn ran %d times, want %d optimistic + 1 escalated", reads, optimisticReadBound)
	}
	if got != final() {
		t.Fatalf("escalated read observed %d, want the final value %d", got, final())
	}
}

// TestOptimisticReadNestedFallsBack pins that the combinator never runs
// the unlogged arm from inside a thunk: a nested call goes straight to
// the logged path (counter untouched) and still returns fn's result.
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
	if r := p.Obs().Load(obs.OptRestarts); r != 0 {
		t.Fatalf("nested fallback counted %d restarts", r)
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
