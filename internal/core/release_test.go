package flock

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// Tests for the descriptor lifetime (DESIGN.md S7/S10): the CAS that
// releases a lock unlinks its descriptor, so an unlocked lock word never
// holds one, and the one run whose CAS released parks it exactly once.

// wordDescriptor returns the descriptor held by l's lock word.
func wordDescriptor(l *Lock) *descriptor { return decodeWord(l.w.Load()).d }

// pendingDescriptors counts every object p has parked for reuse. The
// thunks that count them store nothing, so each one is a descriptor:
// the lock word itself parks nothing.
func pendingDescriptors(p *Proc) int { return len(p.pending) }

// TestReleasedWordHoldsNoDescriptor pins that every lock-free release —
// TryLock's and Lock's scope exit and a hand-over-hand Unlock — leaves
// the word unlocked with no descriptor.
func TestReleasedWordHoldsNoDescriptor(t *testing.T) {
	rt := New()
	p := rt.Register()
	defer p.Unregister()
	nop := func(*Proc) bool { return true }

	var a, b Lock
	if !a.TryLock(p, nop) {
		t.Fatal("TryLock on a free lock failed")
	}
	if d := wordDescriptor(&a); d != nil || a.Held() {
		t.Fatalf("after TryLock: held=%v d=%p, want unlocked with no descriptor", a.Held(), d)
	}
	if !a.Lock(p, nop) {
		t.Fatal("Lock returned false for a true thunk")
	}
	if d := wordDescriptor(&a); d != nil || a.Held() {
		t.Fatalf("after Lock: held=%v d=%p, want unlocked with no descriptor", a.Held(), d)
	}

	// Hand-over-hand: b's thunk releases a early, then checks the word
	// while b is still held.
	var early *descriptor
	ok := a.TryLock(p, func(hp *Proc) bool {
		return b.TryLock(hp, func(hq *Proc) bool {
			a.Unlock(hq)
			early = wordDescriptor(&a)
			return true
		})
	})
	if !ok {
		t.Fatal("hand-over-hand acquisition failed")
	}
	if early != nil {
		t.Fatalf("after early Unlock: word still holds descriptor %p", early)
	}
	for _, l := range []*Lock{&a, &b} {
		if d := wordDescriptor(l); d != nil || l.Held() {
			t.Fatalf("after hand-over-hand: held=%v d=%p, want unlocked with no descriptor", l.Held(), d)
		}
	}
}

// TestEachAcquisitionParksOneDescriptor pins exactly-once retirement:
// every lock-free acquisition adds exactly one descriptor to its Proc's
// pending list (a nested pair adds two), whether its lock is taken again
// or never touched after, and the NoPool arm parks none.
func TestEachAcquisitionParksOneDescriptor(t *testing.T) {
	const n = 8
	nop := func(*Proc) bool { return true }
	cases := []struct {
		name string
		per  int // descriptors per op
		op   func(p *Proc, locks []Lock, i int)
	}{
		{"TryLockSameLock", 1, func(p *Proc, locks []Lock, _ int) { locks[0].TryLock(p, nop) }},
		{"TryLockFreshLocks", 1, func(p *Proc, locks []Lock, i int) { locks[i].TryLock(p, nop) }},
		{"Lock", 1, func(p *Proc, locks []Lock, i int) { locks[i].Lock(p, nop) }},
		{"Nested", 2, func(p *Proc, locks []Lock, i int) {
			locks[i].TryLock(p, func(hp *Proc) bool { return locks[n+i].TryLock(hp, nop) })
		}},
		{"HandOverHand", 2, func(p *Proc, locks []Lock, i int) {
			locks[i].TryLock(p, func(hp *Proc) bool {
				return locks[n+i].TryLock(hp, func(hq *Proc) bool {
					locks[i].Unlock(hq)
					return true
				})
			})
		}},
	}
	for _, c := range cases {
		for _, pooling := range []bool{true, false} {
			var opts []Option
			if !pooling {
				opts = append(opts, NoPool())
			}
			p := New(opts...).Register()
			locks := make([]Lock, 2*n)
			for i := 0; i < n; i++ {
				before := pendingDescriptors(p)
				c.op(p, locks, i)
				got := pendingDescriptors(p) - before
				want := c.per
				if !pooling {
					want = 0
				}
				if got != want {
					t.Fatalf("%s pooling=%v op %d: parked %d descriptors, want %d", c.name, pooling, i, got, want)
				}
			}
			p.Unregister()
		}
	}
}

// holdCapturing acquires l with a thunk capturing a fresh object whose
// finalizer closes collected. Kept out of line so no stack slot of the
// caller keeps the object alive.
//
//go:noinline
func holdCapturing(p *Proc, l *Lock, collected chan struct{}) {
	obj := new([64]byte)
	runtime.SetFinalizer(obj, func(*[64]byte) { close(collected) })
	l.TryLock(p, func(*Proc) bool {
		obj[0]++
		return true
	})
}

// TestReleasedThunkNotRetained pins that a released lock stops pinning
// its last critical section: once the released descriptor's grace
// period has passed (pooling) or immediately (NoPool), the thunk and
// everything it captured are garbage.
func TestReleasedThunkNotRetained(t *testing.T) {
	for _, pooling := range []bool{true, false} {
		var opts []Option
		if !pooling {
			opts = append(opts, NoPool())
		}
		p := New(opts...).Register()
		var l Lock
		collected := make(chan struct{})
		holdCapturing(p, &l, collected)
		freed := false
		for i := 0; i < 50 && !freed; i++ {
			p.Drain()
			runtime.GC()
			select {
			case <-collected:
				freed = true
			case <-time.After(10 * time.Millisecond):
			}
		}
		if !freed {
			t.Fatalf("pooling=%v: the released lock still retains its thunk's captured state", pooling)
		}
		runtime.KeepAlive(&l)
		p.Unregister()
	}
}

// TestEarlyUnlockAcquisitionVerdict races hand-over-hand acquisitions
// whose thunks unlock early and keep working. A helper can run such a
// thunk past its Unlock before the owner checks its install, and
// another worker can take the lock in between; the owner must still see
// that its acquisition happened. Each successful TryLock adds one to the
// protected counter, so the count of true results must equal it (a
// false verdict for an applied thunk leaves the counter ahead).
func TestEarlyUnlockAcquisitionVerdict(t *testing.T) {
	rt := New()
	var l Lock
	var count Mutable[uint64]
	var pad [16]Mutable[uint64]
	const workers, perW = 4, 10000
	var wins atomic.Uint64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			p := rt.Register()
			defer p.Unregister()
			for i := 0; i < perW; i++ {
				p.Begin()
				ok := l.TryLock(p, func(hp *Proc) bool {
					count.Store(hp, count.Load(hp)+1)
					l.Unlock(hp)
					// Logged work after the release widens the window in
					// which the lock is free but the thunk unfinished.
					for j := range pad {
						pad[j].Load(hp)
					}
					return true
				})
				p.End()
				if ok {
					wins.Add(1)
				}
			}
		}()
	}
	wg.Wait()
	p := rt.Register()
	defer p.Unregister()
	if got, want := count.Load(p), wins.Load(); got != want {
		t.Fatalf("counter=%d but %d TryLocks reported success: an applied critical section was reported as failed", got, want)
	}
}

// TestLateHelperSkipsReleasedDescriptor builds the window a helper has
// between reading a descriptor from the lock word and lowering its
// announcement to the descriptor's birth epoch. The helper's guard is
// announced after the owner's run retired the box its log committed;
// the owner then releases and leaves, the box is recycled, and a later
// store puts it back in the same location. Replaying the thunk then would
// read the box's new value through the old log entry and land its CAS
// on it: a second increment. The helper must find the word moved on
// after lowering and leave the finished critical section alone.
func TestLateHelperSkipsReleasedDescriptor(t *testing.T) {
	for _, opts := range [][]Option{nil, {NoCCAS()}} {
		rt := New(opts...)
		p, q := rt.Register(), rt.Register()
		var l Lock
		var m Mutable[uint64]
		m.Init(1)
		x := m.b.Load()
		incr := func(hp *Proc) bool {
			m.Store(hp, m.Load(hp)+1)
			return true
		}

		// The owner installs its descriptor and runs it once: m goes
		// 1 -> 2 and x is retired at the current epoch.
		p.Begin()
		cur := l.load(p)
		d := p.newDescriptor(incr, cur.ver+1)
		myLS := lockState{d: d, locked: true, ver: cur.ver + 1}
		if !l.cas(p, cur, myLS) {
			t.Fatal("install failed")
		}
		d.started.Store(1)
		p.run(d)
		if !rt.epochs.TryAdvance() {
			t.Fatal("epoch did not advance")
		}

		// The helper enters its guard past x's retire epoch and reads the
		// word while the descriptor is still installed.
		q.Begin()
		seen := l.load(q)
		if seen != myLS {
			t.Fatalf("helper read %+v, want the installed %+v", seen, myLS)
		}

		// The owner releases and leaves; x ripens and is reused by a
		// store that sets m back to 1.
		if !l.cas(p, myLS, lockState{ver: myLS.ver + 1}) {
			t.Fatal("release failed")
		}
		p.retireDescriptor(d)
		p.End()
		p.drainReuse()
		m.Store(p, 1)
		if m.b.Load() != x {
			t.Fatal("setup: the retired box was not reused")
		}

		l.runAndUnlock(q, seen, true)
		q.End()
		if v := m.Load(q); v != 1 {
			t.Fatalf("opts=%d: m = %d after the late helper, want 1", len(opts), v)
		}
		p.Unregister()
		q.Unregister()
	}
}
