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
func wordDescriptor(l *Lock) *descriptor { return decodeWord(l.state.b.Load()).d }

// pendingDescriptors counts the descriptors p has parked for reuse.
func pendingDescriptors(p *Proc) int {
	n := 0
	for _, r := range p.pending {
		if r.key == descriptorKey {
			n++
		}
	}
	return n
}

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
