package flock

import (
	"sync"
	"testing"
)

// Targeted tests for paths the main suites reach rarely.

func TestUnlockBlockingMode(t *testing.T) {
	rt := New(Blocking())
	p := rt.Register()
	defer p.Unregister()
	var l Lock
	ok := l.TryLock(p, func(hp *Proc) bool {
		l.Unlock(hp) // early release under blocking locks: plain store
		if l.Held() {
			t.Errorf("blocking lock still held after early Unlock")
		}
		// Another worker can take it immediately.
		q := rt.Register()
		defer q.Unregister()
		if !l.TryLock(q, func(*Proc) bool { return true }) {
			t.Errorf("blocking lock not reacquirable after early Unlock")
		}
		return true
	})
	if !ok {
		t.Fatalf("tryLock failed")
	}
}

func TestBlockingStrictLockContended(t *testing.T) {
	// Exercises the TTAS spin/yield path: a strict blocking lock must
	// eventually acquire past an active holder churn.
	rt := New(Blocking())
	var l Lock
	var c Mutable[uint64]
	const workers = 6
	const per = 300
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			p := rt.Register()
			defer p.Unregister()
			for i := 0; i < per; i++ {
				l.Lock(p, func(hp *Proc) bool {
					v := c.Load(hp)
					c.Store(hp, v+1)
					return true
				})
			}
		}()
	}
	wg.Wait()
	p := rt.Register()
	defer p.Unregister()
	if got := c.Load(p); got != workers*per {
		t.Fatalf("blocking strict counter = %d, want %d", got, workers*per)
	}
}

func TestRuntimeAccessors(t *testing.T) {
	rt := New()
	p := rt.Register()
	defer p.Unregister()
	if p.Runtime() != rt {
		t.Fatalf("Proc.Runtime mismatch")
	}
}

func TestStallInjectionDisabledIsFree(t *testing.T) {
	rt := New()
	rt.SetStallInjection(0)
	p := rt.Register()
	defer p.Unregister()
	var l Lock
	for i := 0; i < 100; i++ {
		if !l.TryLock(p, func(*Proc) bool { return true }) {
			t.Fatalf("uncontended tryLock failed at %d", i)
		}
	}
}

func TestBlockingTryLockFailsFastWhenHeld(t *testing.T) {
	rt := New(Blocking())
	var l Lock
	entered := make(chan struct{})
	release := make(chan struct{})
	go func() {
		p := rt.Register()
		defer p.Unregister()
		l.TryLock(p, func(*Proc) bool {
			close(entered)
			<-release
			return true
		})
	}()
	<-entered
	q := rt.Register()
	defer q.Unregister()
	for i := 0; i < 50; i++ {
		if l.TryLock(q, func(*Proc) bool { return true }) {
			t.Fatalf("blocking tryLock acquired a held lock")
		}
	}
	close(release)
}

func TestMutableCAMDirectZeroValue(t *testing.T) {
	// Direct-mode CAM from the zero (nil-box) state.
	rt := New()
	p := rt.Register()
	defer p.Unregister()
	var m Mutable[int]
	m.CAM(p, 0, 5) // expected matches the zero value
	if got := m.Load(p); got != 5 {
		t.Fatalf("CAM from zero state: %d", got)
	}
	var m2 Mutable[int]
	m2.CAM(p, 3, 5) // expectation mismatch against zero state
	if got := m2.Load(p); got != 0 {
		t.Fatalf("mismatched zero-state CAM applied: %d", got)
	}
}
