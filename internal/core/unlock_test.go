package flock

import "testing"

// TestUnbalancedUnlock covers Unlock misuse ("Protecting Locks Against
// Unbalanced Unlock()", PAPERS.md) in both modes: an Unlock without a
// Lock and a double Unlock, and in blocking mode an Unlock from a Proc
// that does not hold the lock. Each leaves the lock as it was: free at
// the version a balanced history gives (every acquisition adds 2), or
// still held by its holder.
func TestUnbalancedUnlock(t *testing.T) {
	for _, blocking := range []bool{false, true} {
		var opts []Option
		if blocking {
			opts = append(opts, Blocking())
		}
		rt := New(opts...)
		p, q := rt.Register(), rt.Register()
		var l, m Lock
		want := uint64(0)
		check := func(what string) {
			t.Helper()
			if v, ok := l.ReadVersion(); !ok || v != want || l.Held() {
				t.Fatalf("blocking=%v, after %s: ReadVersion=(%d,%v) held=%v, want (%d,true) and free",
					blocking, what, v, ok, l.Held(), want)
			}
		}
		mustHold := func(what string) {
			t.Helper()
			if _, ok := l.ReadVersion(); ok || !l.Held() {
				t.Fatalf("blocking=%v: %s released the holder's lock", blocking, what)
			}
		}

		l.Unlock(p)
		check("Unlock without Lock")
		m.TryLock(p, func(hp *Proc) bool { l.Unlock(hp); return true })
		check("Unlock without Lock inside another critical section")
		if !l.TryLock(p, func(hp *Proc) bool { l.Unlock(hp); l.Unlock(hp); return true }) {
			t.Fatalf("blocking=%v: TryLock on a free lock failed", blocking)
		}
		want += 2
		check("double Unlock")
		if !l.Lock(p, func(*Proc) bool { return true }) {
			t.Fatalf("blocking=%v: Lock after misuse returned false", blocking)
		}
		want += 2
		check("a balanced Lock after misuse")

		if blocking {
			l.TryLock(p, func(*Proc) bool {
				l.Unlock(q)
				mustHold("Unlock from another Proc")
				return true
			})
			want += 2
			check("Unlock from another Proc")
			l.TryLock(p, func(hp *Proc) bool {
				l.Unlock(hp)
				return l.TryLock(q, func(*Proc) bool {
					l.Unlock(hp) // hp's acquisition is already released
					mustHold("a double Unlock after another Proc acquired")
					return true
				})
			})
			want += 4
			check("a double Unlock after another Proc acquired")
		}
		p.Unregister()
		q.Unregister()
	}
}
