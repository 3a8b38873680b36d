package flock

// Optimistic version-validated reads (DESIGN.md S13). The paper's own
// read paths run as optimistic unlocked reads; this file gives flock
// locks the per-lock version counter that makes the same discipline
// available to lock-protected data: a read-only operation runs entirely
// outside the thunk log (plain atomic loads, no descriptor, no commit
// traffic), then checks that no critical section of the guarding lock
// overlapped the read window. A reader that finds the lock held helps
// the holder to its release (Lock.Help) and reads again; after
// MaxOptimistic reads of one lock it escalates to the ordinary logged
// path under the lock. The retry loop lives in internal/kv/engine.
//
// Soundness under helping: every effective store of a critical section
// is performed by some run of its thunk, every run is reached only via
// the lock word's installed descriptor, and a straggling replay of a
// completed thunk can never re-install a store (box-identity CAS from
// the committed box fails once the first run's install landed). So all
// effective stores sit, in the seq-cst order of Go's atomics, between
// the acquire transition and the release transition of the lock word —
// if an optimistic reader observed any such store, its validating
// re-read necessarily sees the lock taken or the version advanced.

// ReadVersion returns the lock's current version and whether the lock
// is readable (not held in either mode). A (version, true) result is
// the opening half of a seqlock-style validation: run the unlogged
// read, then confirm with Validate. On a pooling runtime the caller
// must hold an epoch guard (Proc.Begin/End) across ReadVersion,
// the read and Validate, so a descriptor in the lock word cannot be
// recycled while it is decoded.
func (l *Lock) ReadVersion() (uint64, bool) {
	ls := decodeWord(l.w.Load())
	if ls.locked {
		return 0, false
	}
	return ls.ver, true
}

// Validate reports whether the lock is readable and its version still
// equals v: no critical section of this lock overlapped the window
// between the ReadVersion that returned v and this call. Same epoch-
// guard requirement as ReadVersion.
func (l *Lock) Validate(v uint64) bool {
	cur, ok := l.ReadVersion()
	return ok && cur == v
}

// MaxOptimistic sets how many optimistic reads per shard the KV layer's
// optimistic arm makes before escalating to the logged path under the
// shard locks. Values < 1 are clamped to 1. The default is 3, mirroring
// the olcart baseline's restart bound.
func MaxOptimistic(n int) Option {
	return func(rt *Runtime) {
		if n < 1 {
			n = 1
		}
		rt.maxOptimistic = n
	}
}

// MaxOptimistic returns the runtime's bound on optimistic reads per shard.
func (rt *Runtime) MaxOptimistic() int { return rt.maxOptimistic }
