package flock

import (
	"flock/internal/obs"
	"flock/internal/obs/trace"
)

// Optimistic version-validated reads (DESIGN.md S13). The paper's own
// read paths run as optimistic unlocked reads; this file gives flock
// locks the per-lock version counter that makes the same discipline
// available to lock-protected data: a read-only operation runs entirely
// outside the thunk log (plain atomic loads, no descriptor, no commit
// traffic), then checks that no critical section of the guarding lock
// overlapped the read window. On validation failure it restarts, and
// after MaxOptimistic failed attempts it escalates to the ordinary
// logged path under the lock — the restart-bounded escalation protocol
// of the optimistic-lock-coupling baseline (internal/baseline/olcart).
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

// MaxOptimistic sets how many optimistic read attempts OptimisticRead
// (and the KV layer's optimistic arm) makes before escalating to the
// logged path under the lock. Values < 1 are clamped to 1. The default
// is 3, mirroring the olcart baseline's restart bound.
func MaxOptimistic(n int) Option {
	return func(rt *Runtime) {
		if n < 1 {
			n = 1
		}
		rt.maxOptimistic = n
	}
}

// MaxOptimistic returns the runtime's optimistic restart bound.
func (rt *Runtime) MaxOptimistic() int { return rt.maxOptimistic }

// OptimisticRead runs fn as an optimistic unlogged read validated
// against l's version: fn executes at top level (outside any thunk, so
// its Mutable loads are plain atomic loads with no commit traffic) and
// its result is returned iff no critical section of l overlapped the
// read. After MaxOptimistic failed attempts it escalates to l.Lock with
// fn as the logged thunk, which always completes (helping in lock-free
// mode, waiting in blocking mode).
//
// fn must be read-only on shared state and restartable: a failed
// attempt's partial observations are discarded, and fn runs again from
// scratch. Because the escalated run executes fn as a thunk that
// helpers may replay, fn must also publish its outputs idempotently
// (run-local accumulation, atomic publish — the same contract as any
// thunk body; see DESIGN.md S7). Results of rejected attempts must not
// escape: callers consume outputs only after OptimisticRead returns,
// and the final run — validated or escalated — is always the last to
// publish.
//
// Calling OptimisticRead from inside a thunk skips the optimistic arm
// entirely (an unlogged read nested in logged code would desynchronize
// helper replays) and runs the logged path directly.
func (rt *Runtime) OptimisticRead(p *Proc, l *Lock, fn Thunk) bool {
	if p.InThunk() {
		return l.Lock(p, fn)
	}
	p.Begin()
	for i := 0; i < rt.maxOptimistic; i++ {
		if v, ok := l.ReadVersion(); ok {
			res := fn(p)
			if l.Validate(v) {
				p.End()
				return res
			}
		}
		// Restart/escalation counts live in the obs metrics layer
		// (per-Proc blocks, obs.Snapshot to aggregate), replacing the
		// Runtime-global atomics this combinator carried before it.
		p.metrics.Inc(obs.OptRestarts)
		p.traceEmit(trace.OptRestart, lockID(l), 0, 0)
	}
	p.End()
	p.metrics.Inc(obs.OptEscalations)
	p.traceEmit(trace.OptEscalate, lockID(l), 0, 0)
	return l.Lock(p, fn) // holds its own epoch guard (DESIGN.md S7)
}
