package flock

import (
	"flock/internal/obs"
	"flock/internal/obs/trace"
)

// The single-lock optimistic read combinator, kept for the core tests.
// Production readers run the shard-group loop of internal/kv/engine,
// which helps a held lock instead of restarting (DESIGN.md S13); this
// helper keeps the older rule: restart on a held lock or a moved
// version, then escalate to the strict Lock after MaxOptimistic
// attempts. The tests use it to drive ReadVersion/Validate through the
// validated, restarted, escalated and nested cases.

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
