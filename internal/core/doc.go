// Package flock implements lock-free locks: fine-grained try-locks whose
// critical sections are executed idempotently, so that any thread that
// finds a lock taken can help complete the held critical section instead
// of waiting. It is a Go implementation of the Flock library from
// "Lock-Free Locks Revisited" (Ben-David, Blelloch, Wei; PPoPP 2022).
//
// # Programming model
//
// Workers obtain a Proc from a Runtime and pass it to every operation:
//
//	rt := flock.New()
//	p := rt.Register()        // one per worker goroutine
//	defer p.Unregister()
//
// Shared locations that are mutated inside locks are declared as
// Mutable[V] (or UpdateOnce[V] for locations written at most once after
// initialization, or Link[T] for pointers that never recur in their
// location). Critical sections are thunks passed to Lock.TryLock:
//
//	ok := lck.TryLock(p, func(hp *flock.Proc) bool {
//	    if node.removed.Load(hp) || node.next.Load(hp) != succ {
//	        return false // validation failed; caller retries
//	    }
//	    node.next.Store(hp, newNode)
//	    return true
//	})
//
// In lock-free mode (the default) TryLock installs a descriptor holding
// the thunk and a shared log; any thread that later finds the lock taken
// re-runs the thunk from the descriptor, with every load and allocation
// committed to the log so that all runs observe identical values and all
// but the first effect of each step are discarded (§3 of the paper). In
// blocking mode the same lock is an ordinary TTAS test-and-set lock and
// no logging occurs; the mode is selected at runtime with
// Runtime.SetBlocking.
//
// # Determinism rules for thunks
//
// A thunk may be executed concurrently by several helpers, so its control
// flow must be a pure function of committed values:
//
//   - Read shared mutable state only through Mutable/Link/UpdateOnce
//     Load, and make anything non-deterministic (e.g. a random number)
//     agree across runs by building it inside Allocate or committing a
//     pointer to it with CommitPtr.
//   - Use the *Proc argument passed to the thunk, never a captured outer
//     Proc: helpers run the thunk with their own Proc.
//   - Capture by value: copy loop variables and locals into the closure
//     before TryLock; do not mutate captured variables afterwards (the
//     paper's "[=]" rule).
//   - Allocate memory only with Allocate. Do not free it: an unlinked
//     node is left to the garbage collector (the paper's free), which
//     reclaims it once no log or helper can still reach it.
//   - Acquire nested locks in one consistent global partial order (the
//     paper's Theorem 4.2 assumption). This is stronger than classic
//     deadlock avoidance: a cycle of lock orders makes helpers help each
//     other's thunks in a loop (unbounded recursion), not merely block.
//     See lazylist.Move for the cross-structure ordering pattern.
//
// The eight data structures under internal/structures are written in
// exactly this style and serve as larger examples.
//
// # Memory management
//
// The hot commit path is allocation-free (§6 of the paper, DESIGN.md
// S10): committed pointers (boxes, descriptors, Allocate results) land
// directly in log slots — no wrapper entries, no interface boxing —
// with booleans and nil encoded as sentinel addresses, and descriptors
// (with their log blocks) are recycled through per-Proc FIFOs gated by
// the epoch manager's grace periods (Recycler). Wrap every operation in
// Proc.Begin/End: the guards delay a descriptor's reuse while a helper
// might still replay a log that references it. Recycler is the only
// grace-period queue. Value boxes and structure nodes are
// never pooled: the garbage collector is the paper's free for them, so
// unlinking one needs no call at all.
package flock
