// Package engine is the shard-group execution layer under the sharded KV
// store and the transaction layer. Every multi-shard operation in this
// repository that must be atomic with respect to shard-lock holders
// reduces to one of two arms over an ascending, duplicate-free shard
// group:
//
//   - the composed-thunk arm: per-shard lock-free locks nested by
//     TryLock in ascending shard order (the paper's §4 composition, the
//     transaction protocol of DESIGN.md S11), retried until the whole
//     chain is acquired once. Transactions commit through it, and
//     snapshot activation flips the registry inside it;
//   - the optimistic arm: top-level per-shard structure reads, each
//     after its shard's version read (helping the holder of a held
//     lock), with whole-vector validation after every round and
//     re-reads of only the shards that moved, until the vector validates
//     (DESIGN.md S13). Every read of a store whose writers take shard
//     locks (kv.NewComposed) runs through it.
//
// A store whose writers take no shard lock (kv.New) needs neither for
// its reads: they call the structures directly. The engine owns the
// retry loops and the obs counters and flight-recorder spans they emit
// (optimistic restarts, transaction depth and helped flags), so call
// sites publish results and nothing else. DESIGN.md S17 documents the
// layer.
package engine

import (
	"runtime"
	"sync/atomic"

	flock "flock/internal/core"
	"flock/internal/obs"
	"flock/internal/obs/trace"
	"flock/internal/structures/set"
)

// Config wires an Engine to its store's shards.
type Config struct {
	// Locks are the per-shard lock handles, one per shard.
	Locks []*flock.Lock
	// Runtimes is ignored: New reads no per-shard runtime. The field
	// stays only because perfbench's engine probes still set it; it goes
	// with the next change to perfbench.
	Runtimes []*flock.Runtime
	// Shared is ignored: the engine runs the same arms on every store.
	// The field stays only because perfbench's engine probes still set
	// it; it goes with the next change to perfbench.
	Shared *flock.Runtime
	// Route maps a key to its shard index (the store's ShardOf).
	Route func(uint64) int
	// Restarts is the store's always-on optimistic restart counter; the
	// engine increments it beside the gated obs metric. May be nil.
	Restarts *atomic.Uint64
}

// Engine executes shard-group operations for one store. It is
// goroutine-safe: all state is per-call or owned by the shards.
type Engine struct {
	locks    []*flock.Lock
	route    func(uint64) int
	restarts *atomic.Uint64
}

// New builds an engine over the given shards.
func New(cfg Config) *Engine {
	return &Engine{
		locks:    cfg.Locks,
		route:    cfg.Route,
		restarts: cfg.Restarts,
	}
}

// ---------------------------------------------------------------------
// Planner
// ---------------------------------------------------------------------

// ShardIndices maps keys to their shard indices (one hash per key per
// operation; thunk bodies and helper replays reuse the result instead
// of re-hashing).
func (e *Engine) ShardIndices(keys []uint64) []int {
	out := make([]int, len(keys))
	for i, k := range keys {
		out[i] = e.route(k)
	}
	return out
}

// Group returns the sorted, deduplicated union of the precomputed
// shard-index sets — the lock acquisition order for the operation's
// footprint. A group of length 1 is the planner's single-shard fast
// path: consumers take the one-lock arm (a single validated read, a
// single-lock critical section) with no vector or merge machinery.
// seen is an optional scratch bitmap with one entry per shard, reused
// across operations (it is only touched at top level, never captured by
// thunk closures); nil allocates a fresh one. The returned slice is always
// fresh — thunk closures capture it.
func (e *Engine) Group(seen []bool, idxSets ...[]int) []int {
	if seen == nil {
		seen = make([]bool, len(e.locks))
	}
	n := 0
	for _, idxs := range idxSets {
		for _, s := range idxs {
			if !seen[s] {
				seen[s] = true
				n++
			}
		}
	}
	out := make([]int, 0, n)
	for s, hit := range seen {
		if hit {
			out = append(out, s)
			seen[s] = false // reset for the next operation
		}
	}
	return out // ascending by construction
}

// AllShards returns the whole-store group 0..n-1 (scans, snapshots).
func (e *Engine) AllShards() []int {
	out := make([]int, len(e.locks))
	for i := range out {
		out[i] = i
	}
	return out
}

// ---------------------------------------------------------------------
// Composed-thunk arm
// ---------------------------------------------------------------------

// Nest runs body inside a composed critical section holding every
// listed shard lock, nesting TryLock calls in ascending order. This is
// the transaction protocol's acquisition step (DESIGN.md S11): the sort
// order makes acquisition deadlock-free, and in lock-free mode a thread
// that finds a shard lock held helps the holder's entire composed
// critical section before reporting failure. It reports false when any
// acquisition failed (the caller retries with a fresh body); shards
// must be sorted ascending and duplicate-free. body runs on whichever
// Proc executes the innermost thunk and must publish its results
// idempotently (DESIGN.md S7/S11); p must be registered with the
// store's runtime.
func (e *Engine) Nest(p *flock.Proc, shards []int, body func(hp *flock.Proc)) bool {
	p.Begin()
	defer p.End()
	var nest func(hp *flock.Proc, i int) bool
	nest = func(hp *flock.Proc, i int) bool {
		if i == len(shards) {
			body(hp)
			return true
		}
		return e.locks[shards[i]].TryLock(hp, func(hp2 *flock.Proc) bool {
			return nest(hp2, i+1)
		})
	}
	return nest(p, 0)
}

// backoff spins-then-yields with per-Proc jitter between transactional
// acquisition attempts (shared constants would synchronize contending
// clients' retries).
func backoff(p *flock.Proc, attempt int) {
	if attempt > 8 {
		attempt = 8
	}
	spins := p.Jitter() % (uint64(16) << uint(attempt))
	for i := uint64(0); i < spins; i++ {
		_ = i
	}
	if attempt >= 2 {
		runtime.Gosched()
	}
}

// Atomic retries the composed critical section until the full lock
// chain is acquired once — the transaction commit arm. mkBody returns a
// fresh body per attempt: a straggler replaying a *failed* published
// attempt must find that attempt's buffers, not the next one's
// (DESIGN.md S11) — and the body must publish its results idempotently
// (per-attempt atomics). Acquisition success means the body's effects
// are durably logged, even if the physical completion was a helper's.
//
// With obs metrics enabled it records the committed operation's
// nested-acquire depth (distinct shard locks — len(shards), since the
// chain nests one TryLock per shard) and whether any run of the
// committed attempt executed on a foreign Proc, i.e. a helper carried
// part or all of it (obs.TxnHelped). With the flight recorder on it
// emits a TxnSpan carrying the depth, the attempt count and the
// acquire-to-commit duration. The foreign flag is a per-attempt atomic
// the wrapped body sets idempotently, so helper replays keep the
// thunk-determinism rules.
func (e *Engine) Atomic(p *flock.Proc, shards []int, mkBody func() func(hp *flock.Proc)) {
	track := obs.On()
	var t0 int64
	if trace.On() {
		t0 = trace.Now()
	}
	commit := func(attempt int) {
		if t0 != 0 {
			// TxnSpan packs the lock-chain depth with the attempt count
			// (1-based) and carries the whole acquire-to-commit duration.
			a := uint64(len(shards))&0xffff | uint64(attempt+1)<<16
			now := trace.Now()
			p.TraceAt(trace.TxnSpan, now, 0, a, uint64(now-t0))
		}
	}
	for attempt := 0; ; attempt++ {
		body := mkBody()
		if track {
			foreign := &atomic.Bool{}
			inner := body
			body = func(hp *flock.Proc) {
				if hp != p {
					foreign.Store(true)
				}
				inner(hp)
			}
			if e.Nest(p, shards, body) {
				p.Obs().Inc(obs.DepthCounter(len(shards)))
				if foreign.Load() {
					p.Obs().Inc(obs.TxnHelped)
				}
				commit(attempt)
				return
			}
		} else if e.Nest(p, shards, body) {
			commit(attempt)
			return
		}
		backoff(p, attempt)
	}
}

// ---------------------------------------------------------------------
// Optimistic version-vector arm
// ---------------------------------------------------------------------

// restart records one discarded shard read (the shard lock still held
// after helping, or its version moved before validation) on the store
// counter, the obs metrics layer and the flight recorder.
func (e *Engine) restart(p *flock.Proc) {
	if e.restarts != nil {
		e.restarts.Add(1)
	}
	p.Obs().Inc(obs.OptRestarts)
	p.Trace(trace.OptRestart, 0, 0, 0)
}

// shardRead is the optimistic loop's state for one shard of the group:
// the version its last data read is validated against, and whether that
// read still stands (false: read it).
type shardRead struct {
	ver   uint64
	valid bool
}

// Optimistic runs read as unlogged per-shard reads over the shard group,
// validated against the group's shard locks, until the reads form one
// consistent cut. Each round reads every stale shard's version — helping
// the holder first if the shard lock is held (Lock.Help), so a reader
// never waits out a lock-free critical section — and then calls read(s)
// for that shard's data. After the round it validates the whole vector;
// a shard whose version moved becomes stale and is re-read alone in the
// next round. A validated round is a consistent cut: every shard's
// version is unchanged from its own version read until the validation
// pass, and every data read lies between the two, so at the start of
// that pass every shard is free and shows the state its read saw
// (DESIGN.md S13).
//
// A shard read is discarded, counting one restart, when the lock is
// still held after helping or when its version moved. Either way some
// critical section of that lock ran during the read, so a discarded read
// is another thread's progress and the loop is lock-free, like the
// paper's failed try-lock that helps and retries (§3). In blocking mode
// the holder cannot be helped; Help yields and the loop waits it out.
//
// read runs inside p's epoch guard at top level, so a structure's Find
// or Scan there logs nothing; it must write only run-local state, and it
// may run again for the same shard, replacing its earlier result; its
// last run for each shard is the one that validated.
func (e *Engine) Optimistic(p *flock.Proc, shards []int, read func(s int)) {
	e.optimistic(p, shards, false, read)
}

// OptimisticGroup is Optimistic with a read that covers the whole group
// at once: read runs once per round, after every shard's version read,
// and a round with any moved shard re-reads the whole vector. read's
// last run is the one that validated. procs holds one Proc per shard,
// all registered with the store's runtime; the loop runs on the first
// listed shard's. No store calls it: it stays only while perfbench's
// engine probe does, and goes with the next change to perfbench.
func (e *Engine) OptimisticGroup(procs []*flock.Proc, shards []int, read func()) {
	last := shards[len(shards)-1]
	e.optimistic(procs[shards[0]], shards, true, func(s int) {
		if s == last {
			read()
		}
	})
}

// OptimisticFind is the single-shard case of the optimistic arm, a
// validated top-level lookup of k in shard's structure s. Its closure
// does not escape, so it allocates nothing.
func (e *Engine) OptimisticFind(p *flock.Proc, shard int, s set.Set, k uint64) (v uint64, found bool) {
	e.optimistic(p, []int{shard}, false, func(int) {
		v, found = s.Find(p, k)
	})
	return v, found
}

// optimistic is the optimistic arm's one retry loop (see Optimistic).
// whole re-reads every shard when any moved, for OptimisticGroup.
func (e *Engine) optimistic(p *flock.Proc, shards []int, whole bool, read func(s int)) {
	var small [8]shardRead // a Get's state stays on the stack
	rs := small[:]
	if len(shards) > len(rs) {
		rs = make([]shardRead, len(shards))
	}
	rs = rs[:len(shards)]
	for {
		// Each round's guard spans its version reads through validation,
		// so no descriptor in a lock word is recycled while it is decoded
		// or helped. A reader that retries for long does not hold back
		// reclamation across rounds: a standing read keeps only its
		// version number and its own results.
		p.Begin()
		for j, s := range shards {
			r := &rs[j]
			if r.valid {
				continue
			}
			l := e.locks[s]
			v, ok := l.ReadVersion()
			if !ok {
				l.Help(p)
				v, ok = l.ReadVersion()
			}
			if !ok {
				e.restart(p)
				continue
			}
			r.ver, r.valid = v, true
			read(s)
		}
		all := true
		for j, s := range shards {
			r := &rs[j]
			if r.valid && !e.locks[s].Validate(r.ver) {
				r.valid = false
				e.restart(p)
			}
			all = all && r.valid
		}
		p.End()
		if all {
			return
		}
		if whole {
			for j := range rs {
				rs[j].valid = false
			}
		}
	}
}

// ---------------------------------------------------------------------
// Run merging
// ---------------------------------------------------------------------

// MergeRuns merges sorted per-shard runs into one ascending result of
// at most limit pairs (limit < 0 unbounded, 0 empty). Shard routing
// partitions the key space, so no key appears in two runs. Shared by
// the scan path and the snapshot iterator's scatter-gather.
func MergeRuns(parts [][]set.KV, limit int) []set.KV {
	if limit == 0 {
		return nil
	}
	total := 0
	nonEmpty := 0
	for _, r := range parts {
		total += len(r)
		if len(r) > 0 {
			nonEmpty++
		}
	}
	if nonEmpty <= 1 {
		for _, r := range parts {
			if len(r) > 0 {
				if limit > 0 && len(r) > limit {
					r = r[:limit]
				}
				return r
			}
		}
		return nil
	}
	if limit < 0 || limit > total {
		limit = total
	}
	out := make([]set.KV, 0, limit)
	idx := make([]int, len(parts))
	for len(out) < limit {
		best := -1
		for i, r := range parts {
			if idx[i] < len(r) && (best == -1 || r[idx[i]].Key < parts[best][idx[best]].Key) {
				best = i
			}
		}
		if best == -1 {
			break
		}
		out = append(out, parts[best][idx[best]])
		idx[best]++
	}
	return out
}
