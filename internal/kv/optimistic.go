// Optimistic read arms for the sharded store (DESIGN.md S13). A plain
// Get never takes the shard lock, so its logged cost is only the
// descriptor-free traversal — but under Options.OptimisticReads even
// that traversal runs unlogged, validated against the shard lock's
// version counter: the shard lock is the store's only write-side
// serialization point for lock-holding readers and transactions, so an
// unchanged version across the read window proves no locked critical
// section (a transaction, an escalated scan) overlapped the read.
// Get, MultiGet, Scan and snapshot chunks all run the engine's one
// optimistic loop (internal/kv/engine, DESIGN.md S17): it helps a held
// shard lock instead of restarting, validates the version vector of
// every involved shard after each round, re-reads only the shards whose
// version moved, and escalates to the logged path under the shard locks
// when one shard would need more than MaxOptimistic reads. This file
// only supplies each operation's data loads and result publication.

package kv

import (
	"sync/atomic"

	flock "flock/internal/core"
	"flock/internal/kv/engine"
	"flock/internal/obs/trace"
)

// optimisticGet is Get's unlogged arm: the engine's single-shard
// validated lookup (allocation-free when it validates), completed under
// the shard lock when it escalated.
func (c *Client) optimisticGet(sh *shard, p *flock.Proc, i int, k uint64) (uint64, bool) {
	if v, found, validated := c.st.eng.OptimisticFind(c.procs, i, sh.or, k); validated {
		return v, found
	}
	return c.escalatedGet(sh, p, k)
}

// escalatedGet completes a Get under the shard lock with the ordinary
// logged Find. The strict Lock always completes (helping in lock-free
// mode), so a writer storm cannot livelock readers. The thunk's result
// is published through atomics: every run recomputes identical values
// from logged loads, so the stores are idempotent, and a straggling
// helper's store cannot tear the outer read.
func (c *Client) escalatedGet(sh *shard, p *flock.Proc, k uint64) (uint64, bool) {
	var val atomic.Uint64
	var ok atomic.Uint32
	p.Begin()
	defer p.End()
	sh.lck.Lock(p, func(hp *flock.Proc) bool {
		v, found := sh.s.Find(hp, k)
		val.Store(v)
		if found {
			ok.Store(1)
		}
		return true
	})
	return val.Load(), ok.Load() == 1
}

// MultiGet looks up every key, filling vals and oks (freshly allocated,
// len(keys) each). Unlike GetBatch — independent per-key lookups with
// no mutual consistency — MultiGet is an atomic multi-key read on
// stores where the shard locks serialize writers (transactional
// shared-runtime stores): the engine's optimistic arm validates a
// version vector over every involved shard around the reads, and the
// escalated arm takes all involved shard locks in one composed critical
// section. It backs internal/txn's read-only MultiGet fast path.
// Without Options.OptimisticReads (or a capable structure) it degrades
// to GetBatch semantics.
func (c *Client) MultiGet(keys []uint64) (vals []uint64, oks []bool) {
	if !c.st.optGet || c.procs[0].InThunk() {
		return c.GetBatch(keys)
	}
	t0 := traceStart()
	defer traceOp(c.procs[0], t0, multiShard, trace.KVBatch)
	vals = make([]uint64, len(keys))
	oks = make([]bool, len(keys))
	if len(keys) == 0 {
		return vals, oks
	}
	st := c.st
	// The operation's footprint: each key's shard and the involved
	// group, ascending and duplicate-free (the lock-nesting order).
	shardOf := st.eng.ShardIndices(keys)
	involved := st.eng.Group(nil, shardOf)

	ok := st.eng.Optimistic(c.procs, involved, func(s int) {
		for i, k := range keys {
			if shardOf[i] == s {
				vals[i], oks[i] = st.shards[s].or.OptimisticFind(c.procs[s], k)
			}
		}
	})
	if ok {
		return vals, oks
	}
	return c.escalatedMultiGet(keys, shardOf, involved, vals, oks)
}

// escalatedMultiGet reads every key under the involved shard locks via
// the engine's locked arm: one composed critical section over all
// involved shards on a shared-runtime store (atomic with respect to
// transactions), ascending per-shard sections otherwise (per-shard
// atomicity, which is all such stores ever promise — they run no
// transactions). Results are published through per-attempt atomics:
// helper runs recompute identical values from logged loads, so the
// stores are idempotent.
func (c *Client) escalatedMultiGet(keys []uint64, shardOf, involved []int, vals []uint64, oks []bool) ([]uint64, []bool) {
	st := c.st
	// The bodies below run as thunks that a straggling helper may replay
	// after MultiGet has returned, so they must not read the caller's
	// slice, which the caller may reuse (shardOf and involved are fresh).
	keys = append([]uint64(nil), keys...)
	st.eng.Locked(c.procs, involved, func(s int) engine.Attempt {
		bufV := make([]atomic.Uint64, len(keys))
		bufOK := make([]atomic.Uint32, len(keys))
		readShard := func(hp *flock.Proc, s int) {
			for i, k := range keys {
				if shardOf[i] != s {
					continue
				}
				v, found := st.shards[s].s.Find(hp, k)
				bufV[i].Store(v)
				if found {
					bufOK[i].Store(1)
				}
			}
		}
		commit := func(s int) {
			for i := range keys {
				if s >= 0 && shardOf[i] != s {
					continue
				}
				vals[i] = bufV[i].Load()
				oks[i] = bufOK[i].Load() == 1
			}
		}
		if s < 0 {
			return engine.Attempt{
				Body: func(hp *flock.Proc) {
					for _, sh := range involved {
						readShard(hp, sh)
					}
				},
				Commit: func() { commit(-1) },
			}
		}
		return engine.Attempt{
			Body:   func(hp *flock.Proc) { readShard(hp, s) },
			Commit: func() { commit(s) },
		}
	})
	return vals, oks
}
