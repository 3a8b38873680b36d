// Range scans over the sharded store. Hash routing scatters every key
// interval across all shards, so a scan is a scatter-gather: each
// shard's ordered structure is scanned under that shard's lock — locks
// acquired in ascending shard order, the transaction layer's nesting
// protocol — and the per-shard sorted runs are merged by key up to the
// limit. The nesting, retry and version-vector machinery lives in
// internal/kv/engine (DESIGN.md S17); this file only routes the scan
// through the engine's arms and merges the runs. See DESIGN.md S12.

package kv

import (
	"fmt"
	"sync/atomic"

	flock "flock/internal/core"
	"flock/internal/kv/engine"
	"flock/internal/obs/trace"
	"flock/internal/structures/set"
)

// Scannable reports whether every shard's structure supports ordered
// range scans (set.Scanner). Scan panics on a non-scannable store.
func (st *Store) Scannable() bool { return st.scan }

// NestShardLocks runs body inside a composed critical section holding
// every listed shard lock, nesting TryLock calls in ascending order —
// the transaction protocol's acquisition step (DESIGN.md S11). It is a
// thin delegate to the store's execution engine (engine.Engine.Nest),
// kept on Store because it is the public composition point callers
// outside the kv/txn pair use.
func (st *Store) NestShardLocks(p *flock.Proc, shards []int, body func(hp *flock.Proc)) bool {
	return st.eng.Nest(p, shards, body)
}

// Scan returns up to limit key-value pairs with lo <= key <= hi, merged
// in ascending key order across every shard (limit < 0 means unbounded,
// limit 0 yields an empty result; 0 and MaxUint64 are the open-interval
// bound sentinels, see set.ClampScanBounds). With
// Options.OptimisticReads (and a capable structure) the scan first runs
// the engine's optimistic arm — unlogged per-shard scans validated
// against a version vector over every shard lock, re-scanning only the
// shards whose version moved — and escalates to the locked arm when one
// shard would need more than MaxOptimistic scans. On the locked arm each
// shard contributes a run collected by the structure's scan thunk while
// that shard's lock is held: one composed critical section over all shards
// on a shared-runtime store (so the scan is atomic with respect to
// multi-key transactions — as is a validated optimistic scan, per the
// version-vector argument), ascending one-shard sections on a
// per-shard-runtime store. Plain single-key Client operations never
// take shard locks, so the result is weakly consistent with respect to
// them either way: every returned pair was present, and every missing
// in-range key absent, at some instant during the scan.
//
// Scan panics if the store's structure does not implement set.Scanner
// (see Scannable).
func (c *Client) Scan(lo, hi uint64, limit int) []set.KV {
	st := c.st
	if !st.scan {
		panic(fmt.Sprintf("kv: Scan on a store whose structure (%T) does not implement set.Scanner", st.shards[0].s))
	}
	if limit == 0 {
		return nil
	}
	t0 := traceStart()
	if st.optScan && !c.procs[0].InThunk() {
		parts := make([][]set.KV, len(st.shards))
		ok := st.eng.Optimistic(c.procs, st.eng.AllShards(), func(s int) {
			parts[s] = st.shards[s].osc.OptimisticScan(c.procs[s], lo, hi, limit)
		})
		if ok {
			traceOp(c.procs[0], t0, multiShard, trace.KVScan)
			return engine.MergeRuns(parts, limit)
		}
	}
	out := c.scanLocked(lo, hi, limit)
	traceOp(c.procs[0], t0, multiShard, trace.KVScan)
	return out
}

// scanLocked is the logged arm: per-shard scan thunks under the shard
// locks, routed through the engine (see Scan for the composed vs
// per-shard split).
func (c *Client) scanLocked(lo, hi uint64, limit int) []set.KV {
	st := c.st
	parts := make([][]set.KV, len(st.shards))
	st.eng.Locked(c.procs, st.eng.AllShards(), func(s int) engine.Attempt {
		if s < 0 {
			// Composed: one body scans every shard, publishing the runs
			// through a per-attempt buffer (idempotently: every run
			// recomputes identical runs from logged loads).
			buf := &atomic.Pointer[[][]set.KV]{}
			return engine.Attempt{
				Body: func(hp *flock.Proc) {
					out := make([][]set.KV, len(st.shards))
					for i := range st.shards {
						out[i] = st.shards[i].sc.Scan(hp, lo, hi, limit)
					}
					buf.Store(&out)
				},
				Commit: func() { parts = *buf.Load() },
			}
		}
		sh := &st.shards[s]
		buf := &atomic.Pointer[[]set.KV]{}
		return engine.Attempt{
			Body:   func(hp *flock.Proc) { out := sh.sc.Scan(hp, lo, hi, limit); buf.Store(&out) },
			Commit: func() { parts[s] = *buf.Load() },
		}
	})
	return engine.MergeRuns(parts, limit)
}
