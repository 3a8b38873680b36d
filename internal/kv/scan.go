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

// Scan returns up to limit key-value pairs with lo <= key <= hi, merged
// in ascending key order across every shard (limit < 0 means unbounded,
// limit 0 yields an empty result; 0 and MaxUint64 are the open-interval
// bound sentinels, see set.ClampScanBounds). With
// Options.OptimisticReads (and a capable structure) the scan runs the
// engine's optimistic arm: unlogged per-shard scans validated against a
// version vector over every shard lock, re-scanning only the shards
// whose version moved until the vector validates. Otherwise it runs the
// locked arm, where each shard contributes a run collected by the
// structure's scan thunk while that shard's lock is held: one composed
// critical section over all shards on a txn store (so the scan is
// atomic with respect to multi-key transactions — as is a validated
// optimistic scan, per the version-vector argument), ascending
// one-shard sections on a plain store. Plain single-key Client
// operations never take shard locks, so the result is weakly consistent
// with respect to them either way: every returned pair was present, and
// every missing in-range key absent, at some instant during the scan.
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
	defer traceOp(c.p, t0, multiShard, trace.KVScan)
	if !st.optScan || c.p.InThunk() {
		return c.scanLocked(lo, hi, limit)
	}
	parts := make([][]set.KV, len(st.shards))
	st.eng.Optimistic(c.p, st.eng.AllShards(), func(s int) {
		parts[s] = st.shards[s].osc.OptimisticScan(c.p, lo, hi, limit)
	})
	return engine.MergeRuns(parts, limit)
}

// scanLocked is the logged arm: per-shard scan thunks under the shard
// locks, routed through the engine (see Scan for the composed vs
// per-shard split).
func (c *Client) scanLocked(lo, hi uint64, limit int) []set.KV {
	st := c.st
	parts := make([][]set.KV, len(st.shards))
	st.eng.Locked(c.p, st.eng.AllShards(), func(sec []int) engine.Attempt {
		// The bodies publish runs through a per-attempt buffer,
		// idempotently: every run recomputes identical runs from logged
		// loads. A one-shard section (every section of a plain store)
		// publishes its run without a slice of runs: the general body's
		// extra bytes per section cost blocking YCSB-E about a tenth of
		// its throughput (EXPERIMENTS.md, "One runtime per store").
		if len(sec) == 1 {
			s := sec[0]
			sh := &st.shards[s]
			one := &atomic.Pointer[[]set.KV]{}
			return engine.Attempt{
				Body:   func(hp *flock.Proc) { run := sh.sc.Scan(hp, lo, hi, limit); one.Store(&run) },
				Commit: func() { parts[s] = *one.Load() },
			}
		}
		buf := &atomic.Pointer[[][]set.KV]{}
		return engine.Attempt{
			Body: func(hp *flock.Proc) {
				out := make([][]set.KV, len(sec))
				for j, s := range sec {
					out[j] = st.shards[s].sc.Scan(hp, lo, hi, limit)
				}
				buf.Store(&out)
			},
			Commit: func() {
				for j, s := range sec {
					parts[s] = (*buf.Load())[j]
				}
			},
		}
	})
	return engine.MergeRuns(parts, limit)
}
