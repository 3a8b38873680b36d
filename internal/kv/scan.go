// Range scans over the sharded store. Hash routing scatters every key
// interval across all shards, so a scan is a scatter-gather: each
// shard's ordered structure contributes a sorted run from its own
// top-level Scan, and the runs are merged by key up to the limit
// (engine.MergeRuns). On a store built by NewComposed the per-shard
// scans run inside the engine's optimistic arm, validated against a
// version vector over every shard lock (DESIGN.md S12, S13).

package kv

import (
	"fmt"

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
// bound sentinels, see set.ClampScanBounds).
//
// On a store built by New each shard's run is its structure's top-level
// Scan, taken shard by shard with no lock, so the result is weakly
// consistent: every returned pair was present, and every missing
// in-range key absent, at some instant during the scan. On a store built
// by NewComposed the same per-shard scans are validated against the
// shard locks' versions and re-scanned where a version moved, until the
// whole vector validates, so the scan is atomic with respect to the
// transactions that hold those locks; plain Client writes on such a
// store take no shard lock and stay weakly consistent with it.
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
	parts := make([][]set.KV, len(st.shards))
	read := func(s int) { parts[s] = st.shards[s].sc.Scan(c.p, lo, hi, limit) }
	if st.composed && !c.p.InThunk() {
		st.eng.Optimistic(c.p, st.eng.AllShards(), read)
	} else {
		for s := range parts {
			read(s)
		}
	}
	return engine.MergeRuns(parts, limit)
}
