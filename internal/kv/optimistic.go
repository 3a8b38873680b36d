// Optimistic read arms for the sharded store (DESIGN.md S13). A plain
// Get never takes the shard lock, so its logged cost is only the
// descriptor-free traversal — but under Options.OptimisticReads even
// that traversal runs unlogged, validated against the shard lock's
// version counter: the shard lock is the store's only write-side
// serialization point for lock-holding readers and transactions, so an
// unchanged version across the read window proves no locked critical
// section (a transaction, a locked scan, a snapshot activation)
// overlapped the read. Get, MultiGet, Scan and snapshot chunks all run
// the engine's one optimistic loop (internal/kv/engine, DESIGN.md S17):
// it helps a held shard lock instead of restarting, validates the
// version vector of every involved shard after each round, and re-reads
// only the shards whose version moved, until the vector validates. This
// file supplies MultiGet's data loads; Get calls the engine's
// single-shard lookup directly.

package kv

import "flock/internal/obs/trace"

// MultiGet looks up every key, filling vals and oks (freshly allocated,
// len(keys) each). Unlike GetBatch — independent per-key lookups with
// no mutual consistency — MultiGet is an atomic multi-key read on
// stores where the shard locks serialize writers (txn stores, built by
// NewComposed): the engine's optimistic arm validates a version vector
// over every involved shard around the reads. It backs internal/txn's
// read-only MultiGet fast path. Without Options.OptimisticReads (or a
// capable structure) it degrades to GetBatch semantics.
func (c *Client) MultiGet(keys []uint64) (vals []uint64, oks []bool) {
	if !c.st.optGet || c.p.InThunk() {
		return c.GetBatch(keys)
	}
	t0 := traceStart()
	defer traceOp(c.p, t0, multiShard, trace.KVBatch)
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

	st.eng.Optimistic(c.p, involved, func(s int) {
		for i, k := range keys {
			if shardOf[i] == s {
				vals[i], oks[i] = st.shards[s].or.OptimisticFind(c.p, k)
			}
		}
	})
	return vals, oks
}
