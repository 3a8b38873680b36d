// Package kv is a sharded concurrent key-value store composed from the
// repository's set structures: N shards, each with its own
// flock.Runtime and structure instance, with keys routed to shards by
// a salted workload.Hash64. It is the first layer of the serving architecture
// the ROADMAP calls for (DESIGN.md S9): sharding multiplies the
// single-structure throughput the paper measures, and the per-shard
// runtimes keep epoch reclamation and helping traffic local.
//
// The store exposes Get, Put (upsert), Delete and ReadModifyWrite plus
// batch variants. Put and ReadModifyWrite are atomic — one
// linearization point, no transient absent window — when the underlying
// structure implements set.Upserter (leaftree and hashtable do); for
// other structures they fall back to delete-then-insert, which is
// documented as non-atomic under contention (NativeUpsert reports which
// regime a store is in).
//
// Two extension points serve the transactional layer (internal/txn):
// Options.SharedRuntime routes every shard through one flock.Runtime so
// cross-shard thunks compose soundly, and each shard carries a
// flock.Lock handle (ShardLock) that transactions acquire — nested, in
// ascending shard order — around the Shard* operations. Plain Client
// operations take neither.
package kv

import (
	"sync"
	"sync/atomic"

	flock "flock/internal/core"
	"flock/internal/kv/engine"
	"flock/internal/obs"
	"flock/internal/obs/trace"
	"flock/internal/structures/set"
	"flock/internal/workload"
)

// Factory builds one shard's structure instance, sized for that shard's
// expected key count. It has the same shape as the harness registry's
// factories.
type Factory func(rt *flock.Runtime, keyRange uint64) set.Set

// Options configures a Store.
type Options struct {
	// Shards is the shard count; values < 1 mean 1 (unsharded).
	Shards int
	// Blocking selects the lock mode of every shard's runtime.
	Blocking bool
	// NoPool disables descriptor/log-block/mbox pooling on every
	// shard's runtime (the GC-fresh ablation arm; see flock.NoPool).
	NoPool bool
	// KeyRange is a sizing hint: the expected total number of distinct
	// keys, split evenly across shards when sizing each structure
	// (hashtable bucket arrays, for example). 0 defaults to 1<<16.
	KeyRange uint64
	// SharedRuntime routes every shard through one flock.Runtime
	// instead of a private runtime per shard. A shared runtime is what
	// makes cross-shard composed critical sections sound: nested
	// TryLock acquisitions spanning shards then share one epoch manager
	// (helpers' guards protect memory retired on any shard) and one
	// mode flag (all runs of a composed thunk agree on lock-free vs
	// blocking). internal/txn requires it; plain KV serving prefers
	// per-shard runtimes, which keep reclamation and helping local.
	SharedRuntime bool
	// OptimisticReads routes Get, Scan and MultiGet through unlogged
	// optimistic reads validated against the shard locks' version
	// counters (flock.Lock.ReadVersion), helping a held shard lock,
	// re-reading only the shards whose version moved, and escalating to
	// the ordinary logged path under the shard locks when one shard
	// would need more than MaxOptimistic reads. It
	// takes effect only when the structure implements the matching
	// set.OptimisticReader / set.OptimisticScanner capability (see
	// Store.OptimisticReads / OptimisticScans); otherwise the logged
	// path is used unchanged.
	OptimisticReads bool
}

// shard is one partition: a runtime (private, or shared by every shard
// under Options.SharedRuntime), a structure bound to it, and a shard
// lock used by internal/txn to compose cross-shard critical sections.
// Plain single-key and batch operations never touch the shard lock.
type shard struct {
	rt  *flock.Runtime
	s   set.Set
	up  set.Upserter          // nil when s has no native upsert
	sc  set.Scanner           // nil when s is not ordered (no range scans)
	or  set.OptimisticReader  // nil when s has no unlogged Find
	osc set.OptimisticScanner // nil when s has no unlogged Scan
	loc set.Locator           // nil when s has no located point ops
	// lck serializes transactional access to this shard (internal/txn
	// acquires the locks of every touched shard in ascending index
	// order, nested, inside one composed thunk). It lives here, with
	// the shard, so the lock handle and the structure it protects have
	// one owner.
	lck flock.Lock
}

// Store is a sharded concurrent KV store. Create clients with Register;
// all data-path methods live on Client.
type Store struct {
	shards  []shard
	native  bool
	scan    bool           // every shard implements set.Scanner
	optGet  bool           // OptimisticReads requested and Find arm capable
	optScan bool           // OptimisticReads requested and Scan arm capable
	rt      *flock.Runtime // non-nil iff Options.SharedRuntime
	// eng executes every multi-shard operation: lock nesting, retry
	// loops, the optimistic version-vector arm, and their obs/trace
	// accounting all live there (internal/kv/engine, DESIGN.md S17).
	eng *engine.Engine
	// snaps is the live-snapshot registry (snapshot.go): an immutable
	// COW list the write paths consult to record pre-images. nil or
	// empty when no snapshot is active, so the write-side check is one
	// atomic load. Every transition installs a freshly allocated snapList
	// (never nil, so no transition's CAS can land twice) inside a
	// brief all-shard locked section (the activation cut); snapMu
	// serializes the administrative transitions themselves.
	snaps  atomic.Pointer[snapList]
	snapMu sync.Mutex
	// clients counts live handles (monitoring/tests only).
	clients atomic.Int64
	// Optimistic-read counters: discarded shard reads (lock still held
	// after helping, or version moved under the read) and escalations to
	// the logged path. The
	// harness samples them around measured windows (RunStats).
	optRestarts    atomic.Uint64
	optEscalations atomic.Uint64
	// shardOps accumulates per-shard routed-op counts for skew
	// visibility (obs metrics). Clients count locally, with no
	// synchronization, and fold into these atomics on Close; counts only
	// accrue while obs metrics are enabled.
	shardOps []atomic.Uint64
}

// New builds a store whose shards each hold a fresh structure from f.
func New(f Factory, opt Options) *Store {
	n := opt.Shards
	if n < 1 {
		n = 1
	}
	kr := opt.KeyRange
	if kr == 0 {
		kr = 1 << 16
	}
	perShard := kr/uint64(n) + 1
	st := &Store{
		shards: make([]shard, n), native: true, scan: true,
		optGet: opt.OptimisticReads, optScan: opt.OptimisticReads,
		shardOps: make([]atomic.Uint64, n),
	}
	var fopts []flock.Option
	if opt.NoPool {
		fopts = append(fopts, flock.NoPool())
	}
	if opt.SharedRuntime {
		st.rt = flock.New(fopts...)
		st.rt.SetBlocking(opt.Blocking)
	}
	for i := range st.shards {
		rt := st.rt
		if rt == nil {
			rt = flock.New(fopts...)
			rt.SetBlocking(opt.Blocking)
		}
		s := f(rt, perShard)
		up, _ := s.(set.Upserter)
		if up == nil {
			st.native = false
		}
		sc, _ := s.(set.Scanner)
		if sc == nil {
			st.scan = false
		}
		or, _ := s.(set.OptimisticReader)
		if or == nil {
			st.optGet = false
		}
		osc, _ := s.(set.OptimisticScanner)
		if osc == nil {
			st.optScan = false
		}
		loc, _ := s.(set.Locator)
		st.shards[i] = shard{rt: rt, s: s, up: up, sc: sc, or: or, osc: osc, loc: loc}
	}
	locks := make([]*flock.Lock, n)
	rts := make([]*flock.Runtime, n)
	for i := range st.shards {
		locks[i] = &st.shards[i].lck
		rts[i] = st.shards[i].rt
	}
	st.eng = engine.New(engine.Config{
		Locks: locks, Runtimes: rts, Shared: st.rt, Route: st.ShardOf,
		Restarts: &st.optRestarts, Escalations: &st.optEscalations,
	})
	return st
}

// Engine exposes the store's shard-group execution engine. The
// transaction layer runs its composed commit sections and footprint
// planning through it; most callers want the higher-level Client and
// Store methods instead.
func (st *Store) Engine() *engine.Engine { return st.eng }

// OptimisticReads reports whether Get and MultiGet run the optimistic
// unlogged arm (Options.OptimisticReads was set and the structure
// implements set.OptimisticReader).
func (st *Store) OptimisticReads() bool { return st.optGet }

// OptimisticScans reports whether Scan runs the optimistic unlogged arm
// (Options.OptimisticReads was set and the structure implements
// set.OptimisticScanner).
func (st *Store) OptimisticScans() bool { return st.optScan }

// OptimisticStats returns the cumulative optimistic-read counters:
// restarts (discarded shard reads across Get, Scan, MultiGet and
// snapshot chunks) and
// escalations to the logged path. Monotonic; sample before/after a
// window to attribute counts to it.
func (st *Store) OptimisticStats() (restarts, escalations uint64) {
	return st.optRestarts.Load(), st.optEscalations.Load()
}

// ShardOps returns the cumulative per-shard routed-op counts folded in
// by closed clients (single-key and batch operations; scans excluded).
// Counts accrue only while obs metrics are enabled, and a client's
// contribution lands when it closes — sample after workers have closed
// their clients to see a whole window. Monotonic; diff two samples to
// attribute counts to a window.
func (st *Store) ShardOps() []uint64 {
	out := make([]uint64, len(st.shardOps))
	for i := range st.shardOps {
		out[i] = st.shardOps[i].Load()
	}
	return out
}

// Runtime returns the store-wide runtime when the store was built with
// Options.SharedRuntime, and nil for per-shard-runtime stores.
func (st *Store) Runtime() *flock.Runtime { return st.rt }

// ShardLock returns shard i's lock handle. It is the composition point
// for internal/txn: multi-shard critical sections nest TryLock calls on
// these handles in ascending shard order. Meaningful serialization
// against other lock holders only; plain Client operations do not
// acquire it.
func (st *Store) ShardLock(i int) *flock.Lock { return &st.shards[i].lck }

// NumShards returns the shard count.
func (st *Store) NumShards() int { return len(st.shards) }

// NativeUpsert reports whether every shard supports atomic in-thunk
// upserts (set.Upserter). When false, Put and ReadModifyWrite use the
// non-atomic delete-then-insert fallback.
func (st *Store) NativeUpsert() bool { return st.native }

// SetStallInjection forwards deschedule injection to every shard's
// runtime (see flock.Runtime.SetStallInjection).
func (st *Store) SetStallInjection(n int) {
	for i := range st.shards {
		st.shards[i].rt.SetStallInjection(n)
	}
}

// shardSalt decorrelates shard routing from the structures' own key
// hashing: hashtable buckets index by the *same* splitmix64 finalizer,
// so routing on bare Hash64(k) with a power-of-two shard count would
// pin the low bits of every in-shard bucket index and leave (shards-1)/
// shards of each shard's buckets unreachable.
const shardSalt = 0xd1b54a32d192ed03

// ShardOf returns the shard index key k routes to: a stateless salted
// hash, so every client agrees, the mapping survives restarts, and the
// routing bits are independent of any structure-internal hash of k.
func (st *Store) ShardOf(k uint64) int {
	return int(workload.Hash64(k^shardSalt) % uint64(len(st.shards)))
}

// Client is one goroutine's handle on the store: it holds a registered
// Proc per shard. A Client must only be used by one goroutine at a time;
// Close releases its epoch slots.
type Client struct {
	st    *Store
	procs []*flock.Proc
	// ops counts this client's routed single-key and batch operations
	// per shard (plain increments — the client is single-goroutine);
	// folded into Store.shardOps on Close. Scans are excluded: a
	// scatter-gather scan touches every shard by construction, so it
	// carries no skew signal.
	ops []uint64
}

// Register creates a client, registering a worker context with every
// shard's runtime (one shared Proc when the store has a shared
// runtime).
func (st *Store) Register() *Client {
	c := &Client{
		st:    st,
		procs: make([]*flock.Proc, len(st.shards)),
		ops:   make([]uint64, len(st.shards)),
	}
	if st.rt != nil {
		p := st.rt.Register()
		for i := range c.procs {
			c.procs[i] = p
		}
	} else {
		for i := range st.shards {
			c.procs[i] = st.shards[i].rt.Register()
		}
	}
	st.clients.Add(1)
	return c
}

// SharedProc returns the client's single Proc on a shared-runtime
// store. It panics on per-shard-runtime stores, where no one Proc is
// valid across shards.
func (c *Client) SharedProc() *flock.Proc {
	if c.st.rt == nil {
		panic("kv: SharedProc on a store without Options.SharedRuntime")
	}
	return c.procs[0]
}

// Close unregisters the client from every shard and folds its per-shard
// op counts into the store's skew totals.
func (c *Client) Close() {
	for i, n := range c.ops {
		if n != 0 {
			c.st.shardOps[i].Add(n)
		}
	}
	if c.st.rt != nil {
		c.procs[0].Unregister()
	} else {
		for _, p := range c.procs {
			p.Unregister()
		}
	}
	c.st.clients.Add(-1)
}

// note counts one routed operation against shard i (metrics only).
func (c *Client) note(i int) {
	if obs.On() {
		c.ops[i]++
	}
}

// route returns the shard index, shard and Proc for k.
func (c *Client) route(k uint64) (int, *shard, *flock.Proc) {
	i := c.st.ShardOf(k)
	c.note(i)
	return i, &c.st.shards[i], c.procs[i]
}

// Get returns the value stored under k, if present. With
// Options.OptimisticReads (and a capable structure) the lookup runs as
// an unlogged optimistic read validated against the shard lock's
// version, helping the lock's holder when it finds the lock held and
// escalating to a logged read under the shard lock after MaxOptimistic
// failed reads (optimistic.go).
func (c *Client) Get(k uint64) (uint64, bool) {
	t0 := traceStart()
	i, sh, p := c.route(k)
	var v uint64
	var ok bool
	if c.st.optGet && !p.InThunk() {
		v, ok = c.optimisticGet(sh, p, i, k)
	} else {
		v, ok = sh.s.Find(p, k)
	}
	traceOp(p, t0, uint64(i), trace.KVGet)
	return v, ok
}

// put is the shared upsert path: native single-critical-section upsert
// when available, otherwise delete-then-insert. The fallback has a
// transient absent window under contention and its "newly inserted" bit
// is only a best-effort observation.
func put(sh *shard, p *flock.Proc, k, v uint64) (inserted bool) {
	if sh.up != nil {
		_, present := sh.up.Upsert(p, k, func(uint64, bool) uint64 { return v })
		return !present
	}
	replaced := false
	for {
		if sh.s.Insert(p, k, v) {
			return !replaced
		}
		replaced = true
		sh.s.Delete(p, k)
	}
}

// Put upserts (k, v) and reports whether k was newly inserted (false
// means an existing value was replaced).
func (c *Client) Put(k, v uint64) bool {
	t0 := traceStart()
	i, sh, p := c.route(k)
	c.st.snapRecord(p, i, k)
	r := put(sh, p, k, v)
	traceOp(p, t0, uint64(i), trace.KVPut)
	return r
}

// The Shard* operations run one key's operation on a known shard with
// an explicit Proc. They exist for internal/txn, whose composed
// critical sections execute on whichever Proc is running the thunk (the
// owner's or a helper's) rather than on a registered Client's. The
// caller is responsible for routing (ShardOf) and, in transactional
// use, for holding the relevant shard locks.

// ShardPut upserts (k, v) on shard i with Proc p, reporting whether k
// was newly inserted. Inside a composed thunk the report is
// deterministic across helper runs (it flows from logged loads), which
// is what lets transactions publish insert counts idempotently.
func (st *Store) ShardPut(i int, p *flock.Proc, k, v uint64) bool {
	st.snapRecord(p, i, k)
	return put(&st.shards[i], p, k, v)
}

// ShardLocate returns k's position on shard i, found by an unlogged
// search (set.Locator), as input for a later ShardGetAt or ShardPutAt
// inside a critical section. It must be called at top level. On a
// structure without the capability it returns the zero Position, with
// which ShardGetAt is a plain lookup and ShardPutAt is ShardPut.
func (st *Store) ShardLocate(i int, p *flock.Proc, k uint64) set.Position {
	if loc := st.shards[i].loc; loc != nil {
		return loc.Locate(p, k)
	}
	return set.Position{}
}

// ShardGetAt looks up k on shard i with Proc p, starting from at, a
// position ShardLocate returned for k there (possibly stale; see
// set.Locator).
func (st *Store) ShardGetAt(i int, p *flock.Proc, at set.Position, k uint64) (uint64, bool) {
	return st.shards[i].findAt(p, at, k)
}

// ShardPutAt is ShardPut starting from at, a position ShardLocate
// returned for k on shard i. The snapshot pre-image is read from the
// same position.
func (st *Store) ShardPutAt(i int, p *flock.Proc, at set.Position, k, v uint64) bool {
	if at.Node == nil {
		return st.ShardPut(i, p, k, v)
	}
	st.snapRecordAt(p, i, at, k)
	_, present := st.shards[i].loc.UpsertAt(p, at, k, v)
	return !present
}

// findAt is Find, starting from at when it names a position.
func (sh *shard) findAt(p *flock.Proc, at set.Position, k uint64) (uint64, bool) {
	if at.Node == nil {
		return sh.s.Find(p, k)
	}
	return sh.loc.FindAt(p, at, k)
}

// ShardDelete removes k on shard i with Proc p.
func (st *Store) ShardDelete(i int, p *flock.Proc, k uint64) bool {
	st.snapRecord(p, i, k)
	return st.shards[i].s.Delete(p, k)
}

// Delete removes k and reports whether it was present.
func (c *Client) Delete(k uint64) bool {
	t0 := traceStart()
	i, sh, p := c.route(k)
	c.st.snapRecord(p, i, k)
	r := sh.s.Delete(p, k)
	traceOp(p, t0, uint64(i), trace.KVDelete)
	return r
}

// ReadModifyWrite atomically replaces k's value with f(old, present)
// (inserting if absent) and returns the previous value and presence.
// f must be pure: with a native upserter it may run inside a critical
// section that helpers re-execute. Without native upsert the
// read-compute-write sequence is not atomic under contention on k.
func (c *Client) ReadModifyWrite(k uint64, f func(old uint64, present bool) uint64) (uint64, bool) {
	t0 := traceStart()
	i, sh, p := c.route(k)
	c.st.snapRecord(p, i, k)
	v, ok := rmw(sh, p, k, f)
	traceOp(p, t0, uint64(i), trace.KVRMW)
	return v, ok
}

// rmw is ReadModifyWrite's core (see its contract).
func rmw(sh *shard, p *flock.Proc, k uint64, f func(old uint64, present bool) uint64) (uint64, bool) {
	if sh.up != nil {
		return sh.up.Upsert(p, k, f)
	}
	for {
		old, ok := sh.s.Find(p, k)
		nv := f(old, ok)
		if !ok {
			if sh.s.Insert(p, k, nv) {
				return 0, false
			}
			continue // lost an insert race; re-read
		}
		if sh.s.Delete(p, k) {
			for !sh.s.Insert(p, k, nv) {
				sh.s.Delete(p, k)
			}
			return old, true
		}
		// Someone else deleted first; re-read.
	}
}

// byShard visits keys grouped by shard (all of shard 0's keys, then
// shard 1's, ...) so each shard's structure is walked consecutively.
// visit receives the original index of each key and its shard index.
func (c *Client) byShard(keys []uint64, visit func(i, s int, sh *shard, p *flock.Proc)) {
	n := len(c.st.shards)
	if n == 1 {
		sh, p := &c.st.shards[0], c.procs[0]
		if obs.On() {
			c.ops[0] += uint64(len(keys))
		}
		for i := range keys {
			visit(i, 0, sh, p)
		}
		return
	}
	// Two-pass counting sort of key indices by shard.
	counts := make([]int, n+1)
	shardOf := make([]int, len(keys))
	for i, k := range keys {
		s := c.st.ShardOf(k)
		shardOf[i] = s
		counts[s+1]++
	}
	for s := 0; s < n; s++ {
		counts[s+1] += counts[s]
	}
	order := make([]int, len(keys))
	next := counts
	for i := range keys {
		s := shardOf[i]
		order[next[s]] = i
		next[s]++
	}
	track := obs.On()
	for _, i := range order {
		s := shardOf[i]
		if track {
			c.ops[s]++
		}
		visit(i, s, &c.st.shards[s], c.procs[s])
	}
}

// GetBatch looks up every key, filling vals and oks (which it returns;
// both are freshly allocated, len(keys) each).
func (c *Client) GetBatch(keys []uint64) (vals []uint64, oks []bool) {
	t0 := traceStart()
	vals = make([]uint64, len(keys))
	oks = make([]bool, len(keys))
	c.byShard(keys, func(i, _ int, sh *shard, p *flock.Proc) {
		vals[i], oks[i] = sh.s.Find(p, keys[i])
	})
	traceOp(c.procs[0], t0, multiShard, trace.KVGet)
	return vals, oks
}

// PutBatch upserts keys[i] -> vals[i] for every i (len(vals) must equal
// len(keys)) and returns how many keys were newly inserted.
func (c *Client) PutBatch(keys, vals []uint64) int {
	if len(keys) != len(vals) {
		panic("kv: PutBatch length mismatch")
	}
	t0 := traceStart()
	inserted := 0
	c.byShard(keys, func(i, s int, sh *shard, p *flock.Proc) {
		c.st.snapRecord(p, s, keys[i])
		if put(sh, p, keys[i], vals[i]) {
			inserted++
		}
	})
	traceOp(c.procs[0], t0, multiShard, trace.KVPut)
	return inserted
}

// DeleteBatch removes every key and returns how many were present.
func (c *Client) DeleteBatch(keys []uint64) int {
	t0 := traceStart()
	deleted := 0
	c.byShard(keys, func(i, s int, sh *shard, p *flock.Proc) {
		c.st.snapRecord(p, s, keys[i])
		if sh.s.Delete(p, keys[i]) {
			deleted++
		}
	})
	traceOp(c.procs[0], t0, multiShard, trace.KVDelete)
	return deleted
}
