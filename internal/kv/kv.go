// Package kv is a sharded concurrent key-value store composed from the
// repository's set structures: N shards, each with its own structure
// instance, with keys routed to shards by a salted workload.Hash64. It
// is the first layer of the serving architecture the ROADMAP calls for
// (DESIGN.md S9): sharding multiplies the single-structure throughput
// the paper measures. Every shard runs on the store's one
// flock.Runtime, so every helper agrees on one epoch manager and one
// mode flag, and a Client is one registered flock.Proc.
//
// The store exposes Get, Put (upsert), Delete and ReadModifyWrite plus
// batch variants. Put and ReadModifyWrite are atomic — one
// linearization point, no transient absent window — when the underlying
// structure implements set.Upserter (leaftree and hashtable do); for
// other structures they fall back to delete-then-insert, which is
// documented as non-atomic under contention (NativeUpsert reports which
// regime a store is in).
//
// Each store kind has one read protocol, fixed when it is built, with no
// option (DESIGN.md S13). Every shard carries a flock.Lock that
// internal/txn acquires through the store's Engine — nested, in
// ascending shard order — around the Shard* operations. On a store
// built by New no
// writer takes those locks, so Get, MultiGet, Scan and snapshot chunks
// call the structures directly, with no lock and no validation: the
// paper's optimistic traversal. On a store built by NewComposed the
// transactions that do take them are the writers to serialize against,
// so those reads run the engine's optimistic arm (internal/kv/engine)
// over the same structure reads, validated against the shard locks'
// versions. A read called inside a thunk is a plain structure read on
// both kinds.
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
	// Blocking selects the lock mode of the store's runtime.
	Blocking bool
	// KeyRange is a sizing hint: the expected total number of distinct
	// keys, split evenly across shards when sizing each structure
	// (hashtable bucket arrays, for example). 0 defaults to 1<<16.
	KeyRange uint64
}

// shard is one partition: a structure bound to the store's runtime and
// a shard lock used by internal/txn to compose cross-shard critical
// sections. Plain single-key and batch operations never touch the shard
// lock.
type shard struct {
	s   set.Set
	up  set.Upserter // nil when s has no native upsert
	sc  set.Scanner  // nil when s is not ordered (no range scans)
	loc set.Locator  // nil when s has no located point ops
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
	shards []shard
	native bool
	scan   bool // every shard implements set.Scanner
	// composed marks a store built by NewComposed: its reads validate
	// against the shard locks (see the package comment).
	composed bool
	rt       *flock.Runtime // the one runtime every shard runs on
	// eng executes every multi-shard operation: lock nesting, retry
	// loops, the optimistic version-vector arm, and their obs/trace
	// accounting all live there (internal/kv/engine, DESIGN.md S17).
	eng *engine.Engine
	// snaps is the live-snapshot registry (snapshot.go): an immutable
	// COW list the write paths consult to record pre-images. nil or
	// empty when no snapshot is active, so the write-side check is one
	// atomic load. Every transition installs a freshly allocated snapList
	// (never nil, so no transition's CAS can land twice) inside a brief
	// composed section over every shard lock (the activation cut);
	// snapMu serializes the administrative transitions themselves.
	snaps  atomic.Pointer[snapList]
	snapMu sync.Mutex
	// optRestarts counts discarded validated shard reads (lock still
	// held after helping, or version moved under the read); it stays 0
	// on a store built by New. The harness samples it around measured
	// windows (RunStats).
	optRestarts atomic.Uint64
	// shardOps accumulates per-shard routed-op counts for skew
	// visibility (obs metrics). Clients count locally, with no
	// synchronization, and fold into these atomics on Close; counts only
	// accrue while obs metrics are enabled.
	shardOps []atomic.Uint64
}

// New builds a store whose shards each hold a fresh structure from f.
// Its writers take no shard lock, so its reads call the structures
// directly.
func New(f Factory, opt Options) *Store { return newStore(f, opt, false) }

// NewComposed is New for a store whose writers take shard locks
// (internal/txn builds its stores with it): Get, MultiGet, Scan and
// snapshot chunks validate against those locks' versions, so they are
// atomic with respect to those writers.
func NewComposed(f Factory, opt Options) *Store { return newStore(f, opt, true) }

func newStore(f Factory, opt Options, composed bool) *Store {
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
		shards: make([]shard, n), native: true, scan: true, composed: composed,
		shardOps: make([]atomic.Uint64, n),
	}
	st.rt = flock.New()
	st.rt.SetBlocking(opt.Blocking)
	locks := make([]*flock.Lock, n)
	for i := range st.shards {
		s := f(st.rt, perShard)
		up, _ := s.(set.Upserter)
		if up == nil {
			st.native = false
		}
		sc, _ := s.(set.Scanner)
		if sc == nil {
			st.scan = false
		}
		loc, _ := s.(set.Locator)
		st.shards[i] = shard{s: s, up: up, sc: sc, loc: loc}
		locks[i] = &st.shards[i].lck
	}
	st.eng = engine.New(engine.Config{
		Locks: locks, Route: st.ShardOf, Restarts: &st.optRestarts,
	})
	return st
}

// Engine exposes the store's shard-group execution engine. The
// transaction layer runs its composed commit sections and footprint
// planning through it; most callers want the higher-level Client and
// Store methods instead.
func (st *Store) Engine() *engine.Engine { return st.eng }

// OptimisticStats returns the cumulative count of optimistic restarts
// (discarded validated shard reads across Get, Scan, MultiGet and
// snapshot chunks; always 0 on a store built by New). Monotonic; sample
// before/after a window to attribute counts to it. The second result
// always reads 0 (a validated read has no fallback to count); it stays
// only while perfbench reads both results.
func (st *Store) OptimisticStats() (restarts, _ uint64) {
	return st.optRestarts.Load(), 0
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

// ShardLock returns shard i's lock handle. Only tests call it, to
// inspect or hold a shard lock, because the Engine's locks are
// unexported; internal/txn takes the shard locks through Engine. Plain
// Client operations do not acquire it.
func (st *Store) ShardLock(i int) *flock.Lock { return &st.shards[i].lck }

// NumShards returns the shard count.
func (st *Store) NumShards() int { return len(st.shards) }

// NativeUpsert reports whether every shard supports atomic in-thunk
// upserts (set.Upserter). When false, Put and ReadModifyWrite use the
// non-atomic delete-then-insert fallback.
func (st *Store) NativeUpsert() bool { return st.native }

// SetStallInjection forwards deschedule injection to the store's
// runtime (see flock.Runtime.SetStallInjection).
func (st *Store) SetStallInjection(n int) { st.rt.SetStallInjection(n) }

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

// Client is one goroutine's handle on the store: one Proc registered
// with the store's runtime. A Client must only be used by one goroutine
// at a time; Close releases its epoch slot.
type Client struct {
	st *Store
	p  *flock.Proc
	// ops counts this client's routed single-key and batch operations
	// per shard (plain increments — the client is single-goroutine);
	// folded into Store.shardOps on Close. Scans are excluded: a
	// scatter-gather scan touches every shard by construction, so it
	// carries no skew signal.
	ops []uint64
	// Top-level scratch, reused across operations and never captured by
	// a thunk: a read called inside a thunk may be replayed by a helper,
	// so it allocates its own. runs holds Scan's per-shard runs, seen,
	// shardOf and group MultiGet's planner bitmap, key-to-shard map and
	// shard group. None keeps a buffer above maxScratch elements
	// (retain).
	runs    [][]set.KV
	seen    []bool
	shardOf []int
	group   []int
}

// maxScratch caps each scratch buffer a Client keeps between
// operations, so a whole-store Scan or a huge MultiGet does not leave a
// copy of its footprint pinned to the client.
const maxScratch = 1024

// retain returns buf for reuse by the next operation, or nil when it
// has grown past maxScratch elements.
func retain[T any](buf []T) []T {
	if cap(buf) > maxScratch {
		return nil
	}
	return buf
}

// Register creates a client, registering a worker context with the
// store's runtime.
func (st *Store) Register() *Client {
	n := len(st.shards)
	return &Client{
		st: st, p: st.rt.Register(), ops: make([]uint64, n),
		runs: make([][]set.KV, n), seen: make([]bool, n),
	}
}

// Proc returns the client's registered Proc, valid on every shard
// (internal/txn runs its composed sections on it).
func (c *Client) Proc() *flock.Proc { return c.p }

// Close unregisters the client and folds its per-shard op counts into
// the store's skew totals.
func (c *Client) Close() {
	for i, n := range c.ops {
		if n != 0 {
			c.st.shardOps[i].Add(n)
		}
	}
	c.p.Unregister()
}

// note counts one routed operation against shard i (metrics only).
func (c *Client) note(i int) {
	if obs.On() {
		c.ops[i]++
	}
}

// route returns the shard index and shard for k.
func (c *Client) route(k uint64) (int, *shard) {
	i := c.st.ShardOf(k)
	c.note(i)
	return i, &c.st.shards[i]
}

// Get returns the value stored under k, if present. On a store built
// by NewComposed the lookup is validated against the shard lock's
// version, helping the lock's holder when it finds the lock held and
// reading again until a read validates (internal/kv/engine).
func (c *Client) Get(k uint64) (uint64, bool) {
	t0 := traceStart()
	i, sh := c.route(k)
	var v uint64
	var ok bool
	if c.st.composed && !c.p.InThunk() {
		v, ok = c.st.eng.OptimisticFind(c.p, i, sh.s, k)
	} else {
		v, ok = sh.s.Find(c.p, k)
	}
	traceOp(c.p, t0, uint64(i), trace.KVGet)
	return v, ok
}

// put is the shared upsert path: native single-critical-section upsert
// when available, otherwise delete-then-insert. The fallback has a
// transient absent window under contention and its "newly inserted" bit
// is only a best-effort observation.
func put(sh *shard, p *flock.Proc, k, v uint64) (inserted bool) {
	if sh.up != nil {
		a := putArgs.Get(p)
		a.v = v
		_, present := sh.up.Upsert(p, k, a.f)
		putArgs.Put(p, a)
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

// putArg is a Put's upsert function, the method value f bound when the
// putArg is made, so put builds no closure. A helper may call f after
// put returns, so putArgs reuses it only after its grace period.
type putArg struct {
	v uint64
	f func(uint64, bool) uint64
}

func (a *putArg) value(uint64, bool) uint64 { return a.v }

var putArgs = flock.NewRecycler(func() *putArg {
	a := &putArg{}
	a.f = a.value
	return a
})

// Put upserts (k, v) and reports whether k was newly inserted (false
// means an existing value was replaced).
func (c *Client) Put(k, v uint64) bool {
	t0 := traceStart()
	i, sh := c.route(k)
	c.st.snapRecord(c.p, i, k)
	r := put(sh, c.p, k, v)
	traceOp(c.p, t0, uint64(i), trace.KVPut)
	return r
}

// The Shard* operations run one key's operation on a known shard with
// an explicit Proc. They exist for internal/txn, whose composed
// critical sections execute on whichever Proc is running the thunk (the
// owner's or a helper's) rather than on a registered Client's. The
// caller is responsible for routing (ShardOf) and, in transactional
// use, for holding the relevant shard locks.

// ShardLocate returns k's position on shard i, found by an unlogged
// search (set.Locator), as input for a later ShardGetAt or ShardPutAt
// inside a critical section. It must be called at top level. On a
// structure without the capability it returns the zero Position, with
// which ShardGetAt and ShardPutAt are a plain lookup and upsert.
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

// ShardPutAt upserts (k, v) on shard i with Proc p, starting from at, a
// position ShardLocate returned for k there, and reports whether k was
// newly inserted. Inside a composed thunk the report is deterministic
// across helper runs (it flows from logged loads), which is what lets
// transactions publish insert counts idempotently. The snapshot
// pre-image is read from the same position.
func (st *Store) ShardPutAt(i int, p *flock.Proc, at set.Position, k, v uint64) bool {
	st.snapRecordAt(p, i, at, k)
	if at.Node == nil {
		return put(&st.shards[i], p, k, v)
	}
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

// Delete removes k and reports whether it was present.
func (c *Client) Delete(k uint64) bool {
	t0 := traceStart()
	i, sh := c.route(k)
	c.st.snapRecord(c.p, i, k)
	r := sh.s.Delete(c.p, k)
	traceOp(c.p, t0, uint64(i), trace.KVDelete)
	return r
}

// ReadModifyWrite atomically replaces k's value with f(old, present)
// (inserting if absent) and returns the previous value and presence.
// f must be pure: with a native upserter it may run inside a critical
// section that helpers re-execute. Without native upsert the
// read-compute-write sequence is not atomic under contention on k.
func (c *Client) ReadModifyWrite(k uint64, f func(old uint64, present bool) uint64) (uint64, bool) {
	t0 := traceStart()
	i, sh := c.route(k)
	c.st.snapRecord(c.p, i, k)
	v, ok := rmw(sh, c.p, k, f)
	traceOp(c.p, t0, uint64(i), trace.KVRMW)
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

// MultiGet looks up every key, filling vals and oks (freshly allocated,
// len(keys) each). On a store built by NewComposed it is an atomic
// multi-key read: the engine's optimistic arm validates a version vector
// over every involved shard around the reads, so it serializes against
// the transactions that hold those locks. internal/txn's MultiGet is
// this read. On a store built by New it is GetBatch.
func (c *Client) MultiGet(keys []uint64) (vals []uint64, oks []bool) {
	if !c.st.composed || c.p.InThunk() {
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
	// group, ascending and duplicate-free, planned in client scratch.
	// This path runs only at top level, and the optimistic arm publishes
	// neither into a descriptor, so no thunk outlives the call holding
	// them.
	shardOf := c.shardOf[:0]
	for _, k := range keys {
		shardOf = append(shardOf, st.ShardOf(k))
	}
	c.shardOf = retain(shardOf)
	group := st.eng.AppendGroup(c.group[:0], c.seen, shardOf)
	c.group = retain(group)
	st.eng.Optimistic(c.p, group, func(s int) {
		for i, k := range keys {
			if shardOf[i] == s {
				vals[i], oks[i] = st.shards[s].s.Find(c.p, k)
			}
		}
	})
	return vals, oks
}

// GetBatch looks up every key, filling vals and oks (which it returns;
// both are freshly allocated, len(keys) each). The lookups are
// independent plain reads in input order, with no mutual consistency.
func (c *Client) GetBatch(keys []uint64) (vals []uint64, oks []bool) {
	t0 := traceStart()
	vals = make([]uint64, len(keys))
	oks = make([]bool, len(keys))
	for i, k := range keys {
		_, sh := c.route(k)
		vals[i], oks[i] = sh.s.Find(c.p, k)
	}
	traceOp(c.p, t0, multiShard, trace.KVGet)
	return vals, oks
}

// PutBatch upserts keys[i] -> vals[i] for every i in input order (so a
// later duplicate wins; len(vals) must equal len(keys)) and returns how
// many keys were newly inserted.
func (c *Client) PutBatch(keys, vals []uint64) int {
	if len(keys) != len(vals) {
		panic("kv: PutBatch length mismatch")
	}
	t0 := traceStart()
	inserted := 0
	for i, k := range keys {
		s, sh := c.route(k)
		c.st.snapRecord(c.p, s, k)
		if put(sh, c.p, k, vals[i]) {
			inserted++
		}
	}
	traceOp(c.p, t0, multiShard, trace.KVPut)
	return inserted
}

// DeleteBatch removes every key in input order and returns how many were
// present.
func (c *Client) DeleteBatch(keys []uint64) int {
	t0 := traceStart()
	deleted := 0
	for _, k := range keys {
		s, sh := c.route(k)
		c.st.snapRecord(c.p, s, k)
		if sh.s.Delete(c.p, k) {
			deleted++
		}
	}
	traceOp(c.p, t0, multiShard, trace.KVDelete)
	return deleted
}
