// Package txn provides multi-key atomic transactions over a sharded
// kv.Store, built by *composing* lock-free locks — the capability the
// paper holds up as the decisive advantage of lock-based lock-free code
// over bespoke lock-free structures (§4): critical sections written as
// idempotent thunks nest, so a multi-lock operation is just a thunk
// that acquires more try-locks inside.
//
// A transaction touching keys on shards {s1 < s2 < ... < sk} acquires
// the per-shard locks through the store's engine (kv.Store.Engine,
// engine.Atomic), nesting TryLock calls in ascending shard order, and
// runs all of its reads and writes in the innermost thunk. The sort order makes lock acquisition conflict-
// serializable and livelock-resistant (no cycle of transactions each
// holding a lower lock while wanting a higher one), and the flock
// runtime makes the whole composition lock-free end to end: a thread
// that finds a shard lock held helps the holder complete its *entire*
// transaction — including the holder's nested acquisitions and
// structure operations on other shards — before retrying its own.
// Within a shard, structure operations keep taking their own fine-
// grained entry locks as further nesting levels, exactly as they do
// outside transactions.
//
// Every kv store runs all its shards on one flock.Runtime, so helpers
// of a composed thunk share one epoch manager, protecting memory retired
// on any shard, and one mode flag all runs agree on. New builds
// its store with kv.NewComposed: transactions are the writers
// that take shard locks, so the store's reads (Get, MultiGet, Scan,
// snapshot chunks) validate against those locks' versions and serialize
// against them without taking a lock or logging a load.
//
// # Determinism rules for composed thunks
//
// Every rule that applies to a thunk applies to a whole transaction
// body, because the body *is* a thunk:
//
//   - A TxnFunc must be pure: helpers re-run it, and every run must
//     compute the same writes from the same (logged, therefore
//     identical) read values.
//   - Results escape a thunk only through idempotent channels. The
//     implementation publishes read values, insert counts and the
//     commit/abort decision through per-attempt atomic buffers that
//     every run overwrites with the same values.
//   - Key and value slices are defensively copied per operation:
//     a straggling helper may replay a completed transaction after the
//     caller has already reused its buffers, and a replay must see the
//     original, stable inputs (DESIGN.md S7/S11).
//   - Keys are located (set.Locator) at top level before each attempt,
//     and the positions are part of the attempt's immutable input: the
//     body validates them with logged loads, so every run takes the
//     same path, and logs O(1) steps per key instead of a descent.
//
// Per-shard locking trades intra-shard concurrency for cross-shard
// atomicity; shard count recovers parallelism. The Blocking mode keeps
// the same API as an ablation arm: it runs the identical composition
// over test-and-set locks (no helping — a descheduled holder stalls
// every conflicting transaction). The ext-txn figures' non-atomic
// baseline is not a mode: the harness issues the same operations as
// per-key kv calls on a plain store (DESIGN.md S11).
package txn

import (
	"sync/atomic"

	flock "flock/internal/core"
	"flock/internal/kv"
	"flock/internal/kv/engine"
	"flock/internal/structures/set"
)

// Mode selects a store's concurrency-control arm.
type Mode int

// The two atomic arms of the ext-txn ablation.
const (
	// LockFree composes per-shard lock-free try-locks: atomic,
	// deadlock-free by sort order, helpers complete stalled
	// transactions.
	LockFree Mode = iota
	// Blocking runs the same composed acquisition over blocking
	// test-and-set locks: atomic, but a stalled holder blocks every
	// conflicting transaction for its whole deschedule.
	Blocking
)

func (m Mode) String() string {
	if m == Blocking {
		return "blocking"
	}
	return "lockfree"
}

// Options configures a Store.
type Options struct {
	// Shards is the kv shard count; values < 1 mean 1.
	Shards int
	// Mode selects the concurrency-control arm.
	Mode Mode
	// KeyRange is the kv sizing hint (see kv.Options.KeyRange).
	KeyRange uint64
	// OptimisticReads is ignored: every store validates its
	// reads (see MultiGet). The field stays only because perfbench still
	// sets it; it goes with the next change to perfbench.
	OptimisticReads bool
}

// Store is a transactional wrapper around a sharded kv.Store. Create
// per-goroutine handles with Register.
type Store struct {
	kv *kv.Store
}

// New builds a transactional store whose shards each hold a fresh
// structure from f (the same factories the harness registry and kv
// use). f must build a flock structure whose updates use simply-nested
// try-locks (leaftree, hashtable, lazylist, ...): transactions run the
// structure's operations inside a composed thunk, so those operations
// must be loggable, deterministically replayable thunk code. Non-flock
// baselines (which ignore the runtime) and strict-lock variants would
// silently break atomicity under helping — the harness refuses them
// (see its txnCapable set).
func New(f kv.Factory, opt Options) *Store {
	kvOpt := kv.Options{Shards: opt.Shards, Blocking: opt.Mode == Blocking, KeyRange: opt.KeyRange}
	return &Store{kv: kv.NewComposed(f, kvOpt)}
}

// KV exposes the underlying store (prefill and monitoring). Writing
// through it concurrently with
// transactions forfeits transactional isolation for those writes —
// single-key operations stay individually linearizable, but they do not
// serialize against multi-key transactions.
func (s *Store) KV() *kv.Store { return s.kv }

// SetStallInjection forwards deschedule injection to the runtime (see
// flock.Runtime.SetStallInjection). Stalls strike while holding shard
// locks, which is precisely the event the two modes react to
// differently.
func (s *Store) SetStallInjection(n int) { s.kv.SetStallInjection(n) }

// Client is one goroutine's transactional handle. A Client must only be
// used by one goroutine at a time; Close releases it.
type Client struct {
	st  *Store
	kc  *kv.Client
	p   *flock.Proc
	eng *engine.Engine
	// seen is the footprint planner's scratch bitmap. It is reused
	// across operations — safe because it is only touched at top level,
	// never captured by a thunk closure.
	seen []bool
}

// plans and attempts recycle finished plans and attempts per Proc after
// their grace period: a straggler replaying one of an attempt's
// descriptors can still reach the attempt and its plan (DESIGN.md S10).
var (
	plans    = flock.NewRecycler(func() *plan { return &plan{} })
	attempts = flock.NewRecycler(func() *attempt {
		a := &attempt{}
		a.run = a.body
		return a
	})
)

// Register creates a client handle on the store.
func (s *Store) Register() *Client {
	kc := s.kv.Register()
	return &Client{
		st: s, kc: kc, p: kc.Proc(),
		eng:  s.kv.Engine(),
		seen: make([]bool, s.kv.NumShards()),
	}
}

// Close releases the client's runtime registration.
func (c *Client) Close() { c.kc.Close() }

// TxnFunc computes a transaction's writes from its reads: vals[i]/oks[i]
// is the value/presence of readKeys[i] at the transaction's
// serialization point. It returns one value per write key and whether
// to commit; on commit=false nothing is written and the transaction
// reports aborted. fn must be pure — in lock-free mode helper threads
// re-run it with the same inputs and every run must return the same
// outputs — and must not retain or mutate its argument slices.
type TxnFunc func(vals []uint64, oks []bool) (writeVals []uint64, commit bool)

// maxInline is the key count up to which a transaction keeps its
// per-key state in fixed-size arrays instead of heap slices.
const maxInline = 4

// kind selects what a transaction computes from its reads.
type kind uint8

const (
	kindFunc     kind = iota // a user TxnFunc (Txn)
	kindSet                  // write vals as given (MultiPut)
	kindTransfer             // move amount from the first read key to the second
)

// plan is one transaction's immutable input, built at top level once per
// call and shared by every attempt and every run of its body. It holds
// defensive copies of the keys and values: a straggling helper may
// replay a completed transaction after the caller reused its slices,
// and must see the original inputs (DESIGN.md S7/S11). The lock chain's
// thunks capture group, so a plan is reused only after the grace period
// of the last attempt that ran it (Client.done).
type plan struct {
	keys   []uint64 // the distinct keys, reads first, in first-seen order
	shard  []int    // shard index of keys[j], hashed once per call
	reads  []int    // reads[i] is the index in keys of the i-th read key
	writes []int    // writes[i] is the index in keys of the i-th write key
	group  []int    // ascending shard group: the lock order
	kind   kind
	fn     TxnFunc
	amount uint64
	vals   []uint64

	keyBuf   [maxInline]uint64
	shardBuf [maxInline]int
	readBuf  [maxInline]int
	writeBuf [maxInline]int
	groupBuf [maxInline]int
	valBuf   [maxInline]uint64
}

// inline returns buf[:n] when n fits the inline array, else a fresh slice.
func inline[T any](buf []T, n int) []T {
	if n <= len(buf) {
		return buf[:n]
	}
	return make([]T, n)
}

// newPlan copies the key lists into a plan, maps each key to its
// distinct-key slot (a key both read and written, as in Transfer, gets
// one slot and so one located position per attempt) and plans the lock
// group. The plan is a recycled one past its grace period when the
// client has one.
func (c *Client) newPlan(readKeys, writeKeys []uint64) *plan {
	pl := plans.Get(c.p)
	*pl = plan{}
	n := len(readKeys) + len(writeKeys)
	pl.keys, pl.shard = pl.keyBuf[:0], pl.shardBuf[:0]
	if n > maxInline {
		pl.keys, pl.shard = make([]uint64, 0, n), make([]int, 0, n)
	}
	pl.reads = inline(pl.readBuf[:], len(readKeys))
	for i, k := range readKeys {
		pl.reads[i] = pl.slot(c, k)
	}
	pl.writes = inline(pl.writeBuf[:], len(writeKeys))
	for i, k := range writeKeys {
		pl.writes[i] = pl.slot(c, k)
	}
	pl.group = c.eng.AppendGroup(pl.groupBuf[:0], c.seen, pl.shard)
	return pl
}

// slot returns k's index in pl.keys, adding k on first sight. The scan
// is linear: transactions name a handful of keys.
func (pl *plan) slot(c *Client, k uint64) int {
	for j, x := range pl.keys {
		if x == k {
			return j
		}
	}
	pl.keys = append(pl.keys, k)
	pl.shard = append(pl.shard, c.st.kv.ShardOf(k))
	return len(pl.keys) - 1
}

// compute fills wv, one value per write key, from the reads rv/ro and
// reports whether to commit. It is pure and retains none of its
// arguments, so the body can pass run-local arrays; a user TxnFunc gets
// its own copies of the reads.
func (pl *plan) compute(rv []uint64, ro []bool, wv []uint64) bool {
	switch pl.kind {
	case kindSet:
		copy(wv, pl.vals)
	case kindTransfer:
		if !ro[0] || !ro[1] || rv[0] < pl.amount {
			return false
		}
		wv[0], wv[1] = rv[0]-pl.amount, rv[1]+pl.amount
	default:
		out, commit := pl.fn(append([]uint64(nil), rv...), append([]bool(nil), ro...))
		if !commit {
			return false
		}
		if len(out) != len(wv) {
			panic("txn: TxnFunc returned wrong write count")
		}
		copy(wv, out)
	}
	return true
}

// attempt is one execution attempt of a plan. Its positions are located
// before the attempt's lock chain is tried and never change, so they are
// immutable input every run of the body sees. Its buffers are the
// idempotent channels every run publishes through, fresh per attempt: a
// straggler of a failed published attempt writes into that attempt's
// buffers, not the next one's (DESIGN.md S11). An attempt is reused only
// after its grace period, when no straggler can reach it.
type attempt struct {
	st       *Store
	pl       *plan
	at       []set.Position  // located position of each distinct key
	vals     []atomic.Uint64 // value of each read key
	oks      []atomic.Bool   // presence of each read key
	inserted atomic.Uint64   // write keys newly inserted
	ok       atomic.Bool     // committed (false: aborted)
	// run is the method value a.body, bound once when the attempt is
	// first allocated, so every later life hands the engine the same
	// func value without allocating one.
	run func(hp *flock.Proc)

	atBuf  [maxInline]set.Position
	valBuf [maxInline]atomic.Uint64
	okBuf  [maxInline]atomic.Bool
}

// newAttempt locates every distinct key of pl, unlogged, at top level,
// into a recycled attempt past its grace period when the client has one.
func (c *Client) newAttempt(pl *plan) *attempt {
	a := attempts.Get(c.p)
	a.inserted.Store(0)
	a.ok.Store(false)
	a.st, a.pl = c.st, pl
	a.at = inline(a.atBuf[:], len(pl.keys))
	a.vals = inline(a.valBuf[:], len(pl.reads))
	a.oks = inline(a.okBuf[:], len(pl.reads))
	for j, k := range pl.keys {
		a.at[j] = c.st.kv.ShardLocate(pl.shard[j], c.p, k)
	}
	return a
}

// body is the composed critical section. Reads and writes start from
// the located positions, so each logs O(1) steps while its position
// holds; a stale one falls back to the full logged operation, and since
// the validation loads are logged every run takes the same path. All
// reads precede all writes; a second write of one key finds its
// position moved on by the first and falls back the same way.
func (a *attempt) body(hp *flock.Proc) {
	pl, kvs := a.pl, a.st.kv
	// Run-local scratch: every run recomputes identical values from
	// logged loads.
	var rvBuf, wvBuf [maxInline]uint64
	var roBuf [maxInline]bool
	rv, ro := inline(rvBuf[:], len(pl.reads)), inline(roBuf[:], len(pl.reads))
	wv := inline(wvBuf[:], len(pl.writes))
	for i, j := range pl.reads {
		rv[i], ro[i] = kvs.ShardGetAt(pl.shard[j], hp, a.at[j], pl.keys[j])
	}
	commit := pl.compute(rv, ro, wv)
	for i := range rv {
		a.vals[i].Store(rv[i])
		a.oks[i].Store(ro[i])
	}
	if !commit {
		return
	}
	// The count is accumulated run-locally and published with a Store
	// (not Add): every run derives the same total from logged upsert
	// reports, so the store is idempotent where an increment would
	// double-count under helping.
	n := uint64(0)
	for i, j := range pl.writes {
		if kvs.ShardPutAt(pl.shard[j], hp, a.at[j], pl.keys[j], wv[i]) {
			n++
		}
	}
	a.inserted.Store(n)
	a.ok.Store(true)
}

// exec runs pl through the engine's transactional arm (engine.Atomic):
// retried until the full ascending lock chain is acquired once, with
// jittered backoff between attempts and the obs depth/helped counters
// and TxnSpan trace emitted there. Each attempt locates its keys afresh;
// a failed one is parked for recycling when the next is built. It
// returns the attempt that committed: acquisition success means its
// body's effects are durably logged, even if the physical completion
// was a helper's. The caller reads its results and then hands it and pl
// to done.
func (c *Client) exec(pl *plan) *attempt {
	var last *attempt
	c.eng.Atomic(c.p, pl.group, func() func(hp *flock.Proc) {
		if last != nil {
			attempts.Put(c.p, last)
		}
		last = c.newAttempt(pl)
		return last.run
	})
	return last
}

// done parks pl and a for recycling once the caller has copied their
// results out. Their stamps are read after every attempt's lock chain
// was released, so they are at least the birth epoch of every
// descriptor whose thunks can reach them, and a straggler replaying one
// announces at most that birth epoch (DESIGN.md S10).
func (c *Client) done(pl *plan, a *attempt) {
	attempts.Put(c.p, a)
	plans.Put(c.p, pl)
}

// Txn runs a generic multi-key transaction: it reads readKeys, applies
// fn, and — if fn commits — upserts writeKeys[i] = writeVals[i], all at
// one serialization point. It returns the read values and presence
// flags observed at that point and whether the transaction committed.
// fn must return exactly len(writeKeys) values when committing.
func (c *Client) Txn(readKeys, writeKeys []uint64, fn TxnFunc) (vals []uint64, oks []bool, committed bool) {
	pl := c.newPlan(readKeys, writeKeys)
	pl.fn = fn
	a := c.exec(pl)
	vals = make([]uint64, len(pl.reads))
	oks = make([]bool, len(pl.reads))
	for i := range vals {
		vals[i] = a.vals[i].Load()
		oks[i] = a.oks[i].Load()
	}
	committed = a.ok.Load()
	c.done(pl, a)
	return vals, oks, committed
}

// MultiGet returns a consistent snapshot of the keys: all values read
// at one serialization point. The snapshot is kv's
// version-vector-validated read (kv.Client.MultiGet): each shard's
// version is read before its data loads and is unchanged at the
// validation pass after all of them, so every shard lock was free at
// that pass and the reads are one cut between transactions — with no
// shard lock taken and no load logged. In Blocking mode a read that
// finds a lock held waits for its holder to release it.
func (c *Client) MultiGet(keys []uint64) ([]uint64, []bool) {
	return c.kc.MultiGet(keys)
}

// MultiPut atomically upserts keys[i] -> vals[i] for every i (later
// duplicates win, as in input order) and returns how many keys were
// newly inserted.
func (c *Client) MultiPut(keys, vals []uint64) int {
	if len(keys) != len(vals) {
		panic("txn: MultiPut length mismatch")
	}
	pl := c.newPlan(nil, keys)
	pl.kind, pl.vals = kindSet, append(pl.valBuf[:0], vals...)
	a := c.exec(pl)
	n := int(a.inserted.Load())
	c.done(pl, a)
	return n
}

// MultiCAS atomically compares-and-sets a key set: iff every keys[i] is
// present with value expect[i], it writes keys[i] = desired[i] for all
// i and returns true; otherwise it writes nothing and returns false.
func (c *Client) MultiCAS(keys, expect, desired []uint64) bool {
	if len(keys) != len(expect) || len(keys) != len(desired) {
		panic("txn: MultiCAS length mismatch")
	}
	e2 := append([]uint64(nil), expect...)
	d2 := append([]uint64(nil), desired...)
	_, _, committed := c.Txn(keys, keys, func(vals []uint64, oks []bool) ([]uint64, bool) {
		for i := range vals {
			if !oks[i] || vals[i] != e2[i] {
				return nil, false
			}
		}
		return d2, true
	})
	return committed
}

// Transfer atomically moves amount from account a to account b: it
// commits iff a and b are distinct keys, both present, and a's balance
// covers the amount. The conserved-sum invariant over concurrent
// Transfers is the suite's torn-write detector (txntest).
func (c *Client) Transfer(a, b, amount uint64) bool {
	if a == b {
		return false
	}
	keys := [2]uint64{a, b}
	pl := c.newPlan(keys[:], keys[:])
	pl.kind, pl.amount = kindTransfer, amount
	at := c.exec(pl)
	ok := at.ok.Load()
	c.done(pl, at)
	return ok
}

// Get is single-key read sugar: a read validated against the key's
// shard lock (kv.Client.Get), so it serializes against multi-key
// transactions like MultiGet.
func (c *Client) Get(k uint64) (uint64, bool) {
	return c.kc.Get(k)
}

// Put is single-key upsert sugar with the same serialization contract
// as Get; it reports whether k was newly inserted.
func (c *Client) Put(k, v uint64) bool {
	return c.MultiPut([]uint64{k}, []uint64{v}) == 1
}
