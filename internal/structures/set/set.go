// Package set defines the common interface implemented by every
// concurrent set in this repository: the paper's workloads are sets of
// 8-byte keys with 8-byte values supporting insert, delete and lookup,
// and — for the ordered structures — range scans.
//
// Keys must lie in [1, MaxKey], MaxKey = math.MaxUint64-3: every
// structure in the registry honours that range, and the values above it
// are reserved for sentinels (leaftree and ellen use MaxUint64-1 as their
// inner infinity, natarajan MaxUint64-2 and MaxUint64-1, the lists and
// tries MaxUint64). Scan bounds are deliberately wider than the key
// space: 0 and math.MaxUint64 are open-interval sentinels ("from the
// smallest key" / "to the largest key") that can never name a real key,
// so ClampScanBounds folds them into [1, MaxKey] and no scan can ever
// observe a structure's internal sentinel nodes.
package set

import (
	"math"

	flock "flock/internal/core"
)

// Set is a concurrent unordered or ordered set with associated values.
// All methods take the calling worker's Proc; implementations that do not
// use the flock runtime (the lock-free baselines) ignore it.
type Set interface {
	// Insert adds (k, v) and reports true, or reports false if k was
	// already present (the value is not updated).
	Insert(p *flock.Proc, k, v uint64) bool
	// Delete removes k and reports whether it was present.
	Delete(p *flock.Proc, k uint64) bool
	// Find returns the value associated with k, if present.
	Find(p *flock.Proc, k uint64) (uint64, bool)
}

// KV is one key-value pair returned by a range scan, in key order.
type KV struct {
	Key   uint64
	Value uint64
}

// Scanner is optionally implemented by ordered sets. Scan returns the
// key-value pairs with lo <= key <= hi in strictly ascending key order,
// at most limit of them (limit < 0 means unbounded; limit 0 yields an
// empty result, so callers can pass a computed budget through without
// special-casing exhaustion). The bounds are
// first clamped by ClampScanBounds, so the open-interval sentinels 0 and
// math.MaxUint64 are always safe to pass and reserved sentinel keys are
// never returned.
//
// Consistency contract (interval semantics): a scan runs as a single
// idempotent thunk — a pure traversal over logged loads with run-local
// accumulation — so it may execute at top level (no lock) or nested
// inside a composed critical section (kv.Scan runs it under shard
// locks), and helper replays recompute the identical result. Concurrent
// mutations make a top-level scan weakly consistent rather than an
// atomic snapshot: every returned pair was present at some instant
// during the scan, and every in-range key missing from the result was
// absent at some instant during the scan, but different keys may be
// observed at different instants (lincheck checks exactly this, per
// key, against the scan's invocation window; DESIGN.md S12).
type Scanner interface {
	// Scan collects the pairs in [lo, hi], ascending, up to limit.
	Scan(p *flock.Proc, lo, hi uint64, limit int) []KV
}

// MaxKey is the largest key every structure accepts (see the package
// comment).
const MaxKey = math.MaxUint64 - 3

// ClampScanBounds folds the scan bounds into the key space shared by
// every structure: lo 0 becomes 1 and any hi above MaxKey becomes MaxKey,
// so [0, MaxUint64] means "everything" and no structure-reserved
// sentinel key can fall inside the scanned interval.
func ClampScanBounds(lo, hi uint64) (uint64, uint64) {
	if lo == 0 {
		lo = 1
	}
	if hi > MaxKey {
		hi = MaxKey
	}
	return lo, hi
}

// Cursor resumes a range scan over a Scanner in bounded chunks: each
// Next call scans [Pos(), hi] with the chunk size as the limit, then
// advances past the last returned key. Chunked iteration trades the
// single Scan's one-interval consistency for bounded critical sections
// — each chunk is individually consistent under Scanner's interval
// contract, but keys read in different chunks may be observed at
// different instants, and a key that moves across the cursor position
// between chunks can be missed or seen twice at a boundary only if it
// was deleted and reinserted there. The KV snapshot iterator
// (internal/kv) builds on exactly this, repairing the fuzziness with
// its pre-image overlay.
type Cursor struct {
	sc   Scanner
	next uint64 // inclusive lower bound of the next chunk
	hi   uint64 // inclusive upper bound, already clamped
	done bool
}

// NewCursor positions a cursor over [lo, hi] on sc (bounds are clamped
// like Scan's; the open-interval sentinels 0 and MaxUint64 are safe).
func NewCursor(sc Scanner, lo, hi uint64) *Cursor {
	lo, hi = ClampScanBounds(lo, hi)
	return &Cursor{sc: sc, next: lo, hi: hi, done: lo > hi}
}

// Done reports whether the interval is exhausted.
func (c *Cursor) Done() bool { return c.done }

// Pos returns the inclusive lower bound of the next chunk. Callers that
// fetch a chunk out-of-band (an optimistic validated scan, a scan under
// a lock) scan [Pos(), hi] themselves and feed the run to Advance.
func (c *Cursor) Pos() uint64 { return c.next }

// Hi returns the cursor's inclusive (clamped) upper bound.
func (c *Cursor) Hi() uint64 { return c.hi }

// Next returns the next chunk of at most chunk pairs (chunk must be
// positive), or nil once the interval is exhausted.
func (c *Cursor) Next(p *flock.Proc, chunk int) []KV {
	if c.done || chunk <= 0 {
		return nil
	}
	run := c.sc.Scan(p, c.next, c.hi, chunk)
	c.Advance(run, chunk)
	return run
}

// Advance moves the cursor past a chunk of size limit chunk obtained
// from scanning [Pos(), Hi()] — the bookkeeping half of Next, exposed
// for out-of-band chunk fetches. A short run means the interval is
// exhausted (Scan returns everything in range up to the limit).
func (c *Cursor) Advance(run []KV, chunk int) {
	if len(run) < chunk {
		c.done = true
		return
	}
	last := run[len(run)-1].Key
	if last >= c.hi {
		c.done = true
		return
	}
	c.next = last + 1
}

// Upserter is optionally implemented by sets that can apply an atomic
// upsert inside a single critical section: the key ends up present with
// value f(old, present) in one linearization point, with no transient
// absent window. It backs the KV layer's Put and ReadModifyWrite
// (internal/kv); sets without it fall back to a non-atomic
// delete-then-insert there.
//
// f must be pure: in lock-free mode the enclosing thunk may be re-run
// by helper threads, so f can be evaluated more than once and every
// evaluation must return the same result for the same inputs.
type Upserter interface {
	// Upsert stores f(old, present) under k, inserting if absent, and
	// returns the previous value and whether k was present.
	Upsert(p *flock.Proc, k uint64, f func(old uint64, present bool) uint64) (uint64, bool)
}

// Position is where Locator.Locate found a key: the node whose state
// validates the position and the node the key routes to. Both are
// structure-defined and opaque to callers; the zero Position names no
// place and is never returned by Locate.
type Position struct {
	Parent, Node any
}

// Locator is optionally implemented by sets whose point operations split
// into a search and an O(1) step: the paper's structures (§5) search
// without locks, then lock and validate what they found. It lets a
// composed critical section (internal/txn) run only the second half
// under its log.
//
// Locate is the search: an unlogged traversal, called at top level
// (outside any thunk; implementations may panic otherwise). Its result
// is plain input to a later critical section and may be stale by then.
// FindAt and UpsertAt are Find and Upsert (with the constant f(_, _) =
// v) that start from a located position: they validate it with logged
// loads, apply the operation in O(1) steps when it still holds, and run
// the full operation when it does not. Their results are exactly those
// of Find and Upsert at their linearization points, whatever the
// position; a stale position only costs the search it was meant to
// save. A position captured by a thunk is immutable input, so every run
// of the thunk validates the same position against the same logged
// loads and takes the same path.
type Locator interface {
	// Locate returns the position of k, found without logging.
	Locate(p *flock.Proc, k uint64) Position
	// FindAt returns the value associated with k, if present, starting
	// from at.
	FindAt(p *flock.Proc, at Position, k uint64) (uint64, bool)
	// UpsertAt stores v under k, inserting if absent, starting from at,
	// and returns the previous value and whether k was present.
	UpsertAt(p *flock.Proc, at Position, k, v uint64) (uint64, bool)
}
