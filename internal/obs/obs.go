// Package obs is the repository's runtime-metrics layer (DESIGN.md
// S14): cheap event counters for the mechanisms the paper's figures are
// explained by — helping, thunk replays, install-CAS retries, pool
// traffic, epoch reclamation lag — kept out of every hot path's way.
//
// The design is write-local, read-global:
//
//   - Each worker context (a flock.Proc) owns a cache-padded Block and
//     only ever writes its own, so counter updates never contend on a
//     shared cache line.
//   - Aggregation is pull-based: Snapshot() sums all live blocks plus
//     the folded totals of released ones. Nothing is pushed anywhere on
//     the data path; a sampler that wants a time series just calls
//     Snapshot at its own cadence and diffs.
//   - Everything is gated by one package-level flag. Disabled (the
//     default), an instrumented call site costs a single load of a cold
//     bool and a predictable branch, and allocates nothing; there is no
//     per-Runtime configuration to thread through the stack.
//
// Counters count physical events, not logical operations: a thunk that
// is replayed by three helpers performs (and therefore counts) its pool
// allocations three times, because three allocations really happened.
// The one place attribution is made exact is thunk completion: every
// completed critical section is claimed by exactly one run (a CAS on
// the descriptor), so OwnCompletions + HelpsGiven equals the number of
// committed thunks, and HelpsGiven equals HelpsReceived, as long as the
// flag does not flip mid-window (the conservation law pinned by
// internal/core's metrics tests).
package obs

import (
	"sync"
	"sync/atomic"
)

// Counter indexes one event counter within a Block.
type Counter int

// The counter set. Core lock events come first, then pool, epoch,
// optimistic-read and transactional events.
const (
	// AcquiresLF counts successful top-level lock-free acquisitions
	// (TryLock and strict Lock): committed thunks, counted by the owner.
	AcquiresLF Counter = iota
	// AcquiresBlocking counts successful outermost blocking-mode
	// acquisitions.
	AcquiresBlocking
	// HelpsGiven counts thunks this worker completed on behalf of
	// another worker (it won the completion claim on a descriptor it
	// did not create).
	HelpsGiven
	// HelpsReceived counts this worker's own committed thunks that were
	// completed by someone else's run (counted at top level only, where
	// the owner is outside any log and the count cannot be replayed).
	HelpsReceived
	// OwnCompletions counts thunks whose completion claim was won by
	// the worker that created them.
	OwnCompletions
	// ThunkReplays counts runs of a descriptor that lost the completion
	// claim — wasted (but harmless and expected) duplicated execution,
	// the price of helping.
	ThunkReplays
	// InstallCASFails counts failed attempts to install an acquisition
	// into a lock word (the CAS-retry traffic of contended locks).
	InstallCASFails
	// StrictSpins counts waiting iterations inside strict Lock loops:
	// helping rounds in lock-free mode, TTAS spin iterations in
	// blocking mode.
	StrictSpins
	// TagOverflows counts releases that installed a heap version word
	// because the lock's next version was past the last lockTags tag
	// (internal/core): the degraded mode in which every release of that
	// lock allocates. Counted once per release, by the run whose CAS or
	// store installed the word.
	TagOverflows
	// OptRestarts counts discarded optimistic shard reads (the lock
	// still held after helping, or its version moved under the read).
	OptRestarts
	// PoolHits/PoolMisses count records taken from a flock.Recycler
	// (descriptors, structure ops' critical-section state, kv Put
	// arguments, transaction plans and attempts) reused past their grace
	// period vs allocated fresh; a miss is the degraded mode in which a
	// record falls to the garbage collector. PoolSpills counts records
	// dropped to the GC because their Proc's FIFO was full.
	PoolHits
	PoolMisses
	PoolSpills
	// EpochAdvanceTries/EpochAdvances count epoch.Manager.TryAdvance
	// calls and the subset that moved the global epoch.
	EpochAdvanceTries
	EpochAdvances
	// EpochReclaimBatches counts batches of recycled records, the
	// records of one FIFO put back in one epoch, counted when the first
	// is reused, and EpochReclaimLagEpochs sums, over those batches, the
	// number of epochs between put and reuse (the SafeBefore bound that
	// ripened the batch minus its epoch) — their ratio is the mean
	// reclamation lag, the "how long does freed memory wait" figure for
	// the pools.
	EpochReclaimBatches
	EpochReclaimLagEpochs
	// TxnDepth* histogram the number of distinct shard locks acquired
	// per committed transaction (nested-acquire depth).
	TxnDepth1
	TxnDepth2
	TxnDepth3
	TxnDepth4
	TxnDepth5to8
	TxnDepth9Plus
	// TxnHelped counts committed transactions in which at least one run
	// of the composed thunk executed on a worker other than the owner —
	// transactions a helper carried (partly or wholly) to completion.
	TxnHelped

	// NumCounters is the Block size; it must stay last.
	NumCounters
)

// counterNames must match the constant order above.
var counterNames = [NumCounters]string{
	"acquires_lf", "acquires_blocking",
	"helps_given", "helps_received", "own_completions", "thunk_replays",
	"install_cas_fails", "strict_spins", "tag_overflows",
	"opt_restarts",
	"pool_hits", "pool_misses", "pool_spills",
	"epoch_advance_tries", "epoch_advances",
	"epoch_reclaim_batches", "epoch_reclaim_lag_epochs",
	"txn_depth_1", "txn_depth_2", "txn_depth_3", "txn_depth_4",
	"txn_depth_5_8", "txn_depth_9_plus",
	"txn_helped",
}

// String returns the counter's snake_case name (the JSONL field name).
func (c Counter) String() string {
	if c < 0 || c >= NumCounters {
		return "unknown"
	}
	return counterNames[c]
}

// DepthCounter maps a transaction's distinct-shard-lock count to its
// histogram bucket.
func DepthCounter(depth int) Counter {
	switch {
	case depth <= 1:
		return TxnDepth1
	case depth == 2:
		return TxnDepth2
	case depth == 3:
		return TxnDepth3
	case depth == 4:
		return TxnDepth4
	case depth <= 8:
		return TxnDepth5to8
	default:
		return TxnDepth9Plus
	}
}

// enabled is the package-level gate. It is deliberately global rather
// than per-Runtime: the hot-path cost of the disabled layer is one load
// of this cold bool, and a global flag needs no plumbing through every
// constructor in the stack.
var enabled atomic.Bool

// On reports whether metrics collection is enabled. Call sites in hot
// paths gate on it before doing any counting work.
func On() bool { return enabled.Load() }

// Enabled is a readability alias for On (for save/restore callers).
func Enabled() bool { return enabled.Load() }

// SetEnabled flips metrics collection. Flipping it while a measured
// window is open breaks that window's conservation laws (events started
// under one setting complete under the other); samplers enable before
// their window and restore after.
func SetEnabled(v bool) { enabled.Store(v) }

// pad64 rounds the counter array up to a cache-line multiple so two
// Blocks never share a line. Deliberately 1..64 rather than 0..63: a
// zero-length trailing field makes Go grow the struct by a pointer
// anyway (to keep interior pointers off the next object), which would
// break the alignment the pad exists to provide.
const pad64 = 64 - (NumCounters*8)%64

// Block is one worker's counter block. A Block must only be written by
// its owning worker (writes are atomic solely so Snapshot may read them
// concurrently); create one with NewBlock and fold it away with Release
// when the worker unregisters.
type Block struct {
	c [NumCounters]atomic.Uint64
	_ [pad64]byte
}

// Inc adds one to counter k when metrics are enabled.
func (b *Block) Inc(k Counter) {
	if !enabled.Load() {
		return
	}
	b.c[k].Add(1)
}

// Add adds n to counter k when metrics are enabled.
func (b *Block) Add(k Counter, n uint64) {
	if n == 0 || !enabled.Load() {
		return
	}
	b.c[k].Add(n)
}

// Load returns the block's own count for k (tests and diagnostics; use
// Snapshot for aggregates).
func (b *Block) Load(k Counter) uint64 { return b.c[k].Load() }

// registry holds every live Block (copy-on-write, so Snapshot scans
// without locking) plus the folded totals of released ones.
var registry struct {
	mu      sync.Mutex
	blocks  atomic.Pointer[[]*Block]
	retired [NumCounters]atomic.Uint64
}

// NewBlock allocates and registers a fresh Block.
func NewBlock() *Block {
	b := &Block{}
	registry.mu.Lock()
	var old []*Block
	if p := registry.blocks.Load(); p != nil {
		old = *p
	}
	next := make([]*Block, len(old), len(old)+1)
	copy(next, old)
	next = append(next, b)
	registry.blocks.Store(&next)
	registry.mu.Unlock()
	return b
}

// Release folds the block's counts into the retired totals and drops it
// from the registry, so long-lived processes that register and release
// many workers do not grow the block list without bound. The fold
// happens before the unlink, so a concurrent Snapshot can transiently
// double-count a releasing block but never lose its counts (Counts.Sub
// saturates, so a transient overcount cannot underflow a delta). The
// block must not be written after Release.
func (b *Block) Release() {
	registry.mu.Lock()
	for i := range b.c {
		registry.retired[i].Add(b.c[i].Load())
	}
	var old []*Block
	if p := registry.blocks.Load(); p != nil {
		old = *p
	}
	next := make([]*Block, 0, len(old))
	for _, o := range old {
		if o != b {
			next = append(next, o)
		}
	}
	registry.blocks.Store(&next)
	registry.mu.Unlock()
}

// global is the shared block for rare events with no natural per-worker
// owner (epoch advancement). Contended in theory,
// but its events fire orders of magnitude less often than lock events.
var global = NewBlock()

// Global returns the shared unattributed block.
func Global() *Block { return global }

// Counts is an aggregated counter vector: what Snapshot returns.
type Counts [NumCounters]uint64

// Get returns the count for k.
func (c Counts) Get(k Counter) uint64 { return c[k] }

// Sub returns c - old elementwise, saturating at zero (a snapshot taken
// while a block was being released can transiently exceed a later one).
func (c Counts) Sub(old Counts) Counts {
	var out Counts
	for i := range c {
		if c[i] > old[i] {
			out[i] = c[i] - old[i]
		}
	}
	return out
}

// Add returns c + o elementwise.
func (c Counts) Add(o Counts) Counts {
	var out Counts
	for i := range c {
		out[i] = c[i] + o[i]
	}
	return out
}

// Snapshot sums the retired totals and every live block. It takes no
// locks and is safe to call at any time from any goroutine; counters
// written while the scan runs land in this snapshot or the next.
func Snapshot() Counts {
	var out Counts
	for i := range out {
		out[i] = registry.retired[i].Load()
	}
	if p := registry.blocks.Load(); p != nil {
		for _, b := range *p {
			for i := range out {
				out[i] += b.c[i].Load()
			}
		}
	}
	return out
}
