// Package trace is the repository's lock-event flight recorder
// (DESIGN.md S16): a low-overhead, always-bounded record of *when* the
// lock runtime's mechanisms fired, *on which lock*, and *on whose
// behalf* — the causal, time-ordered complement to internal/obs's
// aggregate counters. The obs layer can say "2400 helps happened";
// only a trace can show helper 7 picking up Proc 3's stalled thunk at
// t=1.82ms and carrying it to completion 14µs later.
//
// The design mirrors obs's write-local, read-global discipline:
//
//   - Each worker (flock.Proc) owns one fixed-size ring buffer of
//     compact binary records and is its only writer, so recording is
//     lockless and allocation-free: six atomic word stores plus one
//     monotonic clock read per event. Rings overwrite oldest-first, so
//     memory stays bounded no matter how long tracing stays on.
//   - Everything is gated by one package-level cold atomic.Bool. Off
//     (the default), an instrumented call site costs a single load and
//     a predictable branch — the same bar the obs counters meet.
//   - Aggregation is pull-based: Snapshot() stitches every ring into
//     one time-ordered event stream with exact per-ring drop
//     accounting (records overwritten before collection, plus records
//     invalidated mid-read).
//
// # Record format and the slot-publish protocol
//
// A record is six 64-bit words: a sequence word, a monotonic
// timestamp, a lock id, two kind-specific arguments, and a packed
// kind+proc word. The sequence word holds the record's absolute ring
// index plus one, so zero doubles as the "empty or being written"
// sentinel. A writer claims slot head%N and stores, in order: seq=0,
// the five payload words, seq=head+1. A reader expecting absolute
// index i loads seq (must equal i+1), loads the payload, and re-loads
// seq (must still equal i+1); any overlap with a writer leaves seq
// zero or advanced and the reader counts the record as dropped
// instead of returning a torn one. All six words are Go atomics
// (sequentially consistent), so no fences beyond the seq publish are
// needed and the protocol is race-detector-clean; per-Proc rings have
// one writer, making the check exact. (The shared Global ring is
// multi-writer via an atomic head claim; a reader's seq check can in
// principle be defeated there by a writer stalled for a whole ring
// lap, so its records are best-effort — acceptable for the rare
// global events it carries.)
package trace

import (
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Kind identifies one lock-runtime event type.
type Kind uint8

// The event kinds. The A and B fields of an Event are kind-specific;
// the per-kind comments document them.
const (
	// KindNone marks an empty or invalid record.
	KindNone Kind = iota
	// AcqStart: a lock acquisition attempt began (both modes).
	// A=0, B=0.
	AcqStart
	// AcqInstalled: a lock-free install CAS succeeded — the critical
	// section is published and helpable. A=owner Proc id, B=the
	// acquisition's lock-word version (the descriptor generation:
	// versions advance on every acquire/release, so (lock, B)
	// identifies this critical-section instance uniquely).
	AcqInstalled
	// AcqBlocking: a blocking-mode acquisition succeeded at the
	// outermost nesting level. A=owner Proc id, B=0.
	AcqBlocking
	// Release: the lock word was physically released by this run
	// (exactly one run's release CAS succeeds per acquisition).
	// A=owner Proc id (0 in blocking mode), B=generation (0 in
	// blocking mode).
	Release
	// HelpBegin: this Proc started running a descriptor owned by
	// another Proc. A=owner Proc id, B=generation.
	HelpBegin
	// HelpEnd: the help completed AND this run won the single-claim
	// finisher CAS — it is the run that carried the owner's critical
	// section to completion (pairs 1:1 with obs.HelpsGiven).
	// A=owner Proc id, B=generation.
	HelpEnd
	// Replay: a run of a descriptor lost the finisher claim — wasted
	// but harmless duplicated execution (pairs 1:1 with
	// obs.ThunkReplays). Emitted for foreign and own replays alike;
	// A=owner Proc id distinguishes them. B=generation.
	Replay
	// SpinEpisode: a strict Lock acquisition that had to wait,
	// emitted once at acquisition. A=0, B=waiting iterations (helping
	// rounds in lock-free mode, TTAS spins in blocking mode).
	SpinEpisode
	// Stall: injected descheduling fired inside a held critical
	// section (Runtime.SetStallInjection). A=0, B=0.
	Stall
	// OptRestart: an optimistic read attempt failed validation.
	// A=0, B=0. Lock is the validated lock (0 for multi-shard
	// version-vector reads).
	OptRestart
	// PoolSpill: a descriptor was dropped to the GC. A=the site: 0 when
	// the pending list was at capacity, 1 when the freelist was. B=0.
	PoolSpill
	// EpochAdvance: the global epoch advanced. A=the new epoch, B=0.
	EpochAdvance
	// EpochReclaim: the reuse drain moved one batch of descriptors, all
	// released in the same epoch, from the Proc's pending list to its
	// freelist. A=the batch's release epoch, B=descriptor count.
	EpochReclaim
	// KVOp: one KV client operation completed (a span: the event is
	// emitted at completion and B carries the duration). Lock=shard
	// index (^0 for multi-shard scatter-gather ops), A=op code (see
	// KVGet...), B=duration in nanoseconds.
	KVOp
	// TxnSpan: one committed multi-shard transaction (a span).
	// Lock=0, A=distinct shard-lock count | attempts<<16,
	// B=duration in nanoseconds.
	TxnSpan

	// NumKinds must stay last.
	NumKinds
)

var kindNames = [NumKinds]string{
	"none", "acq_start", "acq_installed", "acq_blocking", "release",
	"help_begin", "help_end", "replay", "spin_episode", "stall",
	"opt_restart", "pool_spill",
	"epoch_advance", "epoch_reclaim", "kv_op", "txn_span",
}

// String returns the kind's snake_case name.
func (k Kind) String() string {
	if k >= NumKinds {
		return "unknown"
	}
	return kindNames[k]
}

// KVOp A-field op codes.
const (
	KVGet uint64 = iota + 1
	KVPut
	KVDelete
	KVRMW
	KVScan
	KVBatch
)

// KVOpName names a KVOp op code (for exporters and tests).
func KVOpName(a uint64) string {
	switch a {
	case KVGet:
		return "get"
	case KVPut:
		return "put"
	case KVDelete:
		return "delete"
	case KVRMW:
		return "rmw"
	case KVScan:
		return "scan"
	case KVBatch:
		return "batch"
	}
	return "op"
}

// enabled is the package-level gate, global for the same reason obs's
// is: the disabled cost is one cold load, and a global flag needs no
// plumbing through every constructor.
var enabled atomic.Bool

// On reports whether the flight recorder is enabled. Hot-path call
// sites gate on it before doing any recording work.
func On() bool { return enabled.Load() }

// Enabled is a readability alias for On (save/restore callers).
func Enabled() bool { return enabled.Load() }

// SetEnabled flips event recording. Events begun under one setting may
// complete under the other (a HelpBegin without its HelpEnd); samplers
// enable before their window, Reset, and restore after.
func SetEnabled(v bool) { enabled.Store(v) }

// base anchors the monotonic clock; Now is a single nanotime-style
// read (time.Since on a monotonic time.Time never touches the wall
// clock).
var base = time.Now()

// Now returns the recorder's monotonic timestamp in nanoseconds since
// an arbitrary process-local epoch.
func Now() int64 { return int64(time.Since(base)) }

// defaultRingShift sizes new rings at 1<<shift records (48 bytes per
// record: 4096 records = 192 KiB per Proc).
const defaultRingShift = 12

// ringShift is the log2 ring size applied to rings created from now
// on; tests shrink it to force overwrite and grow it for lossless
// conservation windows.
var ringShift atomic.Uint32

func init() { ringShift.Store(defaultRingShift) }

// SetRingShift sets the log2 record count of subsequently created
// rings, clamped to [4, 22], and returns the previous value. Existing
// rings keep their size.
func SetRingShift(n int) (prev int) {
	if n < 4 {
		n = 4
	}
	if n > 22 {
		n = 22
	}
	return int(ringShift.Swap(uint32(n)))
}

// record is one ring slot. Every word is atomic so the slot-publish
// protocol above is exact under the race detector; see the package
// comment for the write and read orders.
type record struct {
	seq  atomic.Uint64 // absolute index+1; 0 = empty or mid-write
	ts   atomic.Int64
	lock atomic.Uint64
	a    atomic.Uint64
	b    atomic.Uint64
	meta atomic.Uint64 // Kind<<56 | proc id (low 56 bits)
}

const procMask = (uint64(1) << 56) - 1

// Ring is one writer's event ring. Per-Proc rings must only be
// written by their owning worker; the Global ring accepts any writer.
// Create with NewRing, detach with Release when the worker exits.
type Ring struct {
	buf  []record
	mask uint64
	proc uint64
	// head is the total number of records ever claimed (the next
	// absolute index). Single-writer rings store it plainly; the
	// shared ring claims slots with Add.
	head atomic.Uint64
	// resetHead is the absolute index at the last Reset: records
	// below it are outside the current collection window, for both
	// stitching and drop accounting.
	resetHead atomic.Uint64
	shared    bool
}

// Emit appends one event. For per-Proc rings this must be called only
// by the owning worker; it performs six atomic stores and one clock
// read, and never allocates. The oldest record is overwritten when
// the ring is full (counted by Snapshot's drop accounting).
func (r *Ring) Emit(k Kind, lock, a, b uint64) {
	r.EmitAt(k, Now(), lock, a, b)
}

// EmitAt is Emit with a caller-supplied timestamp (from Now), for
// emission sites that already read the clock — a span recorder that
// computed a duration reuses its end-of-span read instead of paying a
// second one.
func (r *Ring) EmitAt(k Kind, ts int64, lock, a, b uint64) {
	var h uint64
	if r.shared {
		h = r.head.Add(1) - 1
	} else {
		h = r.head.Load()
	}
	rec := &r.buf[h&r.mask]
	rec.seq.Store(0) // invalidate for concurrent readers
	rec.ts.Store(ts)
	rec.lock.Store(lock)
	rec.a.Store(a)
	rec.b.Store(b)
	rec.meta.Store(uint64(k)<<56 | r.proc&procMask)
	rec.seq.Store(h + 1) // publish
	if !r.shared {
		r.head.Store(h + 1)
	}
}

// Written returns the total number of records ever emitted (including
// overwritten ones).
func (r *Ring) Written() uint64 { return r.head.Load() }

// Cap returns the ring's record capacity.
func (r *Ring) Cap() int { return len(r.buf) }

// registry holds every live ring (copy-on-write, so Snapshot scans
// without locking) plus rings released by exited workers, kept so a
// snapshot taken after workers unregister still sees their events.
var registry struct {
	mu      sync.Mutex
	rings   atomic.Pointer[[]*Ring]
	retired []*Ring
	// evicted counts records lost by evicting retired rings past
	// maxRetired (folded into Snapshot's drop count).
	evicted atomic.Uint64
}

// maxRetired bounds the retired-ring list so long-lived processes that
// register and release many workers keep bounded trace memory; the
// oldest retired ring is evicted (its in-window records counted as
// dropped).
const maxRetired = 256

// NewRing allocates and registers a ring attributed to proc (a
// flock.Proc registration ordinal; 0 is reserved for the Global ring).
func NewRing(proc uint64) *Ring {
	shift := ringShift.Load()
	if shift == 0 {
		// Package-level vars (the Global ring) initialize before init()
		// seeds ringShift; 0 is never a legal configured value.
		shift = defaultRingShift
	}
	size := uint64(1) << shift
	r := &Ring{buf: make([]record, size), mask: size - 1, proc: proc}
	registry.mu.Lock()
	var old []*Ring
	if p := registry.rings.Load(); p != nil {
		old = *p
	}
	next := make([]*Ring, len(old), len(old)+1)
	copy(next, old)
	next = append(next, r)
	registry.rings.Store(&next)
	registry.mu.Unlock()
	return r
}

// Release moves the ring from the live list to the retired list, so
// snapshots taken after the worker exits still stitch its events. The
// ring must not be written after Release.
func (r *Ring) Release() {
	registry.mu.Lock()
	var old []*Ring
	if p := registry.rings.Load(); p != nil {
		old = *p
	}
	next := make([]*Ring, 0, len(old))
	for _, o := range old {
		if o != r {
			next = append(next, o)
		}
	}
	registry.rings.Store(&next)
	registry.retired = append(registry.retired, r)
	if len(registry.retired) > maxRetired {
		ev := registry.retired[0]
		registry.retired = append(registry.retired[:0], registry.retired[1:]...)
		if n := ev.head.Load(); n > ev.resetHead.Load() {
			registry.evicted.Add(n - ev.resetHead.Load())
		}
	}
	registry.mu.Unlock()
}

// global is the shared ring for rare events with no owning Proc
// (epoch advancement). Multi-writer, best-effort;
// see the package comment.
var global = func() *Ring {
	r := NewRing(0)
	r.shared = true
	return r
}()

// Global returns the shared unattributed ring.
func Global() *Ring { return global }

// Reset opens a new collection window: retired rings are dropped, the
// eviction counter is cleared, and every live ring's current head
// becomes its window base, so subsequent Snapshots return (and count
// drops for) only events emitted after the Reset. Records emitted
// concurrently with Reset land on either side of the boundary.
func Reset() {
	registry.mu.Lock()
	registry.retired = nil
	registry.evicted.Store(0)
	if p := registry.rings.Load(); p != nil {
		for _, r := range *p {
			r.resetHead.Store(r.head.Load())
		}
	}
	registry.mu.Unlock()
}

// Event is one decoded record.
type Event struct {
	// TS is the monotonic timestamp (Now()'s clock).
	TS int64
	// Seq is the record's absolute index within its writer's ring
	// (the sort tiebreak for same-timestamp events of one writer).
	Seq uint64
	// Lock identifies the lock (its address; 0 when the event is not
	// about a particular lock; ^0 for multi-shard KV ops).
	Lock uint64
	// A and B are kind-specific; see the Kind constants.
	A, B uint64
	// Proc is the emitting worker's registration ordinal (0 for the
	// Global ring).
	Proc uint64
	// Kind is the event type.
	Kind Kind
}

// Trace is a stitched snapshot: events from every ring in one
// time-ordered stream, plus exact drop accounting.
type Trace struct {
	// Events is sorted by TS (ties broken by writer then sequence).
	Events []Event
	// Dropped counts records emitted in the window that this snapshot
	// could not return: overwritten before collection, invalidated
	// mid-read by a concurrent writer, or lost to retired-ring
	// eviction. Dropped == 0 means Events is the complete window.
	Dropped uint64
}

// Snapshot stitches every ring (live, retired and Global) into one
// time-ordered event stream. It takes the registry lock only to copy
// the ring lists; record reads are the lock-free seq-validated
// protocol, so writers are never blocked. Events recorded while the
// scan runs land in this snapshot or the next (or count as drops if
// they overwrite unread records mid-scan).
func Snapshot() Trace {
	registry.mu.Lock()
	var rings []*Ring
	if p := registry.rings.Load(); p != nil {
		rings = append(rings, *p...)
	}
	rings = append(rings, registry.retired...)
	dropped := registry.evicted.Load()
	registry.mu.Unlock()

	var out []Event
	for _, r := range rings {
		h := r.head.Load()
		r0 := r.resetHead.Load()
		size := uint64(len(r.buf))
		lo := uint64(0)
		if h > size {
			lo = h - size
		}
		if over := lo; over > r0 {
			dropped += over - r0 // in-window records already overwritten
		}
		if lo < r0 {
			lo = r0
		}
		for i := lo; i < h; i++ {
			rec := &r.buf[i&r.mask]
			s1 := rec.seq.Load()
			if s1 != i+1 {
				dropped++ // overwritten or mid-write
				continue
			}
			ev := Event{
				TS:   rec.ts.Load(),
				Seq:  i,
				Lock: rec.lock.Load(),
				A:    rec.a.Load(),
				B:    rec.b.Load(),
			}
			meta := rec.meta.Load()
			if rec.seq.Load() != s1 {
				dropped++ // torn by a concurrent lap
				continue
			}
			ev.Kind = Kind(meta >> 56)
			ev.Proc = meta & procMask
			out = append(out, ev)
		}
	}
	sortEvents(out)
	return Trace{Events: out, Dropped: dropped}
}

// Dropped estimates the records already lost (overwritten or evicted)
// without materializing a snapshot — the cheap number a live /metrics
// endpoint reports.
func Dropped() uint64 {
	registry.mu.Lock()
	var rings []*Ring
	if p := registry.rings.Load(); p != nil {
		rings = append(rings, *p...)
	}
	rings = append(rings, registry.retired...)
	n := registry.evicted.Load()
	registry.mu.Unlock()
	for _, r := range rings {
		h := r.head.Load()
		if size := uint64(len(r.buf)); h > size {
			if over := h - size; over > r.resetHead.Load() {
				n += over - r.resetHead.Load()
			}
		}
	}
	return n
}

// sortEvents orders by timestamp, breaking ties by writer then
// sequence so one writer's events keep their emission order.
func sortEvents(evs []Event) {
	sort.Slice(evs, func(i, j int) bool {
		a, b := evs[i], evs[j]
		if a.TS != b.TS {
			return a.TS < b.TS
		}
		if a.Proc != b.Proc {
			return a.Proc < b.Proc
		}
		return a.Seq < b.Seq
	})
}
