package flock

import (
	"sync/atomic"
	"unsafe"
)

// logBlockLen is the number of entries per log block (the Flock default).
// When a run of a thunk exhausts a block, the next block is linked in
// idempotently: the first run to need it CASes a fresh block into next and
// every other run adopts the winner.
const logBlockLen = 7

// logSlot is one log position: a raw pointer word that is CAS'd from nil
// exactly once and immutable afterwards. The committed pointer is stored
// *directly* — no wrapper entry, no interface box — which is what makes
// the hot commit path (boxes, Link pointers, descriptors, Allocate
// results, booleans) allocation-free. nil pointers and booleans are
// encoded with the sentinel addresses below. This is the only encoding production code
// commits; the tests' boxed-value helper (Proc.Commit, in
// commitvalue_test.go) stores a wrapper pointer instead, which is sound
// because every run of a thunk executes the same operation at the same
// log position (the determinism rules in the package documentation), so
// the call site that committed a slot is also the only one that decodes
// it.
type logSlot struct {
	v unsafe.Pointer
}

func (s *logSlot) load() unsafe.Pointer { return atomic.LoadPointer(&s.v) }
func (s *logSlot) cas(p unsafe.Pointer) bool {
	return atomic.CompareAndSwapPointer(&s.v, nil, p)
}

// resetPlain clears the slot without atomics. Only legal once the
// enclosing log is past its epoch grace period (no run can observe it).
func (s *logSlot) resetPlain() { s.v = nil }

// Sentinel addresses for values that have no heap pointer of their own.
// They are addresses of private statics, so no user pointer can collide
// with them.
var sentinelBytes [3]byte

var (
	committedNil   = unsafe.Pointer(&sentinelBytes[0]) // a committed nil pointer
	committedFalse = unsafe.Pointer(&sentinelBytes[1]) // a committed false
	committedTrue  = unsafe.Pointer(&sentinelBytes[2]) // a committed true
)

// logBlock is a fixed-size chunk of a thunk's shared log.
type logBlock struct {
	entries [logBlockLen]logSlot
	next    atomic.Pointer[logBlock]
}

// commitRaw implements the paper's commitValue (Algorithm 2, line 31)
// over raw pointers: it attempts to record v at the Proc's current log
// position and returns the pointer actually committed there together
// with whether this call was the first to commit. The caller must be
// inside a thunk (p.blk != nil). v may be nil, which is encoded as the
// committedNil sentinel so the slot still flips away from the
// uncommitted state.
//
// The read-before-CAS fast path is the compare-and-compare-and-swap
// optimization from §6: under heavy helping most slots are already
// committed and the CAS (and its cache-line invalidation) can be
// skipped.
func (p *Proc) commitRaw(v unsafe.Pointer) (unsafe.Pointer, bool) {
	blk := p.blk
	if p.idx == logBlockLen {
		blk = p.advanceBlock(blk)
	}
	slot := &blk.entries[p.idx]
	p.idx++
	if p.rt.avoidCAS {
		if e := slot.load(); e != nil {
			return decodeRaw(e), false
		}
	}
	enc := v
	if enc == nil {
		enc = committedNil
	}
	if slot.cas(enc) {
		return v, true
	}
	return decodeRaw(slot.load()), false
}

// peek returns what is committed at the Proc's current log position
// (raw, as commitRaw would find it), or nil while the position is
// uncommitted, without claiming the position.
func (p *Proc) peek() unsafe.Pointer {
	blk, i := p.blk, p.idx
	if i == logBlockLen {
		if blk = blk.next.Load(); blk == nil {
			return nil
		}
		i = 0
	}
	return blk.entries[i].load()
}

func decodeRaw(e unsafe.Pointer) unsafe.Pointer {
	if e == committedNil {
		return nil
	}
	return e
}

// commitPtr is the typed pointer-committing fast path: the committed
// pointer lands in the log slot directly, so replays allocate nothing.
// Outside any thunk it is a pass-through.
func commitPtr[T any](p *Proc, v *T) (*T, bool) {
	if p.blk == nil {
		return v, true
	}
	c, first := p.commitRaw(unsafe.Pointer(v))
	return (*T)(c), first
}

// commitBool commits a boolean via the sentinel encoding — no
// allocation, no interface box. Outside any thunk it is a pass-through.
func (p *Proc) commitBool(v bool) bool {
	if p.blk == nil {
		return v
	}
	enc := committedFalse
	if v {
		enc = committedTrue
	}
	c, _ := p.commitRaw(enc)
	return c == committedTrue
}

// advanceBlock moves the Proc's cursor to the next log block, creating
// it idempotently if this run is the first to need it. A pooled
// descriptor keeps the spill blocks of its earlier lives linked (they
// are scrubbed with it), so a long thunk allocates a block only the
// first time its descriptor's log grows that far; a block that loses the
// linking CAS was never published and is left to the GC.
func (p *Proc) advanceBlock(blk *logBlock) *logBlock {
	next := blk.next.Load()
	if next == nil {
		next = &logBlock{}
		if !blk.next.CompareAndSwap(nil, next) {
			next = blk.next.Load()
		}
	}
	p.blk = next
	p.idx = 0
	return next
}

// CommitPtr is the typed pointer commit for user code whose runs must
// agree on a pointer read from an unlogged location (the KV layer's
// snapshot registry is the motivating case): the pointer lands in the
// log slot directly, so first runs and replays both allocate nothing.
// It returns the committed pointer and whether the caller was first.
// Outside a thunk it returns (v, true).
func CommitPtr[T any](p *Proc, v *T) (*T, bool) { return commitPtr(p, v) }

// InThunk reports whether the Proc is currently executing inside a
// descriptor's thunk (i.e. whether loggable operations are being
// committed). Exposed for assertions and tests, and used by optimistic
// unlogged read arms (optimistic.go, internal/kv) to fall back to the
// logged path when invoked from composed (nested) operations.
func (p *Proc) InThunk() bool { return p.blk != nil }
