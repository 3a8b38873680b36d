package flock

import "unsafe"

// The general commitValue (Algorithm 2, line 31) for arbitrary values,
// kept for the log tests. Production code commits pointers and booleans
// directly into log slots (commitPtr, commitBool, CommitPtr); this
// helper boxes the value in a logEntry and commits the entry's pointer
// instead, which exercises the same slot protocol for any value type.

// logEntry boxes one committed value. The pointer-to-entry in a log slot
// is CAS'd from nil exactly once; the entry itself is immutable
// afterwards.
type logEntry struct {
	val any
}

// Commit commits v at the Proc's current log position and returns the
// value committed there and whether the caller was first: one
// allocation when this run commits; under the default
// compare-and-compare-and-swap mode, replays of an already-committed
// slot allocate nothing. Outside a thunk it returns (v, true).
func (p *Proc) Commit(v any) (any, bool) {
	blk := p.blk
	if blk == nil {
		return v, true
	}
	if p.idx == logBlockLen {
		blk = p.advanceBlock(blk)
	}
	slot := &blk.entries[p.idx]
	p.idx++
	if p.rt.avoidCAS {
		if e := slot.load(); e != nil {
			return (*logEntry)(e).val, false
		}
	}
	mine := &logEntry{val: v}
	if slot.cas(unsafe.Pointer(mine)) {
		return v, true
	}
	return (*logEntry)(slot.load()).val, false
}

// CommitValue is a typed wrapper around Proc.Commit.
func CommitValue[V any](p *Proc, v V) (V, bool) {
	c, first := p.Commit(v)
	return c.(V), first
}
