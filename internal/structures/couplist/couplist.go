// Package couplist implements a sorted linked-list set with
// hand-over-hand locking (lock coupling, Bayer & Schkolnick [4]): an
// update descends holding at most two locks, taking the next node's lock
// before releasing the previous one with the early-release Unlock that
// §4 of the paper introduces exactly for this pattern.
//
// Unlike the optimistic lazylist, coupling is pessimistic: holding a
// node's lock pins its successor (a delete needs both the predecessor's
// and the victim's lock), so no validation or restart-on-conflict logic
// is needed — a try-lock failure during descent aborts the whole pass
// and retries from the head. Run in lock-free mode the entire descent is
// a chain of nested thunks that helpers can complete; thunk results
// beyond the boolean travel through a committed Mutable cell, the
// pattern for multi-valued critical sections.
//
// Coupling is the didactic structure here (the paper's measured lists
// are lazylist/dlist): it exists to exercise Unlock under helping in a
// real data structure. Expect it to be slower than lazylist — every hop
// takes a lock.
package couplist

import (
	"fmt"
	"math"

	flock "flock/internal/core"
	"flock/internal/structures/set"
)

type node struct {
	k, v    uint64
	next    flock.Mutable[*node]
	removed flock.UpdateOnce[bool]
	lck     flock.Lock
}

// List is a concurrent sorted linked-list set with coupled locking.
// Keys must be in [1, set.MaxKey].
type List struct {
	head *node
}

// New returns an empty list.
func New(rt *flock.Runtime) *List {
	_ = rt
	tail := &node{k: math.MaxUint64}
	head := &node{k: 0}
	head.next.Init(tail)
	return &List{head: head}
}

// newResult builds an operation attempt's result cell. Insert and Delete
// allocate it with flock.Allocate so that, when they run nested inside
// an enclosing thunk (a transaction), every run of that thunk shares the
// cell: the coupled chain's descriptor, and so the cell its thunk
// stores into, is whichever run committed it first.
func newResult() *flock.Mutable[uint8] { return &flock.Mutable[uint8]{} }

// Outcomes communicated through the committed result cell.
const (
	resApplied  = 1 // inserted / deleted
	resConflict = 2 // duplicate insert / absent delete
)

// Find traverses without locks (reads are optimistic even in coupled
// designs; the removed flag keeps results linearizable).
func (l *List) Find(p *flock.Proc, k uint64) (uint64, bool) {
	p.Begin()
	defer p.End()
	curr := l.head.next.Load(p)
	for curr.k < k {
		curr = curr.next.Load(p)
	}
	if curr.k == k && !curr.removed.Load(p) {
		return curr.v, true
	}
	return 0, false
}

// Insert adds (k, v); false if already present.
func (l *List) Insert(p *flock.Proc, k, v uint64) bool {
	p.Begin()
	defer p.End()
	for {
		res := flock.Allocate(p, newResult)
		var step func(pred *node) flock.Thunk
		step = func(pred *node) flock.Thunk {
			return func(hp *flock.Proc) bool {
				curr := pred.next.Load(hp)
				if k > curr.k {
					// Couple: take the next lock, then release pred early.
					return curr.lck.TryLock(hp, func(hp2 *flock.Proc) bool {
						pred.lck.Unlock(hp2)
						return step(curr)(hp2)
					})
				}
				if curr.k == k {
					res.Store(hp, resConflict)
					return true
				}
				n := flock.Allocate(hp, func() *node {
					nn := &node{k: k, v: v}
					nn.next.Init(curr)
					return nn
				})
				pred.next.Store(hp, n)
				res.Store(hp, resApplied)
				return true
			}
		}
		if l.head.lck.TryLock(p, step(l.head)) {
			switch res.Load(p) {
			case resApplied:
				return true
			case resConflict:
				return false
			}
		}
		// A lock on the path was busy: restart from the head.
	}
}

// Delete removes k; false if absent.
func (l *List) Delete(p *flock.Proc, k uint64) bool {
	p.Begin()
	defer p.End()
	for {
		res := flock.Allocate(p, newResult)
		var step func(pred *node) flock.Thunk
		step = func(pred *node) flock.Thunk {
			return func(hp *flock.Proc) bool {
				curr := pred.next.Load(hp)
				if k > curr.k {
					return curr.lck.TryLock(hp, func(hp2 *flock.Proc) bool {
						pred.lck.Unlock(hp2)
						return step(curr)(hp2)
					})
				}
				if curr.k != k {
					res.Store(hp, resConflict)
					return true
				}
				// Holding pred pins curr; lock curr and splice.
				return curr.lck.TryLock(hp, func(hp2 *flock.Proc) bool {
					next := curr.next.Load(hp2)
					curr.removed.Store(hp2, true)
					pred.next.Store(hp2, next)
					res.Store(hp2, resApplied)
					return true
				})
			}
		}
		if l.head.lck.TryLock(p, step(l.head)) {
			switch res.Load(p) {
			case resApplied:
				return true
			case resConflict:
				return false
			}
		}
	}
}

// Scan implements set.Scanner. Like Find, the scan is optimistic even
// though updates couple locks: writers only ever splice at positions
// they reached by coupling from the head, so a spliced-out node's next
// pointer is frozen and the removed flag makes each reported pair's
// presence instant well defined (interval semantics, DESIGN.md S12).
// The body is a single idempotent thunk: logged loads, run-local
// accumulation, no locks taken.
func (l *List) Scan(p *flock.Proc, lo, hi uint64, limit int) []set.KV {
	lo, hi = set.ClampScanBounds(lo, hi)
	if limit == 0 {
		return nil
	}
	p.Begin()
	defer p.End()
	var out []set.KV
	curr := l.head.next.Load(p)
	for curr.k < lo {
		curr = curr.next.Load(p)
	}
	for curr.k <= hi { // the tail sentinel MaxUint64 always exceeds hi
		if !curr.removed.Load(p) {
			out = append(out, set.KV{Key: curr.k, Value: curr.v})
			if limit > 0 && len(out) >= limit {
				break
			}
		}
		curr = curr.next.Load(p)
	}
	return out
}

// Keys returns a snapshot of the keys (single-threaded use).
func (l *List) Keys(p *flock.Proc) []uint64 {
	var out []uint64
	for n := l.head.next.Load(p); n.k != math.MaxUint64; n = n.next.Load(p) {
		out = append(out, n.k)
	}
	return out
}

// CheckInvariants validates sortedness and that no lock leaked
// (single-threaded use).
func (l *List) CheckInvariants(p *flock.Proc) error {
	prev := l.head
	if l.head.lck.Held() {
		return fmt.Errorf("couplist: head lock leaked")
	}
	for n := prev.next.Load(p); ; n = n.next.Load(p) {
		if n.k <= prev.k {
			return fmt.Errorf("couplist: order violation %d >= %d", prev.k, n.k)
		}
		if n.lck.Held() {
			return fmt.Errorf("couplist: lock leaked at key %d", n.k)
		}
		if n.k == math.MaxUint64 {
			return nil
		}
		prev = n
	}
}
