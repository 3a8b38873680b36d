// Package lazylist implements a sorted singly-linked list set with
// fine-grained optimistic try-locks, the paper's "lazylist" (after Heller
// et al. [31]): traversals take no locks; updates lock the predecessor
// (and the victim, for deletes), validate, and apply. Run in lock-free
// mode the list is lock-free via helping; in blocking mode the locks are
// plain TTAS locks.
package lazylist

import (
	"fmt"
	"math"
	"sync/atomic"

	flock "flock/internal/core"
	"flock/internal/structures/set"
)

// node is one link. Key and value are constants (written before
// publication); next and removed are shared mutable locations.
type node struct {
	k, v    uint64
	next    flock.Mutable[*node]
	removed flock.UpdateOnce[bool]
	lck     flock.Lock
}

// List is a concurrent sorted linked-list set. Keys must be in
// [1, set.MaxKey].
type List struct {
	head *node
	id   uint64 // global creation order; Move nests locks by (id, key)
}

// listIDs hands every list a place in the global lock order used by
// cross-list operations (see Move): helping chains must descend a
// bounded partial order or helping could cycle (paper, Theorem 4.2).
var listIDs atomic.Uint64

// New returns an empty list bound to rt (the runtime is captured only by
// the Procs used to operate on the list; the structure itself is
// mode-agnostic).
func New(rt *flock.Runtime) *List {
	_ = rt
	tail := &node{k: math.MaxUint64}
	head := &node{k: 0}
	head.next.Init(tail)
	return &List{head: head, id: listIDs.Add(1)}
}

// locate returns the first link with key >= k and its predecessor.
// It takes no locks and performs no logging (it runs outside any thunk).
func (l *List) locate(p *flock.Proc, k uint64) (pred, curr *node) {
	pred = l.head
	curr = pred.next.Load(p)
	for curr.k < k {
		pred = curr
		curr = curr.next.Load(p)
	}
	return pred, curr
}

// Find reports the value stored under k.
func (l *List) Find(p *flock.Proc, k uint64) (uint64, bool) {
	p.Begin()
	defer p.End()
	_, curr := l.locate(p, k)
	if curr.k == k && !curr.removed.Load(p) {
		return curr.v, true
	}
	return 0, false
}

// Insert adds (k, v); false if k is already present.
func (l *List) Insert(p *flock.Proc, k, v uint64) bool {
	p.Begin()
	defer p.End()
	for {
		pred, curr := l.locate(p, k)
		if curr.k == k {
			if curr.removed.Load(p) {
				continue // concurrently deleted; re-traverse
			}
			return false
		}
		ok := pred.lck.TryLock(p, func(hp *flock.Proc) bool {
			if pred.removed.Load(hp) || pred.next.Load(hp) != curr {
				return false // validation failed
			}
			n := flock.Allocate(hp, func() *node {
				nn := &node{k: k, v: v}
				nn.next.Init(curr)
				return nn
			})
			pred.next.Store(hp, n) // splice in
			return true
		})
		if ok {
			return true
		}
	}
}

// Delete removes k; false if absent.
func (l *List) Delete(p *flock.Proc, k uint64) bool {
	p.Begin()
	defer p.End()
	for {
		pred, curr := l.locate(p, k)
		if curr.k != k {
			return false
		}
		ok := pred.lck.TryLock(p, func(hp *flock.Proc) bool {
			return curr.lck.TryLock(hp, func(hp2 *flock.Proc) bool {
				if pred.removed.Load(hp2) || pred.next.Load(hp2) != curr {
					return false // validation failed
				}
				next := curr.next.Load(hp2)
				curr.removed.Store(hp2, true)
				pred.next.Store(hp2, next) // splice out
				return true
			})
		})
		if ok {
			return true
		}
		// Lock was busy or validation failed: someone made progress;
		// re-traverse (the key may now be gone).
	}
}

// Scan implements set.Scanner: an optimistic forward traversal from the
// first node with key >= lo, appending to dst and skipping nodes whose
// removed flag is set (each reported pair was present at the instant
// its removed flag read false). The body is a single idempotent thunk
// — only logged loads and run-local accumulation — so nested inside a
// composed critical section every helper replay collects the identical
// pairs (DESIGN.md S12).
func (l *List) Scan(p *flock.Proc, lo, hi uint64, limit int, dst []set.KV) []set.KV {
	lo, hi = set.ClampScanBounds(lo, hi)
	if limit == 0 {
		return dst
	}
	p.Begin()
	defer p.End()
	out, end := dst, len(dst)+limit // limit < 0: end is never reached
	_, curr := l.locate(p, lo)
	for curr.k <= hi { // the tail sentinel MaxUint64 always exceeds hi
		if !curr.removed.Load(p) {
			out = append(out, set.KV{Key: curr.k, Value: curr.v})
			if len(out) == end {
				break
			}
		}
		curr = curr.next.Load(p)
	}
	return out
}

// Keys returns a snapshot of the keys (single-threaded use: tests and
// examples).
func (l *List) Keys(p *flock.Proc) []uint64 {
	var out []uint64
	for n := l.head.next.Load(p); n.k != math.MaxUint64; n = n.next.Load(p) {
		out = append(out, n.k)
	}
	return out
}

// CheckInvariants validates sortedness and sentinel reachability
// (single-threaded use).
func (l *List) CheckInvariants(p *flock.Proc) error {
	prev := l.head
	for n := prev.next.Load(p); ; n = n.next.Load(p) {
		if n.k <= prev.k {
			return fmt.Errorf("lazylist: order violation: %d >= %d", prev.k, n.k)
		}
		if n.k == math.MaxUint64 {
			return nil
		}
		prev = n
	}
}
