// Package dlist implements the sorted doubly-linked list of the paper's
// Algorithm 1, using fine-grained optimistic try-locks: insert locks the
// predecessor; delete locks the predecessor and the victim; neither locks
// the successor (an operation on the successor would need the victim's
// lock, so it cannot run concurrently — §1.1). The two-pointer splice
// (lines 31-32 / 48-49) is exactly the pair of stores that is hard to make
// lock-free by hand and trivial with lock-free locks.
package dlist

import (
	"fmt"
	"math"

	flock "flock/internal/core"
	"flock/internal/structures/set"
)

// link is the paper's struct link.
type link struct {
	k, v    uint64
	next    flock.Mutable[*link]
	prev    flock.Mutable[*link]
	removed flock.UpdateOnce[bool]
	lck     flock.Lock
}

// List is a concurrent sorted doubly-linked list set. Keys must be in
// [1, MaxUint64-1].
type List struct {
	head *link
	tail *link
}

// New returns an empty list.
func New(rt *flock.Runtime) *List {
	_ = rt
	head := &link{k: 0}
	tail := &link{k: math.MaxUint64}
	head.next.Init(tail)
	tail.prev.Init(head)
	return &List{head: head, tail: tail}
}

// findLink returns the first link with key >= k (Algorithm 1, find_link).
func (l *List) findLink(p *flock.Proc, k uint64) *link {
	lnk := l.head.next.Load(p)
	for k > lnk.k {
		lnk = lnk.next.Load(p)
	}
	return lnk
}

// Find returns the value stored under k (Algorithm 1, find).
func (l *List) Find(p *flock.Proc, k uint64) (uint64, bool) {
	p.Begin()
	defer p.End()
	lnk := l.findLink(p, k)
	if lnk.k == k {
		return lnk.v, true
	}
	return 0, false
}

// Insert adds (k, v) before the first link with a larger key
// (Algorithm 1, insert).
func (l *List) Insert(p *flock.Proc, k, v uint64) bool {
	p.Begin()
	defer p.End()
	for {
		next := l.findLink(p, k)
		if next.k == k {
			return false // already there
		}
		prev := next.prev.Load(p)
		if prev.k < k && prev.lck.TryLock(p, func(hp *flock.Proc) bool {
			if prev.removed.Load(hp) || // validate
				prev.next.Load(hp) != next {
				return false
			}
			newl := flock.Allocate(hp, func() *link {
				n := &link{k: k, v: v}
				n.next.Init(next)
				n.prev.Init(prev)
				return n
			})
			prev.next.Store(hp, newl) // splice in
			next.prev.Store(hp, newl)
			return true
		}) {
			return true // success
		}
	}
}

// Delete removes k (Algorithm 1, remove).
func (l *List) Delete(p *flock.Proc, k uint64) bool {
	p.Begin()
	defer p.End()
	for {
		lnk := l.findLink(p, k)
		if lnk.k != k {
			return false // not found
		}
		prev := lnk.prev.Load(p)
		if prev.lck.TryLock(p, func(hp *flock.Proc) bool {
			return lnk.lck.TryLock(hp, func(hp2 *flock.Proc) bool {
				if prev.removed.Load(hp2) || // validate
					prev.next.Load(hp2) != lnk {
					return false
				}
				next := lnk.next.Load(hp2)
				lnk.removed.Store(hp2, true)
				prev.next.Store(hp2, next) // splice out
				next.prev.Store(hp2, prev)
				flock.Retire(hp2, lnk, nil)
				return true
			})
		}) {
			return true // success
		}
	}
}

// Scan implements set.Scanner: a forward traversal of the next chain
// from the first link with key >= lo, reporting every link it reaches,
// as Find does. A removed link's next pointer is frozen (any operation
// on its successor needs its lock, whose validation fails once
// removed), so every link reached was in the list at some instant
// during the scan, and the interval-semantics contract of set.Scanner
// holds. The removed flag is not consulted: a delete sets it before its
// splice, and in between Find and Insert still see the key, so a scan
// that skipped the flagged link would report the key absent too early.
// The body is a single idempotent thunk: logged loads, run-local
// accumulation.
func (l *List) Scan(p *flock.Proc, lo, hi uint64, limit int) []set.KV {
	lo, hi = set.ClampScanBounds(lo, hi)
	if limit == 0 {
		return nil
	}
	p.Begin()
	defer p.End()
	var out []set.KV
	curr := l.findLink(p, lo)
	for curr.k <= hi { // the tail sentinel MaxUint64 always exceeds hi
		out = append(out, set.KV{Key: curr.k, Value: curr.v})
		if limit > 0 && len(out) >= limit {
			break
		}
		curr = curr.next.Load(p)
	}
	return out
}

// Keys returns the forward-traversal key snapshot (single-threaded use).
func (l *List) Keys(p *flock.Proc) []uint64 {
	var out []uint64
	for n := l.head.next.Load(p); n != l.tail; n = n.next.Load(p) {
		out = append(out, n.k)
	}
	return out
}

// CheckInvariants verifies sorted order and that backward traversal
// mirrors forward traversal (single-threaded use).
func (l *List) CheckInvariants(p *flock.Proc) error {
	var fwd []*link
	prevK := uint64(0)
	for n := l.head.next.Load(p); n != l.tail; n = n.next.Load(p) {
		if n.k <= prevK {
			return fmt.Errorf("dlist: forward order violation at %d", n.k)
		}
		prevK = n.k
		fwd = append(fwd, n)
		if len(fwd) > 1<<26 {
			return fmt.Errorf("dlist: forward traversal does not terminate")
		}
	}
	i := len(fwd) - 1
	for n := l.tail.prev.Load(p); n != l.head; n = n.prev.Load(p) {
		if i < 0 {
			return fmt.Errorf("dlist: backward traversal longer than forward")
		}
		if n != fwd[i] {
			return fmt.Errorf("dlist: prev chain diverges at key %d", n.k)
		}
		i--
	}
	if i >= 0 {
		return fmt.Errorf("dlist: backward traversal shorter than forward")
	}
	return nil
}
