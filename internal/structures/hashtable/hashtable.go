// Package hashtable implements the paper's separate-chaining hash table:
// an array of buckets, each a short sorted linked list maintained with the
// same fine-grained optimistic try-lock protocol as lazylist. Searches
// take no locks; because chains are short, the fraction of time spent
// inside critical sections is the highest of all the structures, which is
// why the paper observes the largest lock-free overhead here (§8).
//
// Insert, Delete and Upsert build no closure. Each attempt's critical
// section keeps its state in an op, whose thunks are method values bound
// once, and ops are reused per Proc once no helper can still run them
// (flock.Recycler). An insert builds its node before the attempt, and
// every run links that node. So a present-key Upsert allocates only the
// new value's box, in both modes.
package hashtable

import (
	"cmp"
	"fmt"
	"slices"
	"sync/atomic"

	flock "flock/internal/core"
	"flock/internal/structures/set"
)

// node is one chain link. The head node of each bucket is a sentinel that
// is never removed. The value is a Mutable (not a plain field) so Upsert
// can replace it in place under the node's lock.
type node struct {
	k       uint64
	v       flock.Mutable[uint64]
	next    flock.Mutable[*node]
	removed flock.UpdateOnce[bool]
	lck     flock.Lock
}

// Table is a concurrent separate-chaining hash set with a fixed bucket
// array (the paper's tables are sized to the key range and not resized).
type Table struct {
	buckets []node
	mask    uint64
}

// New returns a table with at least nBuckets buckets (rounded up to a
// power of two).
func New(rt *flock.Runtime, nBuckets int) *Table {
	_ = rt
	n := 1
	for n < nBuckets {
		n <<= 1
	}
	return &Table{buckets: make([]node, n), mask: uint64(n - 1)}
}

// hash is splitmix64's finalizer: a cheap, well-mixed multiplicative hash.
func hash(k uint64) uint64 {
	z := k + 0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

func (t *Table) bucket(k uint64) *node {
	return &t.buckets[hash(k)&t.mask]
}

// locate returns the predecessor and the first node with key >= k in k's
// chain; curr is nil when the chain ends first.
func (t *Table) locate(p *flock.Proc, k uint64) (pred, curr *node) {
	pred = t.bucket(k)
	curr = pred.next.Load(p)
	for curr != nil && curr.k < k {
		pred = curr
		curr = curr.next.Load(p)
	}
	return pred, curr
}

// Find reports the value stored under k.
func (t *Table) Find(p *flock.Proc, k uint64) (uint64, bool) {
	p.Begin()
	defer p.End()
	_, curr := t.locate(p, k)
	if curr != nil && curr.k == k && !curr.removed.Load(p) {
		return curr.v.Load(p), true
	}
	return 0, false
}

// op is one attempt's critical section state. Its thunks, run and
// unlink, are method values bound when the op is made and on its first
// Delete (flock.Recycler), and it fits one cache line. Each attempt
// takes its own op: a straggler replaying an earlier attempt's
// descriptor must find that attempt's inputs.
type op struct {
	pred, curr *node
	n          *node // the node an insert links, built before the attempt
	f          func(old uint64, present bool) uint64
	// prev is the value an Upsert replaced. Every run stores the same
	// logged value, so the store is idempotent.
	prev        atomic.Uint64
	run, unlink flock.Thunk
}

var ops = flock.NewRecycler(func() *op {
	o := new(op)
	o.run = o.section
	return o
})

// try runs one attempt's critical section under l on an op over pred
// and curr that links n, replaces curr's value with f, or unlinks curr.
// It returns the value an Upsert replaced and whether the section ran
// and succeeded.
func try(p *flock.Proc, l *flock.Lock, pred, curr, n *node, f func(uint64, bool) uint64) (uint64, bool) {
	o := ops.Get(p)
	o.pred, o.curr, o.n, o.f = pred, curr, n, f
	if n == nil && f == nil && o.unlink == nil {
		o.unlink = o.unlinkRun // bound on the op's first Delete
	}
	o.prev.Store(0) // what a run whose op lost the descriptor commit reads
	ok := l.TryLock(p, o.run)
	ops.Put(p, o) // parked, but not reused before the load below
	return o.prev.Load(), ok
}

// section links n after pred under pred's lock, replaces curr's value
// under curr's lock, or, under pred's lock, takes curr's to unlink it.
func (o *op) section(hp *flock.Proc) bool {
	switch {
	case o.n != nil:
		if o.pred.removed.Load(hp) || o.pred.next.Load(hp) != o.curr {
			return false
		}
		o.pred.next.Store(hp, o.n)
		return true
	case o.f != nil:
		if o.curr.removed.Load(hp) {
			return false // deleted under us; revalidate
		}
		old := o.curr.v.Load(hp)
		o.curr.v.Store(hp, o.f(old, true))
		o.prev.Store(old)
		return true
	default:
		return o.curr.lck.TryLock(hp, o.unlink)
	}
}

// unlinkRun splices curr out, under pred's and curr's locks.
func (o *op) unlinkRun(hp *flock.Proc) bool {
	if o.pred.removed.Load(hp) || o.pred.next.Load(hp) != o.curr {
		return false
	}
	next := o.curr.next.Load(hp)
	o.curr.removed.Store(hp, true)
	o.pred.next.Store(hp, next)
	return true
}

// Insert adds (k, v); false if already present.
func (t *Table) Insert(p *flock.Proc, k, v uint64) bool {
	_, present := t.update(p, k, v, nil)
	return !present
}

// Delete removes k; false if absent.
func (t *Table) Delete(p *flock.Proc, k uint64) bool {
	p.Begin()
	defer p.End()
	for {
		pred, curr := t.locate(p, k)
		if curr == nil || curr.k != k {
			return false
		}
		if _, ok := try(p, &pred.lck, pred, curr, nil, nil); ok {
			return true
		}
	}
}

// Upsert implements set.Upserter: it stores f(old, present) under k in
// one critical section. A present key's value is replaced in place under
// the node's lock (the lock excludes both Delete, which takes it before
// splicing, and other Upserts); an absent key takes Insert's path with
// value f(0, false). The old value is read through the thunk log, so all
// helper runs observe the same value and f (which must be pure) computes
// the same replacement in every run.
func (t *Table) Upsert(p *flock.Proc, k uint64, f func(old uint64, present bool) uint64) (uint64, bool) {
	return t.update(p, k, 0, f)
}

// update is Upsert, and with f nil Insert of v, which leaves a present
// key as it is.
func (t *Table) update(p *flock.Proc, k, v uint64, f func(old uint64, present bool) uint64) (uint64, bool) {
	p.Begin()
	defer p.End()
	var n *node
	for {
		pred, curr := t.locate(p, k)
		if curr != nil && curr.k == k {
			if curr.removed.Load(p) {
				continue
			}
			if f == nil {
				return 0, true
			}
			if prev, ok := try(p, &curr.lck, pred, curr, nil, f); ok {
				return prev, true
			}
			continue
		}
		// Every run of the section links this node, and it stays
		// private until then: a failed attempt never links it (its
		// descriptor was not installed, or every run failed the same
		// logged validation), so a retry reuses it.
		if n == nil {
			if f != nil {
				v = f(0, false)
			}
			n = &node{k: k}
			n.v.Init(v)
		}
		n.next.Init(curr)
		if _, ok := try(p, &pred.lck, pred, curr, n, nil); ok {
			return 0, false
		}
	}
}

// Scan implements set.Scanner on the unordered table: every chain is
// walked once, in-range live pairs are appended to dst run-locally, and
// the appended tail is sorted by key before the limit is applied
// (qualifying keys are scattered across buckets, so an unordered
// structure cannot early-exit on limit). The body keeps Scanner's thunk contract —
// logged loads only, run-local accumulation, no locks taken — so it can
// run at top level (weak interval consistency) or nested under the KV
// layer's shard locks. The cost is O(buckets + hits·log hits) rather
// than the trees' output-proportional walks; the table exists for
// point-op throughput, and its scan consumers (the snapshot iterator,
// conserved-sum audits) accept the full sweep.
func (t *Table) Scan(p *flock.Proc, lo, hi uint64, limit int, dst []set.KV) []set.KV {
	lo, hi = set.ClampScanBounds(lo, hi)
	if limit == 0 || lo > hi {
		return dst
	}
	p.Begin()
	defer p.End()
	out := dst
	for i := range t.buckets {
		for c := t.buckets[i].next.Load(p); c != nil; c = c.next.Load(p) {
			if c.k >= lo && c.k <= hi && !c.removed.Load(p) {
				out = append(out, set.KV{Key: c.k, Value: c.v.Load(p)})
			}
		}
	}
	slices.SortFunc(out[len(dst):], func(a, b set.KV) int { return cmp.Compare(a.Key, b.Key) })
	if limit > 0 && len(out)-len(dst) > limit {
		out = out[:len(dst)+limit]
	}
	return out
}

// Size counts all elements (single-threaded use).
func (t *Table) Size(p *flock.Proc) int {
	n := 0
	for i := range t.buckets {
		for c := t.buckets[i].next.Load(p); c != nil; c = c.next.Load(p) {
			n++
		}
	}
	return n
}

// CheckInvariants verifies per-chain sorted order and that every node
// hashes to its bucket (single-threaded use).
func (t *Table) CheckInvariants(p *flock.Proc) error {
	for i := range t.buckets {
		prev := uint64(0)
		first := true
		for c := t.buckets[i].next.Load(p); c != nil; c = c.next.Load(p) {
			if !first && c.k <= prev {
				return fmt.Errorf("hashtable: bucket %d out of order at key %d", i, c.k)
			}
			first = false
			prev = c.k
			if hash(c.k)&t.mask != uint64(i) {
				return fmt.Errorf("hashtable: key %d in wrong bucket %d", c.k, i)
			}
		}
	}
	return nil
}
