// Package hashtable implements the paper's separate-chaining hash table:
// an array of buckets, each a short sorted linked list maintained with the
// same fine-grained optimistic try-lock protocol as lazylist. Searches
// take no locks; because chains are short, the fraction of time spent
// inside critical sections is the highest of all the structures, which is
// why the paper observes the largest lock-free overhead here (§8).
package hashtable

import (
	"fmt"
	"sort"
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

// Insert adds (k, v); false if already present.
func (t *Table) Insert(p *flock.Proc, k, v uint64) bool {
	p.Begin()
	defer p.End()
	for {
		pred, curr := t.locate(p, k)
		if curr != nil && curr.k == k {
			if curr.removed.Load(p) {
				continue
			}
			return false
		}
		ok := pred.lck.TryLock(p, func(hp *flock.Proc) bool {
			if pred.removed.Load(hp) || pred.next.Load(hp) != curr {
				return false
			}
			n := flock.Allocate(hp, func() *node {
				nn := &node{k: k}
				nn.v.Init(v)
				nn.next.Init(curr)
				return nn
			})
			pred.next.Store(hp, n)
			return true
		})
		if ok {
			return true
		}
	}
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
		ok := pred.lck.TryLock(p, func(hp *flock.Proc) bool {
			return curr.lck.TryLock(hp, func(hp2 *flock.Proc) bool {
				if pred.removed.Load(hp2) || pred.next.Load(hp2) != curr {
					return false
				}
				next := curr.next.Load(hp2)
				curr.removed.Store(hp2, true)
				pred.next.Store(hp2, next)
				return true
			})
		})
		if ok {
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
	p.Begin()
	defer p.End()
	for {
		pred, curr := t.locate(p, k)
		if curr != nil && curr.k == k {
			if curr.removed.Load(p) {
				continue
			}
			// prev is written by whichever runs of the thunk execute
			// (owner and helpers); the logged load makes them all store
			// the same value, so the atomic store is idempotent.
			var prev atomic.Uint64
			ok := curr.lck.TryLock(p, func(hp *flock.Proc) bool {
				if curr.removed.Load(hp) {
					return false // deleted under us; revalidate
				}
				old := curr.v.Load(hp)
				curr.v.Store(hp, f(old, true))
				prev.Store(old)
				return true
			})
			if ok {
				return prev.Load(), true
			}
			continue
		}
		newv := f(0, false)
		ok := pred.lck.TryLock(p, func(hp *flock.Proc) bool {
			if pred.removed.Load(hp) || pred.next.Load(hp) != curr {
				return false
			}
			n := flock.Allocate(hp, func() *node {
				nn := &node{k: k}
				nn.v.Init(newv)
				nn.next.Init(curr)
				return nn
			})
			pred.next.Store(hp, n)
			return true
		})
		if ok {
			return 0, false
		}
	}
}

// Scan implements set.Scanner on the unordered table: every chain is
// walked once, in-range live pairs are collected run-locally, and the
// result is sorted by key before the limit is applied (qualifying keys
// are scattered across buckets, so an unordered structure cannot
// early-exit on limit). The body keeps Scanner's thunk contract —
// logged loads only, run-local accumulation, no locks taken — so it can
// run at top level (weak interval consistency) or nested under the KV
// layer's shard locks. The cost is O(buckets + hits·log hits) rather
// than the trees' output-proportional walks; the table exists for
// point-op throughput, and its scan consumers (the snapshot iterator,
// conserved-sum audits) accept the full sweep.
func (t *Table) Scan(p *flock.Proc, lo, hi uint64, limit int) []set.KV {
	lo, hi = set.ClampScanBounds(lo, hi)
	if limit == 0 || lo > hi {
		return nil
	}
	p.Begin()
	defer p.End()
	var out []set.KV
	for i := range t.buckets {
		for c := t.buckets[i].next.Load(p); c != nil; c = c.next.Load(p) {
			if c.k >= lo && c.k <= hi && !c.removed.Load(p) {
				out = append(out, set.KV{Key: c.k, Value: c.v.Load(p)})
			}
		}
	}
	sort.Slice(out, func(a, b int) bool { return out[a].Key < out[b].Key })
	if limit > 0 && len(out) > limit {
		out = out[:limit]
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
