// Package leaftreap implements the paper's "leaftreap": a leaf-oriented
// binary tree whose leaves hold a block of up to two cachelines of
// key-value pairs (8 pairs), which keeps the tree short. Leaves are
// immutable and replaced copy-on-write under the parent's lock, so plain
// inserts and deletes take exactly one try-lock; a full leaf splits at
// the median into an internal node with two half-leaves, and a leaf that
// empties is spliced out with its parent under the grandparent's lock.
//
// Substitution note (DESIGN.md S6): the paper balances the routing tree
// as a treap; here balance comes from median splits over the workload's
// random key order, which yields the same expected logarithmic height
// without concurrent rotations.
package leaftreap

import (
	"fmt"
	"math"
	"sort"

	flock "flock/internal/core"
	"flock/internal/structures/set"
)

// LeafCap is the number of key-value pairs per leaf block: 8 pairs of
// 8-byte key + 8-byte value = 128 bytes = two cachelines, as in the paper.
const LeafCap = 8

const inf2 = math.MaxUint64

// node is an internal router (leaf=false, routing key k) or an immutable
// leaf block (sorted keys with parallel vals).
type node struct {
	k       uint64
	leaf    bool
	keys    []uint64
	vals    []uint64
	left    flock.Mutable[*node]
	right   flock.Mutable[*node]
	removed flock.UpdateOnce[bool]
	lck     flock.Lock
}

// Tree is a concurrent blocked external tree. Keys must be in
// [1, set.MaxKey].
type Tree struct {
	root *node
}

// New returns an empty tree: the root sentinel routes every real key to
// an (initially empty) leaf block on its left.
func New(rt *flock.Runtime) *Tree {
	_ = rt
	root := &node{k: inf2}
	root.left.Init(&node{leaf: true})
	root.right.Init(&node{leaf: true})
	return &Tree{root: root}
}

func childOf(n *node, k uint64) *flock.Mutable[*node] {
	if k < n.k {
		return &n.left
	}
	return &n.right
}

func siblingOf(n *node, k uint64) *flock.Mutable[*node] {
	if k < n.k {
		return &n.right
	}
	return &n.left
}

// search descends to the leaf block k routes to.
func (t *Tree) search(p *flock.Proc, k uint64) (gp, pp, leaf *node) {
	pp = t.root
	cur := childOf(pp, k).Load(p)
	for !cur.leaf {
		gp = pp
		pp = cur
		cur = childOf(cur, k).Load(p)
	}
	return gp, pp, cur
}

// find performs binary search within a block.
func blockFind(b *node, k uint64) (int, bool) {
	i := sort.Search(len(b.keys), func(i int) bool { return b.keys[i] >= k })
	return i, i < len(b.keys) && b.keys[i] == k
}

// Find reports the value stored under k.
func (t *Tree) Find(p *flock.Proc, k uint64) (uint64, bool) {
	p.Begin()
	defer p.End()
	_, _, leaf := t.search(p, k)
	if i, ok := blockFind(leaf, k); ok {
		return leaf.vals[i], true
	}
	return 0, false
}

// Insert adds (k, v); false if already present.
func (t *Tree) Insert(p *flock.Proc, k, v uint64) bool {
	p.Begin()
	defer p.End()
	for {
		_, pp, leaf := t.search(p, k)
		pos, found := blockFind(leaf, k)
		if found {
			return false
		}
		ok := pp.lck.TryLock(p, func(hp *flock.Proc) bool {
			if pp.removed.Load(hp) || childOf(pp, k).Load(hp) != leaf {
				return false // validate; leaf blocks are immutable, so
				// pointer equality pins the contents we searched.
			}
			if len(leaf.keys) < LeafCap {
				nl := flock.Allocate(hp, func() *node {
					return insertedBlock(leaf, pos, k, v)
				})
				childOf(pp, k).Store(hp, nl)
				return true
			}
			// Split at the median of the LeafCap+1 merged pairs.
			inner := flock.Allocate(hp, func() *node {
				merged := insertedBlock(leaf, pos, k, v)
				mid := (LeafCap + 1) / 2
				leftB := &node{leaf: true, keys: merged.keys[:mid], vals: merged.vals[:mid]}
				rightB := &node{leaf: true, keys: merged.keys[mid:], vals: merged.vals[mid:]}
				in := &node{k: rightB.keys[0]}
				in.left.Init(leftB)
				in.right.Init(rightB)
				return in
			})
			childOf(pp, k).Store(hp, inner)
			return true
		})
		if ok {
			return true
		}
	}
}

// insertedBlock returns a fresh block equal to b with (k,v) at pos.
func insertedBlock(b *node, pos int, k, v uint64) *node {
	nk := make([]uint64, len(b.keys)+1)
	nv := make([]uint64, len(b.vals)+1)
	copy(nk, b.keys[:pos])
	copy(nv, b.vals[:pos])
	nk[pos], nv[pos] = k, v
	copy(nk[pos+1:], b.keys[pos:])
	copy(nv[pos+1:], b.vals[pos:])
	return &node{leaf: true, keys: nk, vals: nv}
}

// Delete removes k; false if absent.
func (t *Tree) Delete(p *flock.Proc, k uint64) bool {
	p.Begin()
	defer p.End()
	for {
		gp, pp, leaf := t.search(p, k)
		pos, found := blockFind(leaf, k)
		if !found {
			return false
		}
		if len(leaf.keys) > 1 || pp == t.root {
			// Copy-on-write shrink under the parent's lock. (The root's
			// leaf child may become empty; the root is never spliced.)
			ok := pp.lck.TryLock(p, func(hp *flock.Proc) bool {
				if pp.removed.Load(hp) || childOf(pp, k).Load(hp) != leaf {
					return false
				}
				nl := flock.Allocate(hp, func() *node {
					nk := make([]uint64, 0, len(leaf.keys)-1)
					nv := make([]uint64, 0, len(leaf.vals)-1)
					nk = append(append(nk, leaf.keys[:pos]...), leaf.keys[pos+1:]...)
					nv = append(append(nv, leaf.vals[:pos]...), leaf.vals[pos+1:]...)
					return &node{leaf: true, keys: nk, vals: nv}
				})
				childOf(pp, k).Store(hp, nl)
				return true
			})
			if ok {
				return true
			}
			continue
		}
		// The block would become empty: splice pp out, promoting the
		// sibling, under gp's and pp's locks.
		ok := gp.lck.TryLock(p, func(hp *flock.Proc) bool {
			if gp.removed.Load(hp) || childOf(gp, k).Load(hp) != pp {
				return false
			}
			return pp.lck.TryLock(hp, func(hp2 *flock.Proc) bool {
				if childOf(pp, k).Load(hp2) != leaf {
					return false
				}
				sibling := siblingOf(pp, k).Load(hp2)
				pp.removed.Store(hp2, true)
				childOf(gp, k).Store(hp2, sibling)
				return true
			})
		})
		if ok {
			return true
		}
	}
}

// Scan implements set.Scanner: an in-order walk of the routing tree
// pruned to [lo, hi], collecting the qualifying slice of each
// intersecting leaf block. Blocks are immutable and replaced
// copy-on-write, so each loaded block is a consistent point snapshot of
// its key interval (interval semantics across blocks, as in leaftree).
// The body is a single idempotent thunk: logged loads, run-local
// accumulation. The clamped hi is below the inf2 root sentinel, so the
// root's (always empty) right block is never visited.
func (t *Tree) Scan(p *flock.Proc, lo, hi uint64, limit int) []set.KV {
	lo, hi = set.ClampScanBounds(lo, hi)
	if limit == 0 {
		return nil
	}
	p.Begin()
	defer p.End()
	var out []set.KV
	var walk func(n *node) bool // false once limit is reached
	walk = func(n *node) bool {
		if n.leaf {
			i := sort.Search(len(n.keys), func(i int) bool { return n.keys[i] >= lo })
			for ; i < len(n.keys) && n.keys[i] <= hi; i++ {
				out = append(out, set.KV{Key: n.keys[i], Value: n.vals[i]})
				if limit > 0 && len(out) >= limit {
					return false
				}
			}
			return true
		}
		// n.left covers keys < n.k, n.right covers keys >= n.k.
		if lo < n.k && !walk(n.left.Load(p)) {
			return false
		}
		if hi >= n.k {
			return walk(n.right.Load(p))
		}
		return true
	}
	walk(t.root)
	return out
}

// Keys returns the sorted key snapshot (single-threaded use).
func (t *Tree) Keys(p *flock.Proc) []uint64 {
	var out []uint64
	var walk func(n *node)
	walk = func(n *node) {
		if n.leaf {
			out = append(out, n.keys...)
			return
		}
		walk(n.left.Load(p))
		walk(n.right.Load(p))
	}
	walk(t.root.left.Load(p))
	return out
}

// Height returns the maximum leaf depth below the root (single-threaded).
func (t *Tree) Height(p *flock.Proc) int {
	var walk func(n *node) int
	walk = func(n *node) int {
		if n.leaf {
			return 0
		}
		l, r := walk(n.left.Load(p)), walk(n.right.Load(p))
		if l > r {
			return l + 1
		}
		return r + 1
	}
	return walk(t.root.left.Load(p))
}

// CheckInvariants verifies routing bounds, block sort order, block
// capacity, and that only the root's child block may be empty
// (single-threaded use).
func (t *Tree) CheckInvariants(p *flock.Proc) error {
	var walk func(n *node, lo, hi uint64, isRootChild bool) error
	walk = func(n *node, lo, hi uint64, isRootChild bool) error {
		if n.leaf {
			if len(n.keys) > LeafCap {
				return fmt.Errorf("leaftreap: block of %d > cap", len(n.keys))
			}
			if len(n.keys) == 0 && !isRootChild {
				return fmt.Errorf("leaftreap: empty non-root block")
			}
			for i, k := range n.keys {
				if k < lo || k >= hi {
					return fmt.Errorf("leaftreap: key %d outside [%d,%d)", k, lo, hi)
				}
				if i > 0 && n.keys[i-1] >= k {
					return fmt.Errorf("leaftreap: block unsorted at %d", k)
				}
			}
			return nil
		}
		if n.k < lo || n.k >= hi {
			return fmt.Errorf("leaftreap: router %d outside [%d,%d)", n.k, lo, hi)
		}
		if err := walk(n.left.Load(p), lo, n.k, false); err != nil {
			return err
		}
		return walk(n.right.Load(p), n.k, hi, false)
	}
	return walk(t.root.left.Load(p), 0, inf2, true)
}
