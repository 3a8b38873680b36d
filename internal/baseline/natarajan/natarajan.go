// Package natarajan implements the Natarajan–Mittal lock-free external
// binary search tree [42], one of the lock-free baselines in Figure 5.
// Deletions flag the edge to the victim leaf and tag the sibling edge,
// then swing the ancestor edge over the whole deleted chain; operations
// that encounter a flagged or tagged edge help complete the removal.
//
// Go adaptation: an edge is an immutable boxed (child, flagged, tagged)
// triple replaced whole by CAS (no stolen pointer bits); fresh boxes make
// every CAS ABA-free (DESIGN.md S1).
package natarajan

import (
	"math"
	"sync/atomic"

	flock "flock/internal/core"
)

const (
	inf0 = math.MaxUint64 - 2
	inf1 = math.MaxUint64 - 1
	inf2 = math.MaxUint64
)

// edge is one immutable state of a parent->child link.
type edge struct {
	n       *node
	flagged bool // the leaf under this edge is being deleted
	tagged  bool // this edge is frozen for promotion
}

type node struct {
	k, v  uint64
	leaf  bool
	left  atomic.Pointer[edge]
	right atomic.Pointer[edge]
}

func newLeaf(k, v uint64) *node { return &node{k: k, v: v, leaf: true} }

func newInternal(k uint64, l, r *node) *node {
	n := &node{k: k}
	n.left.Store(&edge{n: l})
	n.right.Store(&edge{n: r})
	return n
}

// Tree is the Natarajan–Mittal BST. Keys must be in [1, set.MaxKey],
// below the inf0 sentinel.
type Tree struct {
	root *node // R(inf2): left = S(inf1), right = leaf(inf2)
	s    *node // S(inf1): left = leaf(inf0), right = leaf(inf1)
}

// New returns an empty tree with the standard three-sentinel layout.
func New() *Tree {
	s := newInternal(inf1, newLeaf(inf0, 0), newLeaf(inf1, 0))
	r := newInternal(inf2, s, newLeaf(inf2, 0))
	return &Tree{root: r, s: s}
}

func childField(n *node, k uint64) *atomic.Pointer[edge] {
	if k < n.k {
		return &n.left
	}
	return &n.right
}

func siblingField(n *node, k uint64) *atomic.Pointer[edge] {
	if k < n.k {
		return &n.right
	}
	return &n.left
}

// seekRecord captures the last untagged edge (ancestor->successor) and
// the terminal parent/leaf pair on the search path.
type seekRecord struct {
	ancestor, successor, parent, leaf *node
}

func (t *Tree) seek(k uint64) seekRecord {
	r := seekRecord{ancestor: t.root, successor: t.s, parent: t.s}
	curE := t.s.left.Load()
	cur := curE.n
	for !cur.leaf {
		if !curE.tagged {
			r.ancestor = r.parent
			r.successor = cur
		}
		r.parent = cur
		curE = childField(cur, k).Load()
		cur = curE.n
	}
	r.leaf = cur
	return r
}

// Find reports the value stored under k.
func (t *Tree) Find(p *flock.Proc, k uint64) (uint64, bool) {
	_ = p
	cur := t.s.left.Load().n
	for !cur.leaf {
		cur = childField(cur, k).Load().n
	}
	if cur.k == k {
		return cur.v, true
	}
	return 0, false
}

// Insert adds (k, v); false if already present.
func (t *Tree) Insert(p *flock.Proc, k, v uint64) bool {
	_ = p
	for {
		r := t.seek(k)
		if r.leaf.k == k {
			return false
		}
		parField := childField(r.parent, k)
		old := parField.Load()
		if old.n != r.leaf {
			continue // stale; re-seek
		}
		if !old.flagged && !old.tagged {
			nl := newLeaf(k, v)
			var inner *node
			if k < r.leaf.k {
				inner = newInternal(r.leaf.k, nl, r.leaf)
			} else {
				inner = newInternal(k, r.leaf, nl)
			}
			if parField.CompareAndSwap(old, &edge{n: inner}) {
				return true
			}
			old = parField.Load()
		}
		// Help an in-progress deletion touching this edge.
		if old.n == r.leaf && (old.flagged || old.tagged) {
			t.cleanup(k, r)
		}
	}
}

// Delete removes k; false if absent. Injection flags the victim's edge;
// cleanup (possibly helped by others) performs the splice.
func (t *Tree) Delete(p *flock.Proc, k uint64) bool {
	_ = p
	injecting := true
	var leaf *node
	for {
		r := t.seek(k)
		if injecting {
			if r.leaf.k != k {
				return false
			}
			leaf = r.leaf
			parField := childField(r.parent, k)
			old := parField.Load()
			if old.n != leaf {
				continue
			}
			if old.flagged || old.tagged {
				t.cleanup(k, r) // help whoever is there, then retry
				continue
			}
			if parField.CompareAndSwap(old, &edge{n: leaf, flagged: true}) {
				injecting = false
				if t.cleanup(k, r) {
					return true
				}
			}
		} else {
			if r.leaf != leaf {
				return true // someone completed our splice
			}
			if t.cleanup(k, r) {
				return true
			}
		}
	}
}

// cleanup completes the removal of the flagged leaf on k's path: it tags
// the edge to be promoted and swings the ancestor's successor edge over
// the deleted chain. Returns whether this call performed the splice.
func (t *Tree) cleanup(k uint64, r seekRecord) bool {
	ancField := childField(r.ancestor, k)

	childF := childField(r.parent, k)
	promoteF := siblingField(r.parent, k)
	if !childF.Load().flagged {
		// The victim is on the sibling side; promote the k side.
		promoteF = childF
	}
	// Tag the promoted edge so its value is frozen.
	for {
		pe := promoteF.Load()
		if pe.tagged {
			break
		}
		if promoteF.CompareAndSwap(pe, &edge{n: pe.n, flagged: pe.flagged, tagged: true}) {
			break
		}
	}
	pe := promoteF.Load()
	old := ancField.Load()
	if old.n != r.successor || old.flagged || old.tagged {
		return false
	}
	// Preserve a pending flag on the promoted edge (a concurrent delete
	// of the promoted leaf), drop the tag.
	return ancField.CompareAndSwap(old, &edge{n: pe.n, flagged: pe.flagged})
}

// Keys returns the key snapshot (single-threaded use).
func (t *Tree) Keys(p *flock.Proc) []uint64 {
	var out []uint64
	var walk func(n *node)
	walk = func(n *node) {
		if n.leaf {
			if n.k < inf0 {
				out = append(out, n.k)
			}
			return
		}
		walk(n.left.Load().n)
		walk(n.right.Load().n)
	}
	walk(t.root)
	return out
}
