// Package ellen implements the Ellen–Fatourou–Ruppert–van Breugel
// non-blocking external binary search tree [21], a lock-free baseline in
// Figure 5. Updates publish Info records on the nodes they will modify
// (IFLAG/DFLAG/MARK states) and any operation that encounters a non-clean
// node helps it finish — descriptor-based helping in its hand-rolled,
// structure-specific form, which is exactly what lock-free locks
// generalize.
package ellen

import (
	"math"
	"sync/atomic"

	flock "flock/internal/core"
)

const (
	inf1 = math.MaxUint64 - 1
	inf2 = math.MaxUint64
)

// Update states.
const (
	clean = iota
	iflag
	dflag
	mark
)

// upd is an immutable (state, info) pair installed by CAS.
type upd struct {
	state int
	info  any // *iinfo or *dinfo
}

var cleanUpd = &upd{state: clean}

type node struct {
	k, v   uint64
	leaf   bool
	left   atomic.Pointer[node]
	right  atomic.Pointer[node]
	update atomic.Pointer[upd]
}

func newLeaf(k, v uint64) *node {
	n := &node{k: k, v: v, leaf: true}
	n.update.Store(cleanUpd)
	return n
}

func newInternal(k uint64, l, r *node) *node {
	n := &node{k: k}
	n.left.Store(l)
	n.right.Store(r)
	n.update.Store(cleanUpd)
	return n
}

// iinfo describes a pending insert: replace leaf l under p by newInternal.
type iinfo struct {
	p, newInternal, l *node
}

// dinfo describes a pending delete: unlink p and leaf l under gp.
type dinfo struct {
	gp, p, l *node
	pupdate  *upd
}

// Tree is the Ellen et al. BST. Keys must be in [1, set.MaxKey], below
// the inf1 sentinel.
type Tree struct {
	root *node
}

// New returns an empty tree: root(inf2) over leaves inf1, inf2.
func New() *Tree {
	return &Tree{root: newInternal(inf2, newLeaf(inf1, 0), newLeaf(inf2, 0))}
}

func childPtr(n *node, k uint64) *atomic.Pointer[node] {
	if k < n.k {
		return &n.left
	}
	return &n.right
}

type searchRes struct {
	gp, p, l          *node
	pupdate, gpupdate *upd
}

func (t *Tree) search(k uint64) searchRes {
	var r searchRes
	r.p = t.root
	r.pupdate = r.p.update.Load()
	r.l = childPtr(r.p, k).Load()
	for !r.l.leaf {
		r.gp = r.p
		r.gpupdate = r.pupdate
		r.p = r.l
		r.pupdate = r.p.update.Load()
		r.l = childPtr(r.p, k).Load()
	}
	return r
}

// Find reports the value stored under k.
func (t *Tree) Find(p *flock.Proc, k uint64) (uint64, bool) {
	_ = p
	cur := childPtr(t.root, k).Load()
	for !cur.leaf {
		cur = childPtr(cur, k).Load()
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
		r := t.search(k)
		if r.l.k == k {
			return false
		}
		if r.pupdate.state != clean {
			t.help(r.pupdate)
			continue
		}
		// The replaced leaf goes under the new internal node as a fresh
		// copy, as in the paper: op.l then leaves the tree for good, so a
		// slow helper's child CAS from op.l can never succeed again (a
		// later delete could otherwise promote op.l back under r.p and
		// let that CAS resurrect the removed subtree).
		nl := newLeaf(k, v)
		sib := newLeaf(r.l.k, r.l.v)
		var inner *node
		if k < r.l.k {
			inner = newInternal(r.l.k, nl, sib)
		} else {
			inner = newInternal(k, sib, nl)
		}
		op := &iinfo{p: r.p, newInternal: inner, l: r.l}
		next := &upd{state: iflag, info: op}
		if r.p.update.CompareAndSwap(r.pupdate, next) {
			t.helpInsert(op, next)
			return true
		}
		t.help(r.p.update.Load())
	}
}

func (t *Tree) helpInsert(op *iinfo, flagUpd *upd) {
	t.casChild(op.p, op.l, op.newInternal)
	op.p.update.CompareAndSwap(flagUpd, &upd{state: clean})
}

// Delete removes k; false if absent.
func (t *Tree) Delete(p *flock.Proc, k uint64) bool {
	_ = p
	for {
		r := t.search(k)
		if r.l.k != k {
			return false
		}
		if r.gpupdate.state != clean {
			t.help(r.gpupdate)
			continue
		}
		if r.pupdate.state != clean {
			t.help(r.pupdate)
			continue
		}
		op := &dinfo{gp: r.gp, p: r.p, l: r.l, pupdate: r.pupdate}
		flagU := &upd{state: dflag, info: op}
		if r.gp.update.CompareAndSwap(r.gpupdate, flagU) {
			if t.helpDelete(op, flagU) {
				return true
			}
		} else {
			t.help(r.gp.update.Load())
		}
	}
}

// helpDelete tries to mark the parent; on success the splice completes,
// otherwise the grandparent flag is backtracked.
func (t *Tree) helpDelete(op *dinfo, flagU *upd) bool {
	markU := &upd{state: mark, info: op}
	if op.p.update.CompareAndSwap(op.pupdate, markU) {
		t.helpMarked(op, flagU)
		return true
	}
	cur := op.p.update.Load()
	if cur.state == mark {
		if di, ok := cur.info.(*dinfo); ok && di == op {
			t.helpMarked(op, flagU)
			return true
		}
	}
	t.help(cur)
	op.gp.update.CompareAndSwap(flagU, &upd{state: clean}) // backtrack
	return false
}

func (t *Tree) helpMarked(op *dinfo, flagU *upd) {
	// Promote the sibling of the deleted leaf.
	var sibling *node
	if op.p.left.Load() == op.l {
		sibling = op.p.right.Load()
	} else {
		sibling = op.p.left.Load()
	}
	t.casChild(op.gp, op.p, sibling)
	op.gp.update.CompareAndSwap(flagU, &upd{state: clean})
}

// help dispatches on the state of a non-clean update record.
func (t *Tree) help(u *upd) {
	switch u.state {
	case iflag:
		t.helpInsert(u.info.(*iinfo), u)
	case mark:
		op := u.info.(*dinfo)
		t.helpMarked(op, findFlag(op))
	case dflag:
		t.helpDelete(u.info.(*dinfo), u)
	}
}

// findFlag recovers the dflag update on gp for op (needed when helping a
// marked node encountered without the flag record in hand).
func findFlag(op *dinfo) *upd {
	cur := op.gp.update.Load()
	if cur.state == dflag {
		if di, ok := cur.info.(*dinfo); ok && di == op {
			return cur
		}
	}
	// gp already cleaned or moved on, so op's splice is done: return nil,
	// on which helpMarked's CASes fail. Returning cur would let its
	// unflag CAS clear another operation's flag.
	return nil
}

func (t *Tree) casChild(parent, old, new *node) {
	if parent.left.Load() == old {
		parent.left.CompareAndSwap(old, new)
	} else if parent.right.Load() == old {
		parent.right.CompareAndSwap(old, new)
	}
}

// Keys returns the key snapshot (single-threaded use).
func (t *Tree) Keys(p *flock.Proc) []uint64 {
	var out []uint64
	var walk func(n *node)
	walk = func(n *node) {
		if n.leaf {
			if n.k < inf1 {
				out = append(out, n.k)
			}
			return
		}
		walk(n.left.Load())
		walk(n.right.Load())
	}
	walk(t.root)
	return out
}
