// Package leaftree implements the paper's "leaftree": a leaf-oriented
// (external) unbalanced binary search tree with fine-grained optimistic
// try-locks. All keys live in leaves; internal nodes hold routing keys.
// Searches take no locks; an insert locks the leaf's parent and replaces
// the leaf by a three-node subtree; a delete locks the grandparent and
// parent and splices the parent out. The sentinel layout follows Ellen et
// al.: root(inf2){ left=..., right=leaf(inf2) } with an inf1 layer below,
// which guarantees a real leaf always has an internal parent and
// grandparent and that the root is never removed.
package leaftree

import (
	"fmt"
	"math"

	flock "flock/internal/core"
	"flock/internal/structures/set"
)

const (
	inf1 = math.MaxUint64 - 1 // upper sentinel key (no real key reaches it)
	inf2 = math.MaxUint64
)

// node is either an internal router (leaf=false) or a leaf holding a
// key-value pair. All fields except the two child pointers and removed
// are constants. The child pointers are box-free Links: a store only
// installs fresh nodes or nodes still in the tree, and the node it
// replaces leaves the tree for good, so no pointer recurs in a field and
// node identity is the ABA tag (DESIGN.md S1). That is why replaceAt
// copies the leaf it splits instead of reusing it.
type node struct {
	k       uint64
	v       uint64
	leaf    bool
	left    flock.Link[node]
	right   flock.Link[node]
	removed flock.UpdateOnce[bool]
	lck     flock.Lock
}

// Tree is a concurrent external BST. Keys must be in [1, set.MaxKey].
type Tree struct {
	root   *node
	strict bool
}

// New returns an empty tree using try-locks (the paper's preferred mode).
func New(rt *flock.Runtime) *Tree {
	_ = rt
	root := &node{k: inf2}
	root.left.Init(&node{k: inf1, leaf: true})
	root.right.Init(&node{k: inf2, leaf: true})
	return &Tree{root: root}
}

// NewStrict returns a tree whose updates acquire strict locks (wait for
// the holder / help until acquired) instead of try-locks. Used by the
// Figure 4 experiment: with optimistic validation, waiting for a lock is
// usually wasted work because the validation then fails.
func NewStrict(rt *flock.Runtime) *Tree {
	t := New(rt)
	t.strict = true
	return t
}

// acquire runs f under l with the tree's lock discipline.
func (t *Tree) acquire(p *flock.Proc, l *flock.Lock, f flock.Thunk) bool {
	if t.strict {
		return l.Lock(p, f)
	}
	return l.TryLock(p, f)
}

// childOf returns the child pointer k routes to at n (k < n.k goes left).
func childOf(n *node, k uint64) *flock.Link[node] {
	if k < n.k {
		return &n.left
	}
	return &n.right
}

// siblingOf returns the other child pointer.
func siblingOf(n *node, k uint64) *flock.Link[node] {
	if k < n.k {
		return &n.right
	}
	return &n.left
}

// search descends to the leaf k routes to, returning the grandparent,
// parent and leaf. gp is nil only when the leaf hangs directly off the
// root (which can only be a sentinel leaf).
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

// Find reports the value stored under k.
func (t *Tree) Find(p *flock.Proc, k uint64) (uint64, bool) {
	p.Begin()
	defer p.End()
	_, _, leaf := t.search(p, k)
	return leafValue(leaf, k)
}

// Insert adds (k, v); false if already present. The leaf found by the
// search is replaced, under its parent's lock, by an internal node whose
// children are a copy of the old leaf and the new one (replaceAt).
func (t *Tree) Insert(p *flock.Proc, k, v uint64) bool {
	p.Begin()
	defer p.End()
	for {
		_, pp, leaf := t.search(p, k)
		if leaf.k == k {
			return false // already there
		}
		if t.replaceAt(p, pp, leaf, k, v) {
			return true
		}
	}
}

// replaceAt puts (k, v) where a search for k found leaf, under its parent
// pp's lock, after validating that pp is still in the tree and still
// routes k to leaf. A leaf holding k is replaced by a new leaf (leaf
// values are immutable, so a value update is a pointer swap); any other
// leaf is replaced by an internal node whose children are a fresh copy
// of the old leaf and the new one. The copy keeps the old leaf out of
// the tree for good: reused under the new node, a delete of k would
// splice it back into pp's child field, and a straggler replaying this
// section would find its committed pointer there again and re-insert k
// (DESIGN.md S1). It reports false, changing nothing, when the lock is
// taken or the validation fails.
func (t *Tree) replaceAt(p *flock.Proc, pp, leaf *node, k, v uint64) bool {
	return t.acquire(p, &pp.lck, func(hp *flock.Proc) bool {
		if pp.removed.Load(hp) || childOf(pp, k).Load(hp) != leaf {
			return false // validate
		}
		newLeaf := flock.Allocate(hp, func() *node {
			return &node{k: k, v: v, leaf: true}
		})
		if leaf.k == k {
			childOf(pp, k).Store(hp, newLeaf)
			return true
		}
		inner := flock.Allocate(hp, func() *node {
			in := &node{k: maxKey(k, leaf.k)}
			old := &node{k: leaf.k, v: leaf.v, leaf: true}
			if k < leaf.k {
				in.left.Init(newLeaf)
				in.right.Init(old)
			} else {
				in.left.Init(old)
				in.right.Init(newLeaf)
			}
			return in
		})
		childOf(pp, k).Store(hp, inner)
		return true
	})
}

// Delete removes k; false if absent. The parent is spliced out under the
// grandparent's and parent's locks; the leaf's sibling takes the parent's
// place.
func (t *Tree) Delete(p *flock.Proc, k uint64) bool {
	p.Begin()
	defer p.End()
	for {
		gp, pp, leaf := t.search(p, k)
		if leaf.k != k {
			return false // not found
		}
		// A real leaf's parent routes below the inf1 layer, so gp != nil.
		ok := t.acquire(p, &gp.lck, func(hp *flock.Proc) bool {
			if gp.removed.Load(hp) || childOf(gp, k).Load(hp) != pp {
				return false // validate
			}
			return t.acquire(hp, &pp.lck, func(hp2 *flock.Proc) bool {
				if childOf(pp, k).Load(hp2) != leaf {
					return false // validate (pp itself is pinned by gp's lock)
				}
				sibling := siblingOf(pp, k).Load(hp2)
				pp.removed.Store(hp2, true)
				childOf(gp, k).Store(hp2, sibling) // splice out pp and leaf
				return true
			})
		})
		if ok {
			return true
		}
	}
}

// Upsert implements set.Upserter: it stores f(old, present) under k in
// one critical section (replaceAt), which replaces a leaf holding k and
// inserts next to any other. The old value is read from the immutable
// leaf before locking, so f runs outside the thunk and the validation
// (the parent still points at that exact leaf) pins it.
func (t *Tree) Upsert(p *flock.Proc, k uint64, f func(old uint64, present bool) uint64) (uint64, bool) {
	p.Begin()
	defer p.End()
	for {
		_, pp, leaf := t.search(p, k)
		old, present := leafValue(leaf, k)
		if t.replaceAt(p, pp, leaf, k, f(old, present)) {
			return old, present
		}
	}
}

// leafValue reports the value leaf holds for k: leaf is where a search
// for k ended, so k is present iff leaf holds it.
func leafValue(leaf *node, k uint64) (uint64, bool) {
	if leaf.k == k {
		return leaf.v, true
	}
	return 0, false
}

// Locate implements set.Locator: the search half of Find and Upsert, at
// top level, where its loads log nothing. The position is the leaf k
// routes to and that leaf's parent.
func (t *Tree) Locate(p *flock.Proc, k uint64) set.Position {
	if p.InThunk() {
		panic("leaftree: Locate inside a thunk")
	}
	p.Begin()
	_, pp, leaf := t.search(p, k)
	p.End()
	return set.Position{Parent: pp, Node: leaf}
}

// FindAt implements set.Locator with two logged loads when the position
// holds: the parent still points k at the leaf, and the parent is not
// removed. The child load comes first, so a parent not removed at the
// second load was in the tree at the first, and then the leaf was k's
// leaf: a node's routing interval only widens while it is in the tree
// (a splice hands the removed parent's interval to the sibling), so k
// still routes through the parent it was located under. A position that
// fails either check is searched again, as Find does.
func (t *Tree) FindAt(p *flock.Proc, at set.Position, k uint64) (uint64, bool) {
	pp, leaf := at.Parent.(*node), at.Node.(*node)
	p.Begin()
	defer p.End()
	if childOf(pp, k).Load(p) != leaf || pp.removed.Load(p) {
		_, _, leaf = t.search(p, k)
	}
	return leafValue(leaf, k)
}

// UpsertAt implements set.Locator: replaceAt at the located position
// first, whose validation is the check Upsert makes under the parent's
// lock, and the search-and-replace loop of Upsert when it fails.
func (t *Tree) UpsertAt(p *flock.Proc, at set.Position, k, v uint64) (uint64, bool) {
	pp, leaf := at.Parent.(*node), at.Node.(*node)
	p.Begin()
	defer p.End()
	for !t.replaceAt(p, pp, leaf, k, v) {
		_, pp, leaf = t.search(p, k)
	}
	return leafValue(leaf, k)
}

// Scan implements set.Scanner: an in-order walk of the subtrees whose
// routing interval intersects [lo, hi], collecting qualifying leaves.
// Subtrees are not copy-on-write: a subtree the walk loaded through a
// node that a delete then spliced out stays live, takes the spliced
// node's wider interval, and can gain leaves the walk already passed.
// So the walk carries each position's routing interval down the path
// and reports a leaf only inside it: for every key, the walk's loads
// along that key's route are a Find descent made within the scan's
// window (interval semantics, DESIGN.md S12), and the result is
// strictly ascending. The body is a single idempotent thunk: logged
// loads only, run-local accumulation, no locks taken. The inf1/inf2
// sentinel leaves route above every clamped bound and are never
// reported.
func (t *Tree) Scan(p *flock.Proc, lo, hi uint64, limit int) []set.KV {
	lo, hi = set.ClampScanBounds(lo, hi)
	if limit == 0 {
		return nil
	}
	p.Begin()
	defer p.End()
	var out []set.KV
	// walk visits n, whose position routes the keys [lo, hi] (narrowed
	// to the scan bounds); it returns false once limit is reached.
	var walk func(n *node, lo, hi uint64) bool
	walk = func(n *node, lo, hi uint64) bool {
		if n.leaf {
			if n.k >= lo && n.k <= hi && n.k < inf1 {
				out = append(out, set.KV{Key: n.k, Value: n.v})
				if limit > 0 && len(out) >= limit {
					return false
				}
			}
			return true
		}
		// n.left covers keys < n.k, n.right covers keys >= n.k.
		if lo < n.k && !walk(n.left.Load(p), lo, min(hi, n.k-1)) {
			return false
		}
		if hi >= n.k {
			return walk(n.right.Load(p), max(lo, n.k), hi)
		}
		return true
	}
	walk(t.root, lo, hi)
	return out
}

func maxKey(a, b uint64) uint64 {
	if a > b {
		return a
	}
	return b
}

// Keys returns the sorted key snapshot (single-threaded use).
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
		walk(n.left.Load(p))
		walk(n.right.Load(p))
	}
	walk(t.root)
	return out
}

// Height returns the maximum leaf depth (single-threaded use).
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
	return walk(t.root)
}

// CheckInvariants verifies the external-BST ordering: within [lo, hi)
// bounds, internal key separates subtrees, and every leaf key respects
// the bounds (single-threaded use).
func (t *Tree) CheckInvariants(p *flock.Proc) error {
	var walk func(n *node, lo, hi uint64) error
	walk = func(n *node, lo, hi uint64) error {
		if n.leaf {
			if n.k < lo || n.k > hi {
				return fmt.Errorf("leaftree: leaf %d outside [%d,%d]", n.k, lo, hi)
			}
			return nil
		}
		if n.k < lo || n.k > hi {
			return fmt.Errorf("leaftree: router %d outside [%d,%d]", n.k, lo, hi)
		}
		if err := walk(n.left.Load(p), lo, n.k-1); err != nil {
			return err
		}
		return walk(n.right.Load(p), n.k, hi)
	}
	return walk(t.root, 0, inf2)
}
