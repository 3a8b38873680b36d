// Package abtree implements the paper's (a,b)-tree: a leaf-oriented
// B-tree whose nodes hold between A and B entries (A=4, B=16, so a merge
// of two minimal nodes always fits). Concurrency follows the optimistic
// fine-grained try-lock recipe: traversals take no locks; key arrays are
// immutable and nodes are replaced copy-on-write, while child pointers
// are mutable slots so a leaf can be swapped under a single parent lock.
//
// Structural maintenance is preemptive, as in classic B-tree latching: a
// descent that meets a full child splits it (locking grandparent, parent
// and child, in root-to-leaf order) and restarts; a delete descent that
// meets a minimal child borrows from or merges with an adjacent sibling
// first. Both rebuild the parent, so by the time a leaf is modified its
// parent is guaranteed non-full/non-minimal.
package abtree

import (
	"fmt"
	"math"
	"slices"
	"sort"

	flock "flock/internal/core"
	"flock/internal/structures/set"
)

const (
	// A and B are the occupancy bounds: non-root nodes keep their size
	// (children for internals, keys for leaves) in [A, B]. 2*A <= B is
	// required so merges fit.
	A = 4
	B = 16
)

// node is an immutable-shape tree node: keys (and vals for leaves) never
// change after construction; only the children slots of internals are
// mutated in place. An internal with m keys has m+1 children; children[i]
// covers keys in [keys[i-1], keys[i]).
type node struct {
	leaf     bool
	keys     []uint64
	vals     []uint64               // leaves only
	children []flock.Mutable[*node] // internals only
	removed  flock.UpdateOnce[bool]
	lck      flock.Lock
}

func (n *node) size() int {
	if n.leaf {
		return len(n.keys)
	}
	return len(n.children)
}

// Tree is a concurrent (a,b)-tree set.
type Tree struct {
	entry  *node // permanent pseudo-root: entry.children[0] is the real root
	strict bool
}

// New returns an empty tree (the root starts as an empty leaf).
func New(rt *flock.Runtime) *Tree {
	_ = rt
	entry := &node{children: make([]flock.Mutable[*node], 1)}
	entry.children[0].Init(&node{leaf: true})
	return &Tree{entry: entry}
}

// NewStrict returns a tree whose updates take strict locks instead of
// try-locks; in blocking mode this is the stand-in for Srivastava's
// blocking (a,b)-tree in Figure 6 (DESIGN.md S5).
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

// route returns the child index k descends to in internal node n.
func route(n *node, k uint64) int {
	return sort.Search(len(n.keys), func(i int) bool { return k < n.keys[i] })
}

func leafFind(n *node, k uint64) (int, bool) {
	i := sort.Search(len(n.keys), func(i int) bool { return n.keys[i] >= k })
	return i, i < len(n.keys) && n.keys[i] == k
}

// Find reports the value stored under k.
func (t *Tree) Find(p *flock.Proc, k uint64) (uint64, bool) {
	p.Begin()
	defer p.End()
	cur := t.entry.children[0].Load(p)
	for !cur.leaf {
		cur = cur.children[route(cur, k)].Load(p)
	}
	if i, ok := leafFind(cur, k); ok {
		return cur.vals[i], true
	}
	return 0, false
}

// Insert adds (k, v); false if already present.
func (t *Tree) Insert(p *flock.Proc, k, v uint64) bool {
	p.Begin()
	defer p.End()
	for {
		var gp *node
		gpIdx := 0
		par, parIdx := t.entry, 0
		cur := par.children[0].Load(p)
		restart := false
		for {
			if cur.size() == B {
				t.splitChild(p, gp, gpIdx, par, parIdx, cur)
				restart = true
				break
			}
			if cur.leaf {
				break
			}
			i := route(cur, k)
			gp, gpIdx = par, parIdx
			par, parIdx = cur, i
			cur = cur.children[i].Load(p)
		}
		if restart {
			continue
		}
		pos, found := leafFind(cur, k)
		if found {
			return false
		}
		leaf := cur
		ok := t.acquire(p, &par.lck, func(hp *flock.Proc) bool {
			if par.removed.Load(hp) || par.children[parIdx].Load(hp) != leaf {
				return false // validate: leaf arrays are immutable, pointer pins content
			}
			nl := flock.Allocate(hp, func() *node {
				nk := make([]uint64, len(leaf.keys)+1)
				nv := make([]uint64, len(leaf.vals)+1)
				copy(nk, leaf.keys[:pos])
				copy(nv, leaf.vals[:pos])
				nk[pos], nv[pos] = k, v
				copy(nk[pos+1:], leaf.keys[pos:])
				copy(nv[pos+1:], leaf.vals[pos:])
				return &node{leaf: true, keys: nk, vals: nv}
			})
			par.children[parIdx].Store(hp, nl)
			return true
		})
		if ok {
			return true
		}
	}
}

// Delete removes k; false if absent.
func (t *Tree) Delete(p *flock.Proc, k uint64) bool {
	p.Begin()
	defer p.End()
	for {
		par, parIdx := t.entry, 0
		cur := par.children[0].Load(p)
		restart := false
		for !cur.leaf {
			i := route(cur, k)
			child := cur.children[i].Load(p)
			if child.size() == A {
				t.rebalanceChild(p, par, parIdx, cur, i, child)
				restart = true
				break
			}
			par, parIdx = cur, i
			cur = child
		}
		if restart {
			continue
		}
		pos, found := leafFind(cur, k)
		if !found {
			return false
		}
		leaf := cur
		ok := t.acquire(p, &par.lck, func(hp *flock.Proc) bool {
			if par.removed.Load(hp) || par.children[parIdx].Load(hp) != leaf {
				return false
			}
			nl := flock.Allocate(hp, func() *node {
				nk := make([]uint64, 0, len(leaf.keys)-1)
				nv := make([]uint64, 0, len(leaf.vals)-1)
				nk = append(append(nk, leaf.keys[:pos]...), leaf.keys[pos+1:]...)
				nv = append(append(nv, leaf.vals[:pos]...), leaf.vals[pos+1:]...)
				return &node{leaf: true, keys: nk, vals: nv}
			})
			par.children[parIdx].Store(hp, nl)
			return true
		})
		if ok {
			return true
		}
	}
}

// Scan implements set.Scanner: an in-order walk of the children whose
// covering interval ([keys[i-1], keys[i])) intersects [lo, hi],
// appending the qualifying slice of each intersecting leaf to dst. Key
// arrays are immutable and nodes are replaced copy-on-write, so each
// loaded node is a point snapshot of its interval (interval semantics,
// as in leaftree). The body is a single idempotent thunk: logged loads,
// run-local accumulation, no locks taken.
func (t *Tree) Scan(p *flock.Proc, lo, hi uint64, limit int, dst []set.KV) []set.KV {
	lo, hi = set.ClampScanBounds(lo, hi)
	if limit == 0 {
		return dst
	}
	p.Begin()
	defer p.End()
	w := scanWalk{p: p, lo: lo, hi: hi, out: dst, end: len(dst) + limit}
	w.walk(t.entry.children[0].Load(p))
	return w.out
}

// scanWalk is one Scan's state. It lives on Scan's stack, so the walk
// allocates nothing but the growth of out.
type scanWalk struct {
	p      *flock.Proc
	lo, hi uint64
	out    []set.KV
	// end is the length of out at which the walk stops. An unbounded
	// scan (limit < 0) sets it below the starting length, where out
	// never returns once it has grown.
	end int
}

// walk visits n; it returns false once the limit is reached.
func (w *scanWalk) walk(n *node) bool {
	if n.leaf {
		i, _ := slices.BinarySearch(n.keys, w.lo)
		for ; i < len(n.keys) && n.keys[i] <= w.hi; i++ {
			w.out = append(w.out, set.KV{Key: n.keys[i], Value: n.vals[i]})
			if len(w.out) == w.end {
				return false
			}
		}
		return true
	}
	clo := uint64(0)
	for i := range n.children {
		chi := uint64(math.MaxUint64)
		if i < len(n.keys) {
			chi = n.keys[i] // child i covers [clo, chi)
		}
		// Intersects iff clo <= hi and lo < chi (chi is exclusive; the
		// last child's chi of MaxUint64 always exceeds the clamped lo).
		if clo <= w.hi && w.lo < chi && !w.walk(n.children[i].Load(w.p)) {
			return false
		}
		clo = chi
	}
	return true
}

// splitChild splits full node cur (a child of par at parIdx) into two
// halves, pushing the median separator into a rebuilt par. When par is
// the entry pseudo-root, cur is the root and a new root is created
// instead. Best-effort: any validation failure just causes a restart.
func (t *Tree) splitChild(p *flock.Proc, gp *node, gpIdx int, par *node, parIdx int, cur *node) {
	if par == t.entry {
		t.acquire(p, &par.lck, func(hp *flock.Proc) bool {
			if par.children[0].Load(hp) != cur {
				return false
			}
			return t.acquire(hp, &cur.lck, func(hp2 *flock.Proc) bool {
				c1, c2, sep := splitHalves(hp2, cur)
				newRoot := flock.Allocate(hp2, func() *node {
					r := &node{keys: []uint64{sep}, children: make([]flock.Mutable[*node], 2)}
					r.children[0].Init(c1)
					r.children[1].Init(c2)
					return r
				})
				cur.removed.Store(hp2, true)
				par.children[0].Store(hp2, newRoot)
				return true
			})
		})
		return
	}
	t.acquire(p, &gp.lck, func(hp *flock.Proc) bool {
		if gp.removed.Load(hp) || gp.children[gpIdx].Load(hp) != par {
			return false
		}
		return t.acquire(hp, &par.lck, func(hp2 *flock.Proc) bool {
			if len(par.children) == B { // par grew full meanwhile: split it first
				return false
			}
			if par.children[parIdx].Load(hp2) != cur {
				return false
			}
			return t.acquire(hp2, &cur.lck, func(hp3 *flock.Proc) bool {
				c1, c2, sep := splitHalves(hp3, cur)
				newPar := rebuildReplace2(hp3, par, parIdx, sep, c1, c2)
				par.removed.Store(hp3, true)
				cur.removed.Store(hp3, true)
				gp.children[gpIdx].Store(hp3, newPar)
				return true
			})
		})
	})
}

// splitHalves builds the two halves of full node cur and returns them
// with the separator key. cur's lock must be held (its child slots are
// loaded here).
func splitHalves(hp *flock.Proc, cur *node) (c1, c2 *node, sep uint64) {
	if cur.leaf {
		mid := len(cur.keys) / 2
		sep = cur.keys[mid]
		c1 = flock.Allocate(hp, func() *node {
			return &node{leaf: true, keys: cur.keys[:mid:mid], vals: cur.vals[:mid:mid]}
		})
		c2 = flock.Allocate(hp, func() *node {
			return &node{leaf: true, keys: cur.keys[mid:], vals: cur.vals[mid:]}
		})
		return c1, c2, sep
	}
	mid := len(cur.children) / 2
	sep = cur.keys[mid-1]
	// Child slot values must be read under cur's lock with committed
	// loads so all helpers build identical halves.
	kids := make([]*node, len(cur.children))
	for i := range cur.children {
		kids[i] = cur.children[i].Load(hp)
	}
	c1 = flock.Allocate(hp, func() *node {
		n := &node{keys: cur.keys[: mid-1 : mid-1], children: make([]flock.Mutable[*node], mid)}
		for i := 0; i < mid; i++ {
			n.children[i].Init(kids[i])
		}
		return n
	})
	c2 = flock.Allocate(hp, func() *node {
		n := &node{keys: cur.keys[mid:], children: make([]flock.Mutable[*node], len(kids)-mid)}
		for i := mid; i < len(kids); i++ {
			n.children[i-mid].Init(kids[i])
		}
		return n
	})
	return c1, c2, sep
}

// rebuildReplace2 returns a copy of internal node par with the child at
// parIdx replaced by c1, c2 and sep inserted between them. par's lock
// must be held.
func rebuildReplace2(hp *flock.Proc, par *node, parIdx int, sep uint64, c1, c2 *node) *node {
	kids := make([]*node, len(par.children))
	for i := range par.children {
		kids[i] = par.children[i].Load(hp)
	}
	return flock.Allocate(hp, func() *node {
		nk := make([]uint64, 0, len(par.keys)+1)
		nk = append(append(append(nk, par.keys[:parIdx]...), sep), par.keys[parIdx:]...)
		n := &node{keys: nk, children: make([]flock.Mutable[*node], len(kids)+1)}
		for i := 0; i < parIdx; i++ {
			n.children[i].Init(kids[i])
		}
		n.children[parIdx].Init(c1)
		n.children[parIdx+1].Init(c2)
		for i := parIdx + 1; i < len(kids); i++ {
			n.children[i+1].Init(kids[i])
		}
		return n
	})
}

// rebalanceChild grows minimal child (at index i of cur) by borrowing
// from or merging with an adjacent sibling, rebuilding cur; par holds
// cur's slot. Best-effort with restart on failure.
func (t *Tree) rebalanceChild(p *flock.Proc, par *node, parIdx int, cur *node, i int, child *node) {
	j := i + 1
	if i > 0 {
		j = i - 1
	}
	lo, hi := i, j
	if lo > hi {
		lo, hi = hi, lo
	}
	t.acquire(p, &par.lck, func(hp *flock.Proc) bool {
		if par.removed.Load(hp) || par.children[parIdx].Load(hp) != cur {
			return false
		}
		return t.acquire(hp, &cur.lck, func(hp2 *flock.Proc) bool {
			if cur.children[i].Load(hp2) != child {
				return false
			}
			sib := cur.children[j].Load(hp2)
			loN, hiN := child, sib
			if lo == j {
				loN, hiN = sib, child
			}
			if child.leaf {
				// Leaves are immutable: no child locks needed.
				t.rebalanceLeaves(hp2, par, parIdx, cur, lo, loN, hiN)
				return true
			}
			// Internal children: lock both (in index order) to freeze
			// their slots while copying.
			return t.acquire(hp2, &loN.lck, func(hp3 *flock.Proc) bool {
				return t.acquire(hp3, &hiN.lck, func(hp4 *flock.Proc) bool {
					t.rebalanceInternals(hp4, par, parIdx, cur, lo, loN, hiN)
					return true
				})
			})
		})
	})
}

// rebalanceLeaves merges or borrows between adjacent leaves loN (index
// lo) and hiN (index lo+1) of cur. All locks (par, cur) held.
func (t *Tree) rebalanceLeaves(hp *flock.Proc, par *node, parIdx int, cur *node, lo int, loN, hiN *node) {
	total := len(loN.keys) + len(hiN.keys)
	if total <= B {
		// Merge the two leaves; drop separator keys[lo].
		merged := flock.Allocate(hp, func() *node {
			nk := make([]uint64, 0, total)
			nv := make([]uint64, 0, total)
			nk = append(append(nk, loN.keys...), hiN.keys...)
			nv = append(append(nv, loN.vals...), hiN.vals...)
			return &node{leaf: true, keys: nk, vals: nv}
		})
		t.replaceMerged(hp, par, parIdx, cur, lo, merged)
		return
	}
	// Borrow: rebalance the two leaves evenly and update the separator.
	mid := total / 2
	newLo := flock.Allocate(hp, func() *node {
		nk := make([]uint64, 0, mid)
		nv := make([]uint64, 0, mid)
		nk = append(append(nk, loN.keys...), hiN.keys...)[:mid]
		nv = append(append(nv, loN.vals...), hiN.vals...)[:mid]
		return &node{leaf: true, keys: nk, vals: nv}
	})
	newHi := flock.Allocate(hp, func() *node {
		nk := append(append([]uint64{}, loN.keys...), hiN.keys...)[mid:]
		nv := append(append([]uint64{}, loN.vals...), hiN.vals...)[mid:]
		return &node{leaf: true, keys: nk, vals: nv}
	})
	t.replaceBorrowed(hp, par, parIdx, cur, lo, newLo, newHi, newHi.keys[0])
}

// rebalanceInternals merges or rotates between adjacent internal children
// loN (index lo) and hiN (lo+1) of cur. All locks held (par, cur, loN, hiN).
func (t *Tree) rebalanceInternals(hp *flock.Proc, par *node, parIdx int, cur *node, lo int, loN, hiN *node) {
	sep := cur.keys[lo]
	loKids := loadKids(hp, loN)
	hiKids := loadKids(hp, hiN)
	total := len(loKids) + len(hiKids)
	if total <= B {
		merged := flock.Allocate(hp, func() *node {
			nk := make([]uint64, 0, len(loN.keys)+1+len(hiN.keys))
			nk = append(append(append(nk, loN.keys...), sep), hiN.keys...)
			n := &node{keys: nk, children: make([]flock.Mutable[*node], total)}
			for i, c := range append(append([]*node{}, loKids...), hiKids...) {
				n.children[i].Init(c)
			}
			return n
		})
		t.replaceMerged(hp, par, parIdx, cur, lo, merged)
		loN.removed.Store(hp, true)
		hiN.removed.Store(hp, true)
		return
	}
	// Rotate: move children across to even out, threading separators.
	allKeys := make([]uint64, 0, len(loN.keys)+1+len(hiN.keys))
	allKeys = append(append(append(allKeys, loN.keys...), sep), hiN.keys...)
	allKids := append(append([]*node{}, loKids...), hiKids...)
	mid := total / 2
	newSep := allKeys[mid-1]
	newLo := flock.Allocate(hp, func() *node {
		n := &node{keys: allKeys[: mid-1 : mid-1], children: make([]flock.Mutable[*node], mid)}
		for i := 0; i < mid; i++ {
			n.children[i].Init(allKids[i])
		}
		return n
	})
	newHi := flock.Allocate(hp, func() *node {
		n := &node{keys: allKeys[mid:], children: make([]flock.Mutable[*node], total-mid)}
		for i := mid; i < total; i++ {
			n.children[i-mid].Init(allKids[i])
		}
		return n
	})
	t.replaceBorrowed(hp, par, parIdx, cur, lo, newLo, newHi, newSep)
	loN.removed.Store(hp, true)
	hiN.removed.Store(hp, true)
}

func loadKids(hp *flock.Proc, n *node) []*node {
	kids := make([]*node, len(n.children))
	for i := range n.children {
		kids[i] = n.children[i].Load(hp)
	}
	return kids
}

// replaceMerged rebuilds cur with children lo and lo+1 replaced by merged
// and separator keys[lo] dropped, installing it in par (or collapsing the
// root when cur shrinks to a single child).
func (t *Tree) replaceMerged(hp *flock.Proc, par *node, parIdx int, cur *node, lo int, merged *node) {
	if par == t.entry && len(cur.children) == 2 {
		// Root collapse: the merged node becomes the root.
		cur.removed.Store(hp, true)
		par.children[0].Store(hp, merged)
		return
	}
	kids := loadKids(hp, cur)
	newCur := flock.Allocate(hp, func() *node {
		nk := make([]uint64, 0, len(cur.keys)-1)
		nk = append(append(nk, cur.keys[:lo]...), cur.keys[lo+1:]...)
		n := &node{keys: nk, children: make([]flock.Mutable[*node], len(kids)-1)}
		idx := 0
		for i, c := range kids {
			switch i {
			case lo:
				n.children[idx].Init(merged)
				idx++
			case lo + 1:
				// skip: replaced by merged
			default:
				n.children[idx].Init(c)
				idx++
			}
		}
		return n
	})
	cur.removed.Store(hp, true)
	par.children[parIdx].Store(hp, newCur)
}

// replaceBorrowed rebuilds cur with children lo, lo+1 replaced by newLo,
// newHi and separator keys[lo] replaced by newSep.
func (t *Tree) replaceBorrowed(hp *flock.Proc, par *node, parIdx int, cur *node, lo int, newLo, newHi *node, newSep uint64) {
	kids := loadKids(hp, cur)
	newCur := flock.Allocate(hp, func() *node {
		nk := append([]uint64{}, cur.keys...)
		nk[lo] = newSep
		n := &node{keys: nk, children: make([]flock.Mutable[*node], len(kids))}
		for i, c := range kids {
			n.children[i].Init(c)
		}
		n.children[lo].Init(newLo)
		n.children[lo+1].Init(newHi)
		return n
	})
	cur.removed.Store(hp, true)
	par.children[parIdx].Store(hp, newCur)
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
		for i := range n.children {
			walk(n.children[i].Load(p))
		}
	}
	walk(t.entry.children[0].Load(p))
	return out
}

// Height returns the leaf depth (single-threaded use; the tree is always
// of uniform depth).
func (t *Tree) Height(p *flock.Proc) int {
	h := 0
	for n := t.entry.children[0].Load(p); !n.leaf; n = n.children[0].Load(p) {
		h++
	}
	return h
}

// CheckInvariants verifies: key bounds per subtree, node occupancy in
// [A, B] for non-root nodes, uniform leaf depth, sorted keys, and
// children count = keys count + 1 (single-threaded use).
func (t *Tree) CheckInvariants(p *flock.Proc) error {
	root := t.entry.children[0].Load(p)
	leafDepth := -1
	var walk func(n *node, lo, hi uint64, depth int, isRoot bool) error
	walk = func(n *node, lo, hi uint64, depth int, isRoot bool) error {
		for i := 1; i < len(n.keys); i++ {
			if n.keys[i-1] >= n.keys[i] {
				return fmt.Errorf("abtree: unsorted keys at depth %d", depth)
			}
		}
		for _, k := range n.keys {
			if k < lo || k >= hi {
				return fmt.Errorf("abtree: key %d outside [%d,%d)", k, lo, hi)
			}
		}
		if n.leaf {
			if !isRoot && (len(n.keys) < A || len(n.keys) > B) {
				return fmt.Errorf("abtree: leaf occupancy %d outside [%d,%d]", len(n.keys), A, B)
			}
			if leafDepth == -1 {
				leafDepth = depth
			} else if leafDepth != depth {
				return fmt.Errorf("abtree: leaf depth %d != %d", depth, leafDepth)
			}
			return nil
		}
		if len(n.children) != len(n.keys)+1 {
			return fmt.Errorf("abtree: %d children for %d keys", len(n.children), len(n.keys))
		}
		minC := A
		if isRoot {
			minC = 2
		}
		if len(n.children) < minC || len(n.children) > B {
			return fmt.Errorf("abtree: internal occupancy %d outside [%d,%d]", len(n.children), minC, B)
		}
		clo := lo
		for i := range n.children {
			chi := hi
			if i < len(n.keys) {
				chi = n.keys[i]
			}
			if err := walk(n.children[i].Load(p), clo, chi, depth+1, false); err != nil {
				return err
			}
			clo = chi
		}
		return nil
	}
	return walk(root, 0, ^uint64(0), 0, true)
}
