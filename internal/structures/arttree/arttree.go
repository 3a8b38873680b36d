// Package arttree implements a concurrent Adaptive Radix Tree (ART, Leis
// et al. [37]) over 8-byte big-endian keys, protected by fine-grained
// optimistic try-locks — per the paper, the first lock-free ART when run
// in lock-free mode.
//
// Design notes for concurrency:
//
//   - Node4/Node16 store each (key byte, child) pair in a single
//     Mutable slot, so lock-free readers never see a torn pair. Node48
//     uses an indirection array where index 0 means empty (zero-value
//     friendly) and the child is published before the index. Node256
//     indexes children directly.
//   - Node4/Node16 additionally maintain a packed 16-byte key image +
//     occupancy mask (one Mutable box, so it is updated atomically and
//     idempotently under helping) that readers probe with one SWAR
//     match over its two words (internal/simd) to find candidate lanes;
//     the slot load that confirms a candidate remains the
//     linearization point. The publication protocol (packed byte
//     before slot on insert, slot before packed byte on remove) makes
//     a packed miss authoritative for absence: see DESIGN.md S15.
//   - Prefixes and leaf contents are immutable: any change of prefix
//     (path compression on delete, prefix split on insert) or node kind
//     (grow/shrink) builds a replacement node under the locks of the
//     parent and the node (and the surviving child, when its slots must
//     be copied), marks the old node removed, and swings the parent slot.
//   - Validation inside critical sections relies on the invariant that a
//     non-removed node is reachable by the same byte path for its whole
//     lifetime: replacements preserve path byte strings.
package arttree

import (
	"fmt"
	"math/bits"

	flock "flock/internal/core"
	"flock/internal/simd"
	"flock/internal/structures/artnode"
)

// packed16 is the searchable key image of a Node4/Node16: lane i
// (laid out by simd.With) holds slots[i]'s key byte, and bit i of occ
// says the lane is live. It lives in a single Mutable box so updates
// go through the logged CAS machinery — helpers replaying a thunk
// cannot tear it or clobber it with stale halves — and a reader's one
// Load yields a mutually consistent (keys, occ) snapshot. Lanes with a
// clear occ bit may hold stale bytes; masking keeps them out.
type packed16 struct {
	lo, hi uint64 // key bytes, lane i at byte i of the little-endian image
	occ    uint16 // lane-occupancy bitmask
}

// with returns pk with lane i holding key byte b and marked live.
func (pk packed16) with(i int, b byte) packed16 {
	pk.lo, pk.hi = simd.With(pk.lo, pk.hi, i, b)
	pk.occ |= 1 << uint(i)
	return pk
}

// without returns pk with lane i retracted (the stale byte stays; the
// cleared occ bit is what excludes it from searches).
func (pk packed16) without(i int) packed16 {
	pk.occ &^= 1 << uint(i)
	return pk
}

// slotPair is the atomic (key byte, child) unit for Node4/Node16.
type slotPair struct {
	b     byte
	child *artNode
}

// artNode is a leaf or an inner node; which arrays are used depends on
// kind. prefix, k and v are constants.
type artNode struct {
	kind   uint8
	k, v   uint64 // leaves
	prefix []byte // inner: compressed path bytes

	slots    []flock.Mutable[slotPair] // N4, N16
	pk       flock.Mutable[packed16]   // N4, N16: packed key image over slots
	idx      []flock.Mutable[uint8]    // N48: byte -> child index+1 (0 = empty)
	children []flock.Mutable[*artNode] // N48 (48), N256 (256)

	count   flock.Mutable[int] // inner: number of children
	removed flock.UpdateOnce[bool]
	lck     flock.Lock
}

func (n *artNode) isLeaf() bool { return n.kind == artnode.Leaf }

// Tree is a concurrent ART set. Any uint64 key except 0 is allowed
// (0 is permitted too, in fact; the set package's [1, set.MaxKey] bound
// is honored by callers for uniformity).
type Tree struct {
	root    flock.Mutable[*artNode]
	rootLck flock.Lock
}

// New returns an empty tree.
func New(rt *flock.Runtime) *Tree {
	_ = rt
	return &Tree{}
}

func newLeaf(k, v uint64) *artNode { return &artNode{kind: artnode.Leaf, k: k, v: v} }

func newInner(kind uint8, prefix []byte) *artNode {
	n := &artNode{kind: kind, prefix: prefix}
	switch kind {
	case artnode.N4, artnode.N16:
		n.slots = make([]flock.Mutable[slotPair], artnode.Cap(kind))
	case artnode.N48:
		n.idx = make([]flock.Mutable[uint8], 256)
		n.children = make([]flock.Mutable[*artNode], 48)
	case artnode.N256:
		n.children = make([]flock.Mutable[*artNode], 256)
	}
	return n
}

// getChild returns the child for byte b (nil if absent). Works both
// outside locks (direct loads) and inside thunks (committed loads).
func (n *artNode) getChild(p *flock.Proc, b byte) *artNode {
	switch n.kind {
	case artnode.N4, artnode.N16:
		// One packed load + one SWAR match yields the candidate
		// lanes; each candidate is confirmed by its authoritative slot
		// load (stale packed lanes fail the confirm). A packed miss is
		// authoritative for absence: a live slot's lane is always in
		// the mask (publication protocol, DESIGN.md S15).
		pk := n.pk.Load(p)
		for m := simd.Match(pk.lo, pk.hi, b) & pk.occ; m != 0; m &= m - 1 {
			sv := n.slots[bits.TrailingZeros16(m)].Load(p)
			if sv.child != nil && sv.b == b {
				return sv.child
			}
		}
		return nil
	case artnode.N48:
		i := n.idx[b].Load(p)
		if i == 0 {
			return nil
		}
		return n.children[i-1].Load(p)
	default:
		return n.children[b].Load(p)
	}
}

// setChild inserts a new (b, c) pair; the caller holds n's lock and has
// verified b is absent and n is not full.
func (n *artNode) setChild(hp *flock.Proc, b byte, c *artNode) {
	switch n.kind {
	case artnode.N4, artnode.N16:
		pk := n.pk.Load(hp)
		free := ^pk.occ & uint16(1<<len(n.slots)-1)
		if free == 0 {
			panic("arttree: setChild on full " + artnode.Name(n.kind))
		}
		i := bits.TrailingZeros16(free)
		n.pk.Store(hp, pk.with(i, b))                  // publish the packed byte first …
		n.slots[i].Store(hp, slotPair{b: b, child: c}) // … then the authoritative slot
	case artnode.N48:
		for i := range n.children {
			if n.children[i].Load(hp) == nil {
				n.children[i].Store(hp, c)     // publish child first
				n.idx[b].Store(hp, uint8(i)+1) // then the index
				return
			}
		}
		panic("arttree: setChild on full " + artnode.Name(n.kind))
	default:
		n.children[b].Store(hp, c)
	}
}

// replaceChild swings the existing slot for byte b to c. Caller holds
// n's lock; b must be present.
func (n *artNode) replaceChild(hp *flock.Proc, b byte, c *artNode) {
	switch n.kind {
	case artnode.N4, artnode.N16:
		// Slot-only update: the key byte is unchanged, so the packed
		// image needs no maintenance.
		pk := n.pk.Load(hp)
		for m := simd.Match(pk.lo, pk.hi, b) & pk.occ; m != 0; m &= m - 1 {
			i := bits.TrailingZeros16(m)
			sv := n.slots[i].Load(hp)
			if sv.child != nil && sv.b == b {
				n.slots[i].Store(hp, slotPair{b: b, child: c})
				return
			}
		}
		panic("arttree: replaceChild missing byte in " + artnode.Name(n.kind))
	case artnode.N48:
		i := n.idx[b].Load(hp)
		n.children[i-1].Store(hp, c)
	default:
		n.children[b].Store(hp, c)
	}
}

// removeChild clears the slot for byte b. Caller holds n's lock.
func (n *artNode) removeChild(hp *flock.Proc, b byte) {
	switch n.kind {
	case artnode.N4, artnode.N16:
		pk := n.pk.Load(hp)
		for m := simd.Match(pk.lo, pk.hi, b) & pk.occ; m != 0; m &= m - 1 {
			i := bits.TrailingZeros16(m)
			sv := n.slots[i].Load(hp)
			if sv.child != nil && sv.b == b {
				n.slots[i].Store(hp, slotPair{}) // clear the slot first …
				n.pk.Store(hp, pk.without(i))    // … then retract the packed lane
				return
			}
		}
	case artnode.N48:
		i := n.idx[b].Load(hp)
		if i != 0 {
			n.idx[b].Store(hp, 0) // unpublish the index first
			n.children[i-1].Store(hp, nil)
		}
	default:
		n.children[b].Store(hp, nil)
	}
}

// pair is a collected (byte, child) entry.
type pair = artnode.Pair[*artNode]

// collectChildren snapshots all present children in byte order. Caller
// holds n's lock; iteration counts are fixed so replays stay aligned.
func (n *artNode) collectChildren(hp *flock.Proc) []pair {
	var out []pair
	switch n.kind {
	case artnode.N4, artnode.N16:
		for i := range n.slots {
			sv := n.slots[i].Load(hp)
			if sv.child != nil {
				out = append(out, pair{B: sv.b, C: sv.child})
			}
		}
		artnode.SortByByte(out) // slot order is insertion order
	case artnode.N48:
		for b := 0; b < 256; b++ {
			i := n.idx[b].Load(hp)
			if i != 0 {
				if c := n.children[i-1].Load(hp); c != nil {
					out = append(out, pair{B: byte(b), C: c})
				}
			}
		}
	default:
		for b := 0; b < 256; b++ {
			if c := n.children[b].Load(hp); c != nil {
				out = append(out, pair{B: byte(b), C: c})
			}
		}
	}
	return out
}

// buildInner constructs a fresh inner node of minimal kind holding pairs.
func buildInner(hp *flock.Proc, prefix []byte, pairs []pair) *artNode {
	kind := artnode.KindFor(len(pairs))
	return flock.Allocate(hp, func() *artNode {
		n := newInner(kind, prefix)
		switch kind {
		case artnode.N4, artnode.N16:
			var pk packed16
			for i, pr := range pairs {
				n.slots[i].Init(slotPair{b: pr.B, child: pr.C})
				pk = pk.with(i, pr.B)
			}
			n.pk.Init(pk)
		case artnode.N48:
			for i, pr := range pairs {
				n.children[i].Init(pr.C)
				n.idx[pr.B].Init(uint8(i) + 1)
			}
		default:
			for _, pr := range pairs {
				n.children[pr.B].Init(pr.C)
			}
		}
		n.count.Init(len(pairs))
		return n
	})
}

// search outcome statuses.
const (
	stLeaf     = iota // cur is a leaf (key may or may not match)
	stNoChild         // branch byte absent in cur (an inner node)
	stEmpty           // tree is empty
	stMismatch        // cur's prefix diverges from the key
)

// path captures the traversal state needed by updates.
type path struct {
	gpar  *artNode // parent of par (nil: par hangs off the root slot)
	gparB byte     // branch byte in gpar leading to par
	par   *artNode // parent of cur (nil: cur hangs off the root slot)
	parB  byte     // branch byte in par leading to cur
	cur   *artNode
	depth int // bytes consumed before cur's prefix
	st    int
}

func (t *Tree) search(p *flock.Proc, kb *[8]byte) path {
	var pa path
	pa.cur = t.root.Load(p)
	if pa.cur == nil {
		pa.st = stEmpty
		return pa
	}
	depth := 0
	for {
		cur := pa.cur
		if cur.isLeaf() {
			pa.st = stLeaf
			pa.depth = depth
			return pa
		}
		if simd.Mismatch(cur.prefix, kb[depth:]) != len(cur.prefix) {
			pa.st = stMismatch
			pa.depth = depth
			return pa
		}
		depth += len(cur.prefix)
		b := kb[depth]
		next := cur.getChild(p, b)
		if next == nil {
			pa.st = stNoChild
			pa.depth = depth
			// Reuse parB to carry the missing branch byte's owner: cur.
			pa.gpar, pa.gparB = pa.par, pa.parB
			pa.par, pa.parB = cur, b
			pa.cur = nil
			return pa
		}
		pa.gpar, pa.gparB = pa.par, pa.parB
		pa.par, pa.parB = cur, b
		pa.cur = next
		depth++
	}
}

// Find reports the value stored under k.
func (t *Tree) Find(p *flock.Proc, k uint64) (uint64, bool) {
	p.Begin()
	defer p.End()
	kb := artnode.KeyBytes(k)
	pa := t.search(p, &kb)
	if pa.st == stLeaf && pa.cur.k == k {
		return pa.cur.v, true
	}
	return 0, false
}

// lockSlotOwner runs f under the lock guarding the slot that holds node
// `n` (its parent's lock, or the tree's root lock), after validating the
// linkage. f runs with the slot still pointing at n and the owner alive.
func (t *Tree) lockSlotOwner(p *flock.Proc, par *artNode, parB byte, n *artNode, f func(hp *flock.Proc, store func(hp2 *flock.Proc, repl *artNode)) bool) bool {
	if par == nil {
		return t.rootLck.TryLock(p, func(hp *flock.Proc) bool {
			if t.root.Load(hp) != n {
				return false
			}
			return f(hp, func(hp2 *flock.Proc, repl *artNode) { t.root.Store(hp2, repl) })
		})
	}
	return par.lck.TryLock(p, func(hp *flock.Proc) bool {
		if par.removed.Load(hp) || par.getChild(hp, parB) != n {
			return false
		}
		return f(hp, func(hp2 *flock.Proc, repl *artNode) { par.replaceChild(hp2, parB, repl) })
	})
}

// Insert adds (k, v); false if already present.
func (t *Tree) Insert(p *flock.Proc, k, v uint64) bool {
	p.Begin()
	defer p.End()
	kb := artnode.KeyBytes(k)
	for {
		pa := t.search(p, &kb)
		switch pa.st {
		case stEmpty:
			if t.rootLck.TryLock(p, func(hp *flock.Proc) bool {
				if t.root.Load(hp) != nil {
					return false
				}
				t.root.Store(hp, flock.Allocate(hp, func() *artNode { return newLeaf(k, v) }))
				return true
			}) {
				return true
			}

		case stLeaf:
			leaf := pa.cur
			if leaf.k == k {
				return false // already present
			}
			// Split: replace the leaf with a Node4 over the common prefix.
			depth := pa.depth
			if t.lockSlotOwner(p, pa.par, pa.parB, leaf, func(hp *flock.Proc, store func(*flock.Proc, *artNode)) bool {
				okb := artnode.KeyBytes(leaf.k)
				cp := simd.Mismatch(okb[depth:], kb[depth:])
				nl := flock.Allocate(hp, func() *artNode { return newLeaf(k, v) })
				n4 := buildInner(hp, kb[depth:depth+cp],
					artnode.SortedPairs(pair{B: okb[depth+cp], C: leaf}, pair{B: kb[depth+cp], C: nl}))
				store(hp, n4)
				return true
			}) {
				return true
			}

		case stNoChild:
			n, b := pa.par, pa.parB
			if t.lockSlotOwner(p, pa.gpar, pa.gparB, n, func(hp *flock.Proc, store func(*flock.Proc, *artNode)) bool {
				return n.lck.TryLock(hp, func(hp2 *flock.Proc) bool {
					if n.getChild(hp2, b) != nil {
						return false // appeared meanwhile; retry
					}
					cnt := n.count.Load(hp2)
					nl := flock.Allocate(hp2, func() *artNode { return newLeaf(k, v) })
					if cnt < artnode.Cap(n.kind) {
						n.setChild(hp2, b, nl)
						n.count.Store(hp2, cnt+1)
						return true
					}
					// Grow to the next kind. The count said full; assert
					// the occupancy agrees before rebuilding wider.
					pairs := n.collectChildren(hp2)
					if len(pairs) != artnode.Cap(n.kind) {
						panic(fmt.Sprintf("arttree: growing %s with %d/%d children",
							artnode.Name(n.kind), len(pairs), artnode.Cap(n.kind)))
					}
					pairs = append(pairs, pair{B: b, C: nl})
					grown := buildInner(hp2, n.prefix, pairs)
					n.removed.Store(hp2, true)
					store(hp2, grown)
					return true
				})
			}) {
				return true
			}

		case stMismatch:
			n := pa.cur
			depth := pa.depth
			if t.lockSlotOwner(p, pa.par, pa.parB, n, func(hp *flock.Proc, store func(*flock.Proc, *artNode)) bool {
				return n.lck.TryLock(hp, func(hp2 *flock.Proc) bool {
					cp := simd.Mismatch(n.prefix, kb[depth:])
					// Clone n with the tail of its prefix.
					pairs := n.collectChildren(hp2)
					clone := buildInner(hp2, n.prefix[cp+1:], pairs)
					nl := flock.Allocate(hp2, func() *artNode { return newLeaf(k, v) })
					split := buildInner(hp2, n.prefix[:cp],
						artnode.SortedPairs(pair{B: n.prefix[cp], C: clone}, pair{B: kb[depth+cp], C: nl}))
					n.removed.Store(hp2, true)
					store(hp2, split)
					return true
				})
			}) {
				return true
			}
		}
	}
}

// Delete removes k; false if absent.
func (t *Tree) Delete(p *flock.Proc, k uint64) bool {
	p.Begin()
	defer p.End()
	kb := artnode.KeyBytes(k)
	for {
		pa := t.search(p, &kb)
		if pa.st != stLeaf || pa.cur.k != k {
			return false
		}
		leaf := pa.cur
		if pa.par == nil {
			// Root is the leaf itself.
			if t.rootLck.TryLock(p, func(hp *flock.Proc) bool {
				if t.root.Load(hp) != leaf {
					return false
				}
				t.root.Store(hp, nil)
				return true
			}) {
				return true
			}
			continue
		}
		n, b := pa.par, pa.parB
		if t.lockSlotOwner(p, pa.gpar, pa.gparB, n, func(hp *flock.Proc, store func(*flock.Proc, *artNode)) bool {
			return n.lck.TryLock(hp, func(hp2 *flock.Proc) bool {
				if n.getChild(hp2, b) != leaf {
					return false
				}
				cnt := n.count.Load(hp2)
				if cnt > 2 {
					if cnt-1 <= artnode.ShrinkThreshold(n.kind) {
						// Rebuild as a smaller kind without b.
						pairs := artnode.Without(n.collectChildren(hp2), b)
						small := buildInner(hp2, n.prefix, pairs)
						n.removed.Store(hp2, true)
						store(hp2, small)
					} else {
						n.removeChild(hp2, b)
						n.count.Store(hp2, cnt-1)
					}
					return true
				}
				// cnt == 2: path-compress n away, promoting the sibling.
				pairs := artnode.Without(n.collectChildren(hp2), b)
				sib := pairs[0]
				if sib.C.isLeaf() {
					n.removed.Store(hp2, true)
					store(hp2, sib.C)
					return true
				}
				// Inner sibling: clone it with the merged prefix.
				return sib.C.lck.TryLock(hp2, func(hp3 *flock.Proc) bool {
					merged := make([]byte, 0, len(n.prefix)+1+len(sib.C.prefix))
					merged = append(append(append(merged, n.prefix...), sib.B), sib.C.prefix...)
					clone := buildInner(hp3, merged, sib.C.collectChildren(hp3))
					n.removed.Store(hp3, true)
					sib.C.removed.Store(hp3, true)
					store(hp3, clone)
					return true
				})
			})
		}) {
			return true
		}
	}
}

// Keys returns the sorted key snapshot (single-threaded use).
func (t *Tree) Keys(p *flock.Proc) []uint64 {
	var out []uint64
	var walk func(n *artNode)
	walk = func(n *artNode) {
		if n == nil {
			return
		}
		if n.isLeaf() {
			out = append(out, n.k)
			return
		}
		for _, pr := range n.collectChildren(p) {
			walk(pr.C)
		}
	}
	walk(t.root.Load(p))
	return out
}

// CheckInvariants verifies, single-threaded: every leaf's key bytes equal
// the path bytes leading to it; counts match occupancy; inner nodes have
// at least 2 children; prefixes fit in the 8-byte budget.
func (t *Tree) CheckInvariants(p *flock.Proc) error {
	var walk func(n *artNode, acc []byte) error
	walk = func(n *artNode, acc []byte) error {
		if n.isLeaf() {
			kb := artnode.KeyBytes(n.k)
			if simd.Mismatch(kb[:], acc) != len(acc) {
				return fmt.Errorf("arttree: leaf %d under path %v", n.k, acc)
			}
			return nil
		}
		acc = append(acc, n.prefix...)
		if len(acc) >= 8 {
			return fmt.Errorf("arttree: path bytes overflow at prefix %v", acc)
		}
		pairs := n.collectChildren(p)
		if got := n.count.Load(p); got != len(pairs) {
			return fmt.Errorf("arttree: count %d != occupancy %d", got, len(pairs))
		}
		if len(pairs) < 2 {
			return fmt.Errorf("arttree: inner node with %d children", len(pairs))
		}
		if len(pairs) > artnode.Cap(n.kind) {
			return fmt.Errorf("arttree: occupancy %d over capacity %d", len(pairs), artnode.Cap(n.kind))
		}
		if n.slots != nil {
			pk := n.pk.Load(p)
			if err := artnode.CheckPacked(n.kind, pk.lo, pk.hi, pk.occ, func(i int) (byte, bool) {
				sv := n.slots[i].Load(p)
				return sv.b, sv.child != nil
			}); err != nil {
				return fmt.Errorf("arttree: %w", err)
			}
		}
		for _, pr := range pairs {
			if err := walk(pr.C, append(acc, pr.B)); err != nil {
				return err
			}
		}
		return nil
	}
	root := t.root.Load(p)
	if root == nil {
		return nil
	}
	return walk(root, nil)
}
