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
//     idempotently under helping) that readers probe with one vector
//     compare (internal/simd) to find candidate lanes; the slot load
//     that confirms a candidate remains the linearization point. The
//     publication protocol (packed byte before slot on insert, slot
//     before packed byte on remove) makes a packed miss authoritative
//     for absence: see DESIGN.md S15.
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
	"encoding/binary"
	"fmt"
	"math/bits"

	flock "flock/internal/core"
	"flock/internal/simd"
)

// Node kinds.
const (
	kLeaf = iota
	k4
	k16
	k48
	k256
)

func capOf(kind uint8) int {
	switch kind {
	case k4:
		return 4
	case k16:
		return 16
	case k48:
		return 48
	default:
		return 256
	}
}

func kindName(kind uint8) string {
	switch kind {
	case kLeaf:
		return "leaf"
	case k4:
		return "node4"
	case k16:
		return "node16"
	case k48:
		return "node48"
	default:
		return "node256"
	}
}

// packed16 is the vector-searchable image of a Node4/Node16: lane i of
// the 16-byte key array holds slots[i]'s key byte, and bit i of occ
// says the lane is live. It lives in a single Mutable box so updates
// go through the logged CAS machinery — helpers replaying a thunk
// cannot tear it or clobber it with stale halves — and a reader's one
// Load yields a mutually consistent (keys, occ) snapshot. Lanes with a
// clear occ bit may hold stale bytes; masking keeps them out.
type packed16 struct {
	lo, hi uint64 // key bytes, lane i at byte i of the little-endian image
	occ    uint16 // lane-occupancy bitmask
}

// keyArray splits the two words into the array form simd.Match16 takes.
func (pk packed16) keyArray() [16]byte {
	var a [16]byte
	binary.LittleEndian.PutUint64(a[0:8], pk.lo)
	binary.LittleEndian.PutUint64(a[8:16], pk.hi)
	return a
}

// with returns pk with lane i holding key byte b and marked live.
func (pk packed16) with(i int, b byte) packed16 {
	sh := uint(i&7) * 8
	if i < 8 {
		pk.lo = pk.lo&^(uint64(0xff)<<sh) | uint64(b)<<sh
	} else {
		pk.hi = pk.hi&^(uint64(0xff)<<sh) | uint64(b)<<sh
	}
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

	slots    []flock.Mutable[slotPair] // k4, k16
	pk       flock.Mutable[packed16]   // k4, k16: packed key image over slots
	idx      []flock.Mutable[uint8]    // k48: byte -> child index+1 (0 = empty)
	children []flock.Mutable[*artNode] // k48 (48), k256 (256)

	count   flock.Mutable[int] // inner: number of children
	removed flock.UpdateOnce[bool]
	lck     flock.Lock
}

func (n *artNode) isLeaf() bool { return n.kind == kLeaf }

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

func keyBytes(k uint64) [8]byte {
	var b [8]byte
	binary.BigEndian.PutUint64(b[:], k)
	return b
}

// commonLen is the length of the longest common prefix of a and b —
// every descent mismatch check and prefix-split computation routes
// through the simd package's Mismatch (vectorized on amd64).
func commonLen(a, b []byte) int { return simd.Mismatch(a, b) }

func newLeaf(k, v uint64) *artNode { return &artNode{kind: kLeaf, k: k, v: v} }

func newInner(kind uint8, prefix []byte) *artNode {
	n := &artNode{kind: kind, prefix: prefix}
	switch kind {
	case k4, k16:
		n.slots = make([]flock.Mutable[slotPair], capOf(kind))
	case k48:
		n.idx = make([]flock.Mutable[uint8], 256)
		n.children = make([]flock.Mutable[*artNode], 48)
	case k256:
		n.children = make([]flock.Mutable[*artNode], 256)
	}
	return n
}

// getChild returns the child for byte b (nil if absent). Works both
// outside locks (direct loads) and inside thunks (committed loads).
func (n *artNode) getChild(p *flock.Proc, b byte) *artNode {
	switch n.kind {
	case k4, k16:
		// One packed load + one vector compare yields the candidate
		// lanes; each candidate is confirmed by its authoritative slot
		// load (stale packed lanes fail the confirm). A packed miss is
		// authoritative for absence: a live slot's lane is always in
		// the mask (publication protocol, DESIGN.md S15).
		pk := n.pk.Load(p)
		keys := pk.keyArray()
		for m := simd.Match16(&keys, b) & pk.occ; m != 0; m &= m - 1 {
			sv := n.slots[bits.TrailingZeros16(m)].Load(p)
			if sv.child != nil && sv.b == b {
				return sv.child
			}
		}
		return nil
	case k48:
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
	case k4, k16:
		pk := n.pk.Load(hp)
		free := ^pk.occ & uint16(1<<len(n.slots)-1)
		if free == 0 {
			panic("arttree: setChild on full " + kindName(n.kind))
		}
		i := bits.TrailingZeros16(free)
		n.pk.Store(hp, pk.with(i, b))                  // publish the packed byte first …
		n.slots[i].Store(hp, slotPair{b: b, child: c}) // … then the authoritative slot
	case k48:
		for i := range n.children {
			if n.children[i].Load(hp) == nil {
				n.children[i].Store(hp, c)     // publish child first
				n.idx[b].Store(hp, uint8(i)+1) // then the index
				return
			}
		}
		panic("arttree: setChild on full " + kindName(n.kind))
	default:
		n.children[b].Store(hp, c)
	}
}

// replaceChild swings the existing slot for byte b to c. Caller holds
// n's lock; b must be present.
func (n *artNode) replaceChild(hp *flock.Proc, b byte, c *artNode) {
	switch n.kind {
	case k4, k16:
		// Slot-only update: the key byte is unchanged, so the packed
		// image needs no maintenance.
		pk := n.pk.Load(hp)
		keys := pk.keyArray()
		for m := simd.Match16(&keys, b) & pk.occ; m != 0; m &= m - 1 {
			i := bits.TrailingZeros16(m)
			sv := n.slots[i].Load(hp)
			if sv.child != nil && sv.b == b {
				n.slots[i].Store(hp, slotPair{b: b, child: c})
				return
			}
		}
		panic("arttree: replaceChild missing byte in " + kindName(n.kind))
	case k48:
		i := n.idx[b].Load(hp)
		n.children[i-1].Store(hp, c)
	default:
		n.children[b].Store(hp, c)
	}
}

// removeChild clears the slot for byte b. Caller holds n's lock.
func (n *artNode) removeChild(hp *flock.Proc, b byte) {
	switch n.kind {
	case k4, k16:
		pk := n.pk.Load(hp)
		keys := pk.keyArray()
		for m := simd.Match16(&keys, b) & pk.occ; m != 0; m &= m - 1 {
			i := bits.TrailingZeros16(m)
			sv := n.slots[i].Load(hp)
			if sv.child != nil && sv.b == b {
				n.slots[i].Store(hp, slotPair{}) // clear the slot first …
				n.pk.Store(hp, pk.without(i))    // … then retract the packed lane
				return
			}
		}
	case k48:
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
type pair struct {
	b byte
	c *artNode
}

// collectChildren snapshots all present children in byte order. Caller
// holds n's lock; iteration counts are fixed so replays stay aligned.
func (n *artNode) collectChildren(hp *flock.Proc) []pair {
	var out []pair
	switch n.kind {
	case k4, k16:
		for i := range n.slots {
			sv := n.slots[i].Load(hp)
			if sv.child != nil {
				out = append(out, pair{sv.b, sv.child})
			}
		}
		// insertion order is arbitrary: normalize by byte
		for i := 1; i < len(out); i++ {
			for j := i; j > 0 && out[j-1].b > out[j].b; j-- {
				out[j-1], out[j] = out[j], out[j-1]
			}
		}
	case k48:
		for b := 0; b < 256; b++ {
			i := n.idx[b].Load(hp)
			if i != 0 {
				if c := n.children[i-1].Load(hp); c != nil {
					out = append(out, pair{byte(b), c})
				}
			}
		}
	default:
		for b := 0; b < 256; b++ {
			if c := n.children[b].Load(hp); c != nil {
				out = append(out, pair{byte(b), c})
			}
		}
	}
	return out
}

// buildInner constructs a fresh inner node of minimal kind holding pairs.
func buildInner(hp *flock.Proc, prefix []byte, pairs []pair) *artNode {
	kind := uint8(k4)
	switch {
	case len(pairs) > 48:
		kind = k256
	case len(pairs) > 16:
		kind = k48
	case len(pairs) > 4:
		kind = k16
	}
	return flock.Allocate(hp, func() *artNode {
		n := newInner(kind, prefix)
		switch kind {
		case k4, k16:
			var pk packed16
			for i, pr := range pairs {
				n.slots[i].Init(slotPair{b: pr.b, child: pr.c})
				pk = pk.with(i, pr.b)
			}
			n.pk.Init(pk)
		case k48:
			for i, pr := range pairs {
				n.children[i].Init(pr.c)
				n.idx[pr.b].Init(uint8(i) + 1)
			}
		default:
			for _, pr := range pairs {
				n.children[pr.b].Init(pr.c)
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
		if commonLen(cur.prefix, kb[depth:]) != len(cur.prefix) {
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
	kb := keyBytes(k)
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
	kb := keyBytes(k)
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
				okb := keyBytes(leaf.k)
				cp := commonLen(okb[depth:], kb[depth:])
				nl := flock.Allocate(hp, func() *artNode { return newLeaf(k, v) })
				n4 := buildInner(hp, kb[depth:depth+cp],
					sortedPairs(pair{okb[depth+cp], leaf}, pair{kb[depth+cp], nl}))
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
					if cnt < capOf(n.kind) {
						n.setChild(hp2, b, nl)
						n.count.Store(hp2, cnt+1)
						return true
					}
					// Grow to the next kind. The count said full; assert
					// the occupancy agrees before rebuilding wider.
					pairs := n.collectChildren(hp2)
					if len(pairs) != capOf(n.kind) {
						panic(fmt.Sprintf("arttree: growing %s with %d/%d children",
							kindName(n.kind), len(pairs), capOf(n.kind)))
					}
					pairs = append(pairs, pair{b, nl})
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
					cp := commonLen(n.prefix, kb[depth:])
					// Clone n with the tail of its prefix.
					pairs := n.collectChildren(hp2)
					clone := buildInner(hp2, n.prefix[cp+1:], pairs)
					nl := flock.Allocate(hp2, func() *artNode { return newLeaf(k, v) })
					split := buildInner(hp2, n.prefix[:cp],
						sortedPairs(pair{n.prefix[cp], clone}, pair{kb[depth+cp], nl}))
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

func sortedPairs(a, b pair) []pair {
	if a.b > b.b {
		a, b = b, a
	}
	return []pair{a, b}
}

// shrinkThreshold returns the occupancy at which a node collapses to a
// smaller kind (standard ART hysteresis).
func shrinkThreshold(kind uint8) int {
	switch kind {
	case k16:
		return 3
	case k48:
		return 12
	case k256:
		return 40
	default:
		return 1 // k4 only compresses away at a single child
	}
}

// Delete removes k; false if absent.
func (t *Tree) Delete(p *flock.Proc, k uint64) bool {
	p.Begin()
	defer p.End()
	kb := keyBytes(k)
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
					if cnt-1 <= shrinkThreshold(n.kind) {
						// Rebuild as a smaller kind without b.
						pairs := without(n.collectChildren(hp2), b)
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
				pairs := without(n.collectChildren(hp2), b)
				sib := pairs[0]
				if sib.c.isLeaf() {
					n.removed.Store(hp2, true)
					store(hp2, sib.c)
					return true
				}
				// Inner sibling: clone it with the merged prefix.
				return sib.c.lck.TryLock(hp2, func(hp3 *flock.Proc) bool {
					merged := make([]byte, 0, len(n.prefix)+1+len(sib.c.prefix))
					merged = append(append(append(merged, n.prefix...), sib.b), sib.c.prefix...)
					clone := buildInner(hp3, merged, sib.c.collectChildren(hp3))
					n.removed.Store(hp3, true)
					sib.c.removed.Store(hp3, true)
					store(hp3, clone)
					return true
				})
			})
		}) {
			return true
		}
	}
}

func without(pairs []pair, b byte) []pair {
	out := pairs[:0]
	for _, pr := range pairs {
		if pr.b != b {
			out = append(out, pr)
		}
	}
	return out
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
		for _, pr := range t.allChildren(p, n) {
			walk(pr.c)
		}
	}
	walk(t.root.Load(p))
	return out
}

// allChildren is collectChildren without a lock (single-threaded use).
func (t *Tree) allChildren(p *flock.Proc, n *artNode) []pair {
	return n.collectChildren(p)
}

// CheckInvariants verifies, single-threaded: every leaf's key bytes equal
// the path bytes leading to it; counts match occupancy; inner nodes have
// at least 2 children; prefixes fit in the 8-byte budget.
func (t *Tree) CheckInvariants(p *flock.Proc) error {
	var walk func(n *artNode, acc []byte) error
	walk = func(n *artNode, acc []byte) error {
		if n.isLeaf() {
			kb := keyBytes(n.k)
			if commonLen(kb[:], acc) != len(acc) {
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
		if len(pairs) > capOf(n.kind) {
			return fmt.Errorf("arttree: occupancy %d over capacity %d", len(pairs), capOf(n.kind))
		}
		if n.kind == k4 || n.kind == k16 {
			// Quiesced, the packed key image must mirror the slots
			// exactly: matching bytes on live lanes, occ == occupancy.
			pk := n.pk.Load(p)
			keys := pk.keyArray()
			var occ uint16
			for i := range n.slots {
				sv := n.slots[i].Load(p)
				if sv.child == nil {
					continue
				}
				occ |= 1 << i
				if pk.occ&(1<<i) == 0 {
					return fmt.Errorf("arttree: %s lane %d live but packed bit clear", kindName(n.kind), i)
				}
				if keys[i] != sv.b {
					return fmt.Errorf("arttree: %s lane %d packed byte %#x != slot byte %#x",
						kindName(n.kind), i, keys[i], sv.b)
				}
			}
			if pk.occ != occ {
				return fmt.Errorf("arttree: %s packed occ %#x != slot occupancy %#x", kindName(n.kind), pk.occ, occ)
			}
		}
		for _, pr := range pairs {
			if err := walk(pr.c, append(acc, pr.b)); err != nil {
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
