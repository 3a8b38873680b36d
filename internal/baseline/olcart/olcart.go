// Package olcart implements a specialized concurrent Adaptive Radix
// Tree synchronized with optimistic lock coupling (Leis et al., "The
// ART of Practical Synchronization", DaMoN 2016) — the standard
// hand-crafted competitor for ART from the literature, serving as the
// specialized baseline for the flock arttree in Figure 6, in the same
// role the Natarajan/Ellen trees play for the binary trees in Figure 5.
//
// Every node carries a version lock (see olock): readers traverse
// without acquiring anything, validating the version of each node
// hand-over-hand before trusting what they read from it, and restart
// from the root when validation fails; writers lock-couple, upgrading
// the versions of the (parent, node) pair only around the structural
// change itself. Reads are restart-bounded: after maxOptimistic failed
// optimistic descents a reader falls back to a pessimistic lock-coupled
// descent that cannot restart, so Find is wait-bounded even under a
// steady stream of writers.
//
// Concurrency-safety choices (this package must be race-detector
// clean, unlike C++ OLC implementations that read torn data and rely
// on validation alone):
//
//   - Node4/Node16 store each (key byte, child) pair as an immutable
//     box behind an atomic pointer, so a reader never sees a torn pair.
//     Node48 publishes the child before the index (and retracts the
//     index before the child); Node256 indexes children directly.
//   - Node4/Node16 additionally maintain a packed 16-byte key image
//     (two atomic words) + occupancy mask that readers probe with one
//     SWAR match over the two words (internal/simd) to find candidate
//     lanes; the slot load confirming a candidate remains the
//     linearization point.
//     Writers, serialized by the node's version lock, publish a lane's
//     packed byte before its slot on insert and clear the slot before
//     the lane on remove, so a packed miss is authoritative for
//     absence (same protocol as the flock arttree; DESIGN.md S15).
//   - Prefixes and leaves are immutable. Any change of prefix or node
//     kind (grow, shrink, path-compression merge, prefix split) builds
//     a replacement node under the locks of the parent and the node,
//     marks the old node dead, and swings the parent's slot.
//   - The root is a permanent Node256 with an empty prefix that is
//     never replaced, so every mutable slot has a lockable owner.
//
// Keys are 8-byte big-endian uint64s, as everywhere in this repository;
// fixed-width keys mean no key is a prefix of another, so there are no
// in-node prefix leaves and the full compressed path always fits the
// 8-byte budget. Implements set.Set; the *flock.Proc is ignored, as in
// the other specialized baselines.
package olcart

import (
	"fmt"
	"math/bits"
	"runtime"
	"sync/atomic"

	flock "flock/internal/core"
	"flock/internal/simd"
	"flock/internal/structures/artnode"
)

// slot is the immutable (key byte, child) box used by Node4/Node16.
type slot struct {
	b byte
	c *node
}

// node is a leaf or an inner node; which arrays are in use depends on
// kind. kind, k, v and prefix are immutable; everything shared is
// atomic so optimistic readers are race-free.
type node struct {
	ver    olock
	dead   atomic.Bool // unlinked by a structural replacement
	kind   uint8
	k, v   uint64 // leaf payload
	prefix []byte // inner: compressed path bytes

	slots    []atomic.Pointer[slot] // N4, N16
	idx      []atomic.Int32         // N48: byte -> child index+1 (0 = empty)
	children []atomic.Pointer[node] // N48 (48), N256 (256)
	count    atomic.Int32           // inner: number of children

	// N4/N16 packed key image: lane i's key byte in the pkLo/pkHi pair
	// (laid out by simd.With), occupancy bit i in pkOcc (uint16
	// range). Written only under the node's version (write) lock, read
	// by optimistic readers; lanes with a clear occupancy bit may hold
	// stale bytes. Searches load pkLo, then pkHi, then pkOcc. The three
	// loads are not mutually atomic, but the per-lane invariant (a live
	// slot's byte and bit are published before the slot and retracted
	// after it) makes candidate misses and hits sound; the confirming
	// slot load is the linearization point either way.
	pkLo, pkHi atomic.Uint64
	pkOcc      atomic.Uint32
}

// pkSet publishes lane i's key byte and occupancy bit. Caller holds
// the write lock and stores the slot only after pkSet returns.
func (n *node) pkSet(i int, b byte) {
	lo, hi := simd.With(n.pkLo.Load(), n.pkHi.Load(), i, b)
	n.pkLo.Store(lo)
	n.pkHi.Store(hi)
	n.pkOcc.Store(n.pkOcc.Load() | 1<<uint(i))
}

// pkClear retracts lane i (the stale byte stays; the cleared bit is
// what excludes it). Caller holds the write lock and has already
// cleared the slot.
func (n *node) pkClear(i int) {
	n.pkOcc.Store(n.pkOcc.Load() &^ (1 << uint(i)))
}

func (n *node) isLeaf() bool { return n.kind == artnode.Leaf }

// rLock waits for the node to be unlocked and returns its version;
// reports false if the node has been unlinked (caller must restart).
func (n *node) rLock() (uint64, bool) {
	v := n.ver.await()
	if n.dead.Load() {
		return 0, false
	}
	return v, true
}

// retire marks n unlinked and releases its write lock. The version
// advances, so every optimistic reader of n fails validation.
func (n *node) retire() {
	n.dead.Store(true)
	n.ver.unlock()
}

func newLeaf(k, v uint64) *node { return &node{kind: artnode.Leaf, k: k, v: v} }

func newInner(kind uint8, prefix []byte) *node {
	n := &node{kind: kind, prefix: prefix}
	switch kind {
	case artnode.N4, artnode.N16:
		n.slots = make([]atomic.Pointer[slot], artnode.Cap(kind))
	case artnode.N48:
		n.idx = make([]atomic.Int32, 256)
		n.children = make([]atomic.Pointer[node], 48)
	case artnode.N256:
		n.children = make([]atomic.Pointer[node], 256)
	}
	return n
}

// getChild returns the child for byte b (nil if absent). Safe to call
// optimistically; the caller validates the node's version afterwards.
func (n *node) getChild(b byte) *node {
	switch n.kind {
	case artnode.N4, artnode.N16:
		// One SWAR match over the packed key image yields the
		// candidate lanes; the authoritative slot load confirms. A
		// packed miss is authoritative for absence (see pkSet/pkClear
		// ordering); optimistic callers additionally validate the
		// node's version afterwards, as before.
		lo, hi := n.pkLo.Load(), n.pkHi.Load()
		for m := simd.Match(lo, hi, b) & uint16(n.pkOcc.Load()); m != 0; m &= m - 1 {
			if sv := n.slots[bits.TrailingZeros16(m)].Load(); sv != nil && sv.b == b {
				return sv.c
			}
		}
		return nil
	case artnode.N48:
		i := n.idx[b].Load()
		if i == 0 {
			return nil
		}
		return n.children[i-1].Load()
	default:
		return n.children[b].Load()
	}
}

// addChild inserts a new (b, c) pair; the caller holds n's write lock
// and has verified b is absent and n is not full.
func (n *node) addChild(b byte, c *node) {
	switch n.kind {
	case artnode.N4, artnode.N16:
		occ := uint16(n.pkOcc.Load())
		free := ^occ & uint16(1<<len(n.slots)-1)
		if free == 0 {
			panic("olcart: addChild on full " + artnode.Name(n.kind))
		}
		i := bits.TrailingZeros16(free)
		n.pkSet(i, b)                       // publish the packed byte first …
		n.slots[i].Store(&slot{b: b, c: c}) // … then the authoritative slot
	case artnode.N48:
		for i := range n.children {
			if n.children[i].Load() == nil {
				n.children[i].Store(c)       // publish the child first
				n.idx[b].Store(int32(i) + 1) // then the index
				return
			}
		}
		panic("olcart: addChild on full " + artnode.Name(n.kind))
	default:
		n.children[b].Store(c)
	}
}

// replaceChild swings the existing slot for byte b to c. Caller holds
// n's write lock; b must be present.
func (n *node) replaceChild(b byte, c *node) {
	switch n.kind {
	case artnode.N4, artnode.N16:
		// Slot-only update: the key byte is unchanged, so the packed
		// image needs no maintenance.
		lo, hi := n.pkLo.Load(), n.pkHi.Load()
		for m := simd.Match(lo, hi, b) & uint16(n.pkOcc.Load()); m != 0; m &= m - 1 {
			i := bits.TrailingZeros16(m)
			if sv := n.slots[i].Load(); sv != nil && sv.b == b {
				n.slots[i].Store(&slot{b: b, c: c})
				return
			}
		}
		panic("olcart: replaceChild missing byte in " + artnode.Name(n.kind))
	case artnode.N48:
		n.children[n.idx[b].Load()-1].Store(c)
	default:
		n.children[b].Store(c)
	}
}

// removeChild clears the slot for byte b. Caller holds n's write lock.
func (n *node) removeChild(b byte) {
	switch n.kind {
	case artnode.N4, artnode.N16:
		lo, hi := n.pkLo.Load(), n.pkHi.Load()
		for m := simd.Match(lo, hi, b) & uint16(n.pkOcc.Load()); m != 0; m &= m - 1 {
			i := bits.TrailingZeros16(m)
			if sv := n.slots[i].Load(); sv != nil && sv.b == b {
				n.slots[i].Store(nil) // clear the slot first …
				n.pkClear(i)          // … then retract the packed lane
				return
			}
		}
	case artnode.N48:
		if i := n.idx[b].Load(); i != 0 {
			n.idx[b].Store(0) // retract the index first
			n.children[i-1].Store(nil)
		}
	default:
		n.children[b].Store(nil)
	}
}

// pair is a collected (byte, child) entry.
type pair = artnode.Pair[*node]

// collect snapshots all present children in byte order. Callers either
// hold n's write lock (or have exclusive access), or — on the
// optimistic scan path (scan.go) — run with no lock at all and
// validate n's version afterwards, discarding the result on a
// mismatch. The second regime is why every slot/idx/children read here
// must stay an atomic load: a concurrent locked writer may be mutating
// the arrays mid-collect.
func (n *node) collect() []pair {
	var out []pair
	switch n.kind {
	case artnode.N4, artnode.N16:
		for i := range n.slots {
			if sv := n.slots[i].Load(); sv != nil {
				out = append(out, pair{B: sv.b, C: sv.c})
			}
		}
		artnode.SortByByte(out) // slot order is insertion order
	case artnode.N48:
		for b := 0; b < 256; b++ {
			if i := n.idx[b].Load(); i != 0 {
				if c := n.children[i-1].Load(); c != nil {
					out = append(out, pair{B: byte(b), C: c})
				}
			}
		}
	default:
		for b := 0; b < 256; b++ {
			if c := n.children[b].Load(); c != nil {
				out = append(out, pair{B: byte(b), C: c})
			}
		}
	}
	return out
}

// buildInner constructs a fresh inner node of minimal kind holding
// pairs. The node is private until published by a locked parent store.
func buildInner(prefix []byte, pairs []pair) *node {
	kind := artnode.KindFor(len(pairs))
	n := newInner(kind, prefix)
	switch kind {
	case artnode.N4, artnode.N16:
		var lo, hi uint64
		var occ uint32
		for i, pr := range pairs {
			n.slots[i].Store(&slot{b: pr.B, c: pr.C})
			lo, hi = simd.With(lo, hi, i, pr.B)
			occ |= 1 << uint(i)
		}
		n.pkLo.Store(lo)
		n.pkHi.Store(hi)
		n.pkOcc.Store(occ)
	case artnode.N48:
		for i, pr := range pairs {
			n.children[i].Store(pr.C)
			n.idx[pr.B].Store(int32(i) + 1)
		}
	default:
		for _, pr := range pairs {
			n.children[pr.B].Store(pr.C)
		}
	}
	n.count.Store(int32(len(pairs)))
	return n
}

// Tree is the concurrent OLC ART set.
type Tree struct {
	root *node // permanent Node256, never replaced or retired
}

// New returns an empty tree.
func New() *Tree {
	return &Tree{root: newInner(artnode.N256, nil)}
}

// maxOptimistic bounds the number of optimistic restarts a read takes
// before switching to the pessimistic lock-coupled descent. A variable
// so tests can force the fallback path.
var maxOptimistic = 64

// Find reports the value stored under key. Restart-bounded: after
// maxOptimistic failed optimistic descents it completes pessimistically.
func (t *Tree) Find(_ *flock.Proc, key uint64) (uint64, bool) {
	kb := artnode.KeyBytes(key)
	for attempt := 0; attempt < maxOptimistic; attempt++ {
		if v, present, ok := t.findOpt(&kb, key); ok {
			return v, present
		}
	}
	return t.findLocked(&kb, key)
}

// findOpt is one optimistic descent; ok=false means a validation
// failed and the caller must restart.
func (t *Tree) findOpt(kb *[8]byte, key uint64) (val uint64, present, ok bool) {
	n := t.root
	vn, alive := n.rLock() // root is never dead
	if !alive {
		return 0, false, false
	}
	depth := 0
	for {
		if simd.Mismatch(n.prefix, kb[depth:]) != len(n.prefix) {
			if !n.ver.validate(vn) {
				return 0, false, false
			}
			return 0, false, true
		}
		depth += len(n.prefix)
		next := n.getChild(kb[depth])
		if !n.ver.validate(vn) {
			return 0, false, false
		}
		if next == nil {
			return 0, false, true
		}
		if next.isLeaf() {
			// Leaf contents are immutable; the validation above proved
			// the leaf was n's child while n's version held, which is
			// the linearization point.
			if next.k == key {
				return next.v, true, true
			}
			return 0, false, true
		}
		vnext, alive := next.rLock()
		if !alive || !n.ver.validate(vn) {
			return 0, false, false
		}
		n, vn = next, vnext
		depth++
	}
}

// findLocked is the pessimistic fallback: hand-over-hand write locks,
// no restarts. A locked node cannot be unlinked (unlinking requires
// its parent's lock, which we hold while acquiring the child).
func (t *Tree) findLocked(kb *[8]byte, key uint64) (uint64, bool) {
	n := t.root
	n.ver.lock()
	depth := 0
	for {
		if simd.Mismatch(n.prefix, kb[depth:]) != len(n.prefix) {
			n.ver.unlock()
			return 0, false
		}
		depth += len(n.prefix)
		next := n.getChild(kb[depth])
		if next == nil {
			n.ver.unlock()
			return 0, false
		}
		if next.isLeaf() {
			k, v := next.k, next.v
			n.ver.unlock()
			if k == key {
				return v, true
			}
			return 0, false
		}
		next.ver.lock()
		n.ver.unlock()
		n = next
		depth++
	}
}

// Insert adds (key, val); false if already present (value not updated).
func (t *Tree) Insert(_ *flock.Proc, key, val uint64) bool {
	kb := artnode.KeyBytes(key)
	for attempt := 0; ; attempt++ {
		if attempt > 0 && attempt%spinLimit == 0 {
			runtime.Gosched()
		}
		if inserted, ok := t.insertOpt(&kb, key, val); ok {
			return inserted
		}
	}
}

func (t *Tree) insertOpt(kb *[8]byte, key, val uint64) (inserted, ok bool) {
	var par *node
	var vpar uint64
	var parB byte
	n := t.root
	vn, alive := n.rLock()
	if !alive {
		return false, false
	}
	depth := 0
	for {
		cp := simd.Mismatch(n.prefix, kb[depth:])
		if cp != len(n.prefix) {
			// Prefix mismatch: split n's compressed path. The root has
			// an empty prefix, so par is non-nil here.
			if !par.ver.upgrade(vpar) {
				return false, false
			}
			if !n.ver.upgradeOr(vn, &par.ver) {
				return false, false
			}
			clone := buildInner(cloneBytes(n.prefix[cp+1:]), n.collect())
			split := buildInner(cloneBytes(n.prefix[:cp]),
				artnode.SortedPairs(pair{B: n.prefix[cp], C: clone}, pair{B: kb[depth+cp], C: newLeaf(key, val)}))
			par.replaceChild(parB, split)
			n.retire()
			par.ver.unlock()
			return true, true
		}
		depth += len(n.prefix)
		b := kb[depth]
		next := n.getChild(b)
		if !n.ver.validate(vn) {
			return false, false
		}
		if next == nil {
			if int(n.count.Load()) == artnode.Cap(n.kind) {
				// Full: grow to the next kind under the parent's lock.
				// The root Node256 is never full with a byte absent.
				if !par.ver.upgrade(vpar) {
					return false, false
				}
				if !n.ver.upgradeOr(vn, &par.ver) {
					return false, false
				}
				// The count said full; assert the occupancy agrees
				// before rebuilding wider.
				kids := n.collect()
				if len(kids) != artnode.Cap(n.kind) {
					panic(fmt.Sprintf("olcart: growing %s with %d/%d children",
						artnode.Name(n.kind), len(kids), artnode.Cap(n.kind)))
				}
				grown := buildInner(n.prefix, append(kids, pair{B: b, C: newLeaf(key, val)}))
				par.replaceChild(parB, grown)
				n.retire()
				par.ver.unlock()
				return true, true
			}
			// Room available: only n's lock is needed. The upgrade
			// CAS revalidates vn, so the absence of b still holds.
			if !n.ver.upgrade(vn) {
				return false, false
			}
			n.addChild(b, newLeaf(key, val))
			n.count.Add(1)
			n.ver.unlock()
			return true, true
		}
		if next.isLeaf() {
			if next.k == key {
				return false, true // present; validated above
			}
			// Two keys collide below b: replace the leaf with a Node4
			// over their common suffix path. Only n's slot changes.
			if !n.ver.upgrade(vn) {
				return false, false
			}
			okb := artnode.KeyBytes(next.k)
			cp := simd.Mismatch(okb[depth+1:], kb[depth+1:])
			n4 := buildInner(cloneBytes(kb[depth+1:depth+1+cp]),
				artnode.SortedPairs(pair{B: okb[depth+1+cp], C: next}, pair{B: kb[depth+1+cp], C: newLeaf(key, val)}))
			n.replaceChild(b, n4)
			n.ver.unlock()
			return true, true
		}
		vnext, alive := next.rLock()
		if !alive || !n.ver.validate(vn) {
			return false, false
		}
		par, vpar, parB = n, vn, b
		n, vn = next, vnext
		depth++
	}
}

// Delete removes key; false if absent.
func (t *Tree) Delete(_ *flock.Proc, key uint64) bool {
	kb := artnode.KeyBytes(key)
	for attempt := 0; ; attempt++ {
		if attempt > 0 && attempt%spinLimit == 0 {
			runtime.Gosched()
		}
		if deleted, ok := t.deleteOpt(&kb, key); ok {
			return deleted
		}
	}
}

func (t *Tree) deleteOpt(kb *[8]byte, key uint64) (deleted, ok bool) {
	var par *node
	var vpar uint64
	var parB byte
	n := t.root
	vn, alive := n.rLock()
	if !alive {
		return false, false
	}
	depth := 0
	for {
		if simd.Mismatch(n.prefix, kb[depth:]) != len(n.prefix) {
			if !n.ver.validate(vn) {
				return false, false
			}
			return false, true
		}
		depth += len(n.prefix)
		b := kb[depth]
		next := n.getChild(b)
		if !n.ver.validate(vn) {
			return false, false
		}
		if next == nil {
			return false, true
		}
		if !next.isLeaf() {
			vnext, alive := next.rLock()
			if !alive || !n.ver.validate(vn) {
				return false, false
			}
			par, vpar, parB = n, vn, b
			n, vn = next, vnext
			depth++
			continue
		}
		if next.k != key {
			return false, true // validated above; leaf is immutable
		}
		rem := int(n.count.Load()) - 1
		if !n.ver.validate(vn) {
			return false, false
		}
		if n == t.root || rem > artnode.ShrinkThreshold(n.kind) {
			// Plain removal under n's lock alone.
			if !n.ver.upgrade(vn) {
				return false, false
			}
			n.removeChild(b)
			n.count.Add(-1)
			n.ver.unlock()
			return true, true
		}
		if rem >= 2 {
			// Collapse to a smaller kind (standard ART hysteresis).
			if !par.ver.upgrade(vpar) {
				return false, false
			}
			if !n.ver.upgradeOr(vn, &par.ver) {
				return false, false
			}
			small := buildInner(n.prefix, artnode.Without(n.collect(), b))
			par.replaceChild(parB, small)
			n.retire()
			par.ver.unlock()
			return true, true
		}
		// rem == 1: path-compress n away, promoting the lone sibling.
		if !par.ver.upgrade(vpar) {
			return false, false
		}
		if !n.ver.upgradeOr(vn, &par.ver) {
			return false, false
		}
		sib := artnode.Without(n.collect(), b)[0]
		if sib.C.isLeaf() {
			par.replaceChild(parB, sib.C)
		} else {
			// Merge n's prefix, the sibling's branch byte and the
			// sibling's prefix into a clone. Locking top-down
			// (par, n, sib.C) matches every other writer, and sib.C
			// cannot be unlinked while we hold n's lock.
			sib.C.ver.lock()
			merged := make([]byte, 0, len(n.prefix)+1+len(sib.C.prefix))
			merged = append(append(append(merged, n.prefix...), sib.B), sib.C.prefix...)
			clone := buildInner(merged, sib.C.collect())
			par.replaceChild(parB, clone)
			sib.C.retire()
		}
		n.retire()
		par.ver.unlock()
		return true, true
	}
}

func cloneBytes(b []byte) []byte {
	return append([]byte(nil), b...)
}

// Keys returns the sorted key snapshot (single-threaded use).
func (t *Tree) Keys(_ *flock.Proc) []uint64 {
	var out []uint64
	var walk func(n *node)
	walk = func(n *node) {
		if n == nil {
			return
		}
		if n.isLeaf() {
			out = append(out, n.k)
			return
		}
		for _, pr := range n.collect() {
			walk(pr.C)
		}
	}
	walk(t.root)
	return out
}

// CheckInvariants verifies, single-threaded: every leaf's key bytes
// equal the path bytes leading to it; counts match occupancy; non-root
// inner nodes have at least 2 children; path bytes fit the key width.
func (t *Tree) CheckInvariants(_ *flock.Proc) error {
	var walk func(n *node, acc []byte) error
	walk = func(n *node, acc []byte) error {
		if n.isLeaf() {
			kb := artnode.KeyBytes(n.k)
			if simd.Mismatch(kb[:], acc) != len(acc) {
				return fmt.Errorf("olcart: leaf %d under path %v", n.k, acc)
			}
			return nil
		}
		acc = append(acc, n.prefix...)
		if len(acc) >= 8 {
			return fmt.Errorf("olcart: path bytes overflow at prefix %v", acc)
		}
		pairs := n.collect()
		if got := int(n.count.Load()); got != len(pairs) {
			return fmt.Errorf("olcart: count %d != occupancy %d", got, len(pairs))
		}
		if n != t.root && len(pairs) < 2 {
			return fmt.Errorf("olcart: inner node with %d children", len(pairs))
		}
		if len(pairs) > artnode.Cap(n.kind) {
			return fmt.Errorf("olcart: occupancy %d over capacity %d", len(pairs), artnode.Cap(n.kind))
		}
		if n.slots != nil {
			if err := artnode.CheckPacked(n.kind, n.pkLo.Load(), n.pkHi.Load(), uint16(n.pkOcc.Load()), func(i int) (byte, bool) {
				if sv := n.slots[i].Load(); sv != nil {
					return sv.b, true
				}
				return 0, false
			}); err != nil {
				return fmt.Errorf("olcart: %w", err)
			}
		}
		if n.dead.Load() {
			return fmt.Errorf("olcart: reachable dead node")
		}
		for _, pr := range pairs {
			if err := walk(pr.C, append(acc, pr.B)); err != nil {
				return err
			}
		}
		return nil
	}
	return walk(t.root, nil)
}
