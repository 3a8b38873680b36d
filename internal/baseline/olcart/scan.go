package olcart

import (
	"encoding/binary"

	flock "flock/internal/core"
	"flock/internal/structures/set"
)

// Scan implements set.Scanner with the same OLC recipe the point reads
// use: optimistic subtree walks that validate each node's version
// hand-over-hand and restart from scratch on any interference, bounded
// at maxOptimistic attempts, after which the scan completes
// pessimistically under lock-coupled write locks and cannot restart.
// This is the literature's restart-vs-helping tradeoff in its sharpest
// form — a long scan revalidates every node on its frontier, so a
// steady writer stream can starve the optimistic pass entirely — and is
// exactly the baseline arm the ext-ycsb-e figure compares against the
// flock structures' restart-free scan thunks.
//
// Like the flock scans, a completed scan is weakly consistent across
// nodes (interval semantics): each node's slice of the result is pinned
// by its own version validation, but different nodes validate at
// different instants.
func (t *Tree) Scan(_ *flock.Proc, lo, hi uint64, limit int, dst []set.KV) []set.KV {
	lo, hi = set.ClampScanBounds(lo, hi)
	if limit == 0 {
		return dst
	}
	end := len(dst) + limit // limit < 0: end is never reached
	for attempt := 0; attempt < maxOptimistic; attempt++ {
		if out, ok := t.scanOpt(lo, hi, end, dst); ok {
			return out
		}
	}
	return t.scanLocked(lo, hi, end, dst)
}

// boundsAt returns the smallest and largest keys reachable below the
// path whose first `used` bytes are kb[:used] (pad with 0x00 / 0xff).
func boundsAt(kb *[8]byte, used int) (uint64, uint64) {
	var mnb, mxb [8]byte
	copy(mnb[:], kb[:used])
	copy(mxb[:], kb[:used])
	for i := used; i < 8; i++ {
		mxb[i] = 0xff
	}
	return binary.BigEndian.Uint64(mnb[:]), binary.BigEndian.Uint64(mxb[:])
}

// scanOpt is one optimistic attempt appending to dst until out reaches
// length end; ok=false means a validation failed somewhere and the
// whole scan restarts (partial results are discarded — a node
// replacement may have moved keys the partial walk already passed — and
// the next attempt appends to dst again, over the same spare capacity).
func (t *Tree) scanOpt(lo, hi uint64, end int, dst []set.KV) ([]set.KV, bool) {
	out := dst
	var kb [8]byte // path bytes of the current frontier node
	// walk returns (continue, ok): continue=false stops the in-order
	// walk (limit reached); ok=false aborts the attempt.
	var walk func(n *node, depth int) (bool, bool)
	walk = func(n *node, depth int) (bool, bool) {
		vn, alive := n.rLock()
		if !alive {
			return false, false
		}
		copy(kb[depth:], n.prefix)
		d := depth + len(n.prefix)
		pairs := n.collect()
		// The validation pins pairs as n's child set (and n.prefix as
		// its path) at this instant; collect is race-free (atomics) even
		// against a concurrent locked writer, whose version bump then
		// fails this check.
		if !n.ver.validate(vn) {
			return false, false
		}
		for _, pr := range pairs {
			kb[d] = pr.b
			mn, mx := boundsAt(&kb, d+1)
			if mx < lo || mn > hi {
				continue // subtree disjoint from [lo, hi]
			}
			if pr.c.isLeaf() {
				// Leaves are immutable; membership was pinned above.
				if pr.c.k >= lo && pr.c.k <= hi {
					out = append(out, set.KV{Key: pr.c.k, Value: pr.c.v})
					if len(out) == end {
						return false, true
					}
				}
				continue
			}
			cont, ok := walk(pr.c, d+1)
			if !ok {
				return false, false
			}
			if !cont {
				return false, true
			}
		}
		return true, true
	}
	if _, ok := walk(t.root, 0); !ok {
		return dst, false
	}
	return out, true
}

// scanLocked is the pessimistic fallback: the walk holds write locks on
// the whole root-to-frontier path (writers lock strictly top-down, so
// coupling top-down here cannot deadlock), which blocks writers out of
// the scanned subtree but guarantees completion without restarts. Like
// scanOpt it appends to dst until out reaches length end.
func (t *Tree) scanLocked(lo, hi uint64, end int, dst []set.KV) []set.KV {
	out := dst
	var kb [8]byte
	var walk func(n *node, depth int) bool // caller holds n's lock
	walk = func(n *node, depth int) bool {
		copy(kb[depth:], n.prefix)
		d := depth + len(n.prefix)
		for _, pr := range n.collect() {
			kb[d] = pr.b
			mn, mx := boundsAt(&kb, d+1)
			if mx < lo || mn > hi {
				continue
			}
			if pr.c.isLeaf() {
				if pr.c.k >= lo && pr.c.k <= hi {
					out = append(out, set.KV{Key: pr.c.k, Value: pr.c.v})
					if len(out) == end {
						return false
					}
				}
				continue
			}
			// A locked node's children cannot be unlinked (that needs
			// this lock), so the child is safe to lock in turn.
			pr.c.ver.lock()
			cont := walk(pr.c, d+1)
			pr.c.ver.unlock()
			if !cont {
				return false
			}
		}
		return true
	}
	t.root.ver.lock()
	walk(t.root, 0)
	t.root.ver.unlock()
	return out
}
