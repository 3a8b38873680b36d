// Package artnode holds what the repository's two concurrent Adaptive
// Radix Trees share about node kinds: the flock arttree (cells are
// flock.Mutable, updated inside thunks) and the olcart baseline (plain
// atomics under an optimistic version lock). Each tree keeps its own
// node struct and child accessors; the kind ladder, the hysteresis, the
// (byte, child) pairs a grow, shrink or split rebuilds from, and the
// quiesced check of a Node4/Node16's packed key image are the same in
// both and live here (DESIGN.md S15).
package artnode

import (
	"encoding/binary"
	"fmt"

	"flock/internal/simd"
)

// Node kinds.
const (
	Leaf = uint8(iota)
	N4
	N16
	N48
	N256
)

// Cap returns an inner node kind's child capacity.
func Cap(kind uint8) int {
	switch kind {
	case N4:
		return 4
	case N16:
		return 16
	case N48:
		return 48
	default:
		return 256
	}
}

// Name returns kind's name for panics and invariant errors.
func Name(kind uint8) string {
	switch kind {
	case Leaf:
		return "leaf"
	case N4:
		return "node4"
	case N16:
		return "node16"
	case N48:
		return "node48"
	default:
		return "node256"
	}
}

// KindFor returns the smallest inner kind that holds n children.
func KindFor(n int) uint8 {
	switch {
	case n > 48:
		return N256
	case n > 16:
		return N48
	case n > 4:
		return N16
	default:
		return N4
	}
}

// ShrinkThreshold returns the occupancy at which a node collapses to a
// smaller kind (standard ART hysteresis).
func ShrinkThreshold(kind uint8) int {
	switch kind {
	case N16:
		return 3
	case N48:
		return 12
	case N256:
		return 40
	default:
		return 1 // N4 only compresses away at a single child
	}
}

// KeyBytes returns k's big-endian bytes, the path a key takes.
func KeyBytes(k uint64) [8]byte {
	var b [8]byte
	binary.BigEndian.PutUint64(b[:], k)
	return b
}

// Pair is a collected (branch byte, child) entry.
type Pair[N any] struct {
	B byte
	C N
}

// SortedPairs returns a and b in byte order.
func SortedPairs[N any](a, b Pair[N]) []Pair[N] {
	if a.B > b.B {
		a, b = b, a
	}
	return []Pair[N]{a, b}
}

// Without drops the pair for byte b, in place.
func Without[N any](pairs []Pair[N], b byte) []Pair[N] {
	out := pairs[:0]
	for _, pr := range pairs {
		if pr.B != b {
			out = append(out, pr)
		}
	}
	return out
}

// SortByByte orders a Node4/Node16's pairs, collected in slot order
// (insertion order), by byte. It is an insertion sort: at most 16.
func SortByByte[N any](pairs []Pair[N]) {
	for i := 1; i < len(pairs); i++ {
		for j := i; j > 0 && pairs[j-1].B > pairs[j].B; j-- {
			pairs[j-1], pairs[j] = pairs[j], pairs[j-1]
		}
	}
}

// CheckPacked verifies, on a quiesced Node4/Node16, that the packed key
// image (lo, hi, occ) mirrors its slots exactly: every live slot's lane
// holds its byte with the occupancy bit set, and occ has no other bit.
// slot(i) returns slot i's byte and whether it is live.
func CheckPacked(kind uint8, lo, hi uint64, occ uint16, slot func(i int) (byte, bool)) error {
	var live uint16
	for i := 0; i < Cap(kind); i++ {
		b, ok := slot(i)
		if !ok {
			continue
		}
		live |= 1 << i
		if occ&(1<<i) == 0 {
			return fmt.Errorf("%s lane %d live but packed bit clear", Name(kind), i)
		}
		if simd.Match(lo, hi, b)&(1<<i) == 0 {
			return fmt.Errorf("%s lane %d packed image %#x:%#x misses slot byte %#x", Name(kind), i, hi, lo, b)
		}
	}
	if occ != live {
		return fmt.Errorf("%s packed occ %#x != slot occupancy %#x", Name(kind), occ, live)
	}
	return nil
}
