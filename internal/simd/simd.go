// Package simd is the ART trees' node search: an exact SWAR ("SIMD within a
// register") byte match over a key image of two words, lane i at byte i&7 of word i>>3.
package simd

import (
	"encoding/binary"
	"math/bits"
)

// Match sets bit i iff lane i of (lo, hi) is b; callers AND out stale lanes.
func Match(lo, hi uint64, b byte) uint16 { return uint16(match8(lo, b) | match8(hi, b)<<8) }

// match8 is Match on one word. x&low7 + low7 cannot carry across bytes: no false match.
func match8(w uint64, b byte) uint64 {
	const ones, low7 = 0x0101010101010101, 0x7f7f7f7f7f7f7f7f
	x := w ^ uint64(b)*ones
	y := ^((x&low7 + low7) | x | low7)         // bit 7 of a byte set iff that byte of x is 0
	return (y >> 7) * 0x0102040810204080 >> 56 // gathers bit 8k into bit 56+k
}

// With returns (lo, hi) with lane i set to b.
func With(lo, hi uint64, i int, b byte) (uint64, uint64) {
	w := [2]uint64{lo, hi}
	w[i>>3] = w[i>>3]&^(0xff<<(i&7*8)) | uint64(b)<<(i&7*8)
	return w[0], w[1]
}

// Mismatch returns the length of the longest common prefix of a and b.
func Mismatch(a, b []byte) int {
	n, i := min(len(a), len(b)), 0
	for ; i+8 <= n; i += 8 {
		if x := binary.LittleEndian.Uint64(a[i:]) ^ binary.LittleEndian.Uint64(b[i:]); x != 0 {
			return i + bits.TrailingZeros64(x)>>3
		}
	}
	for i < n && a[i] == b[i] {
		i++
	}
	return i
}
