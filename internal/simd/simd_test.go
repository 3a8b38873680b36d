package simd

import (
	"encoding/binary"
	"math/bits"
	"math/rand"
	"testing"
)

// The byte-loop oracles every kernel result is compared against.

func find16Ref(keys *[16]byte, b byte, valid uint16) int {
	for i := 0; i < 16; i++ {
		if valid&(1<<i) != 0 && keys[i] == b {
			return i
		}
	}
	return -1
}

func match16Ref(keys *[16]byte, b byte) uint16 {
	var m uint16
	for i := 0; i < 16; i++ {
		if keys[i] == b {
			m |= 1 << i
		}
	}
	return m
}

func mismatchRef(a, b []byte) int {
	n := min(len(a), len(b))
	for i := 0; i < n; i++ {
		if a[i] != b[i] {
			return i
		}
	}
	return n
}

// words packs a 16-byte image into the (lo, hi) form the trees keep.
func words(keys *[16]byte) (lo, hi uint64) {
	return binary.LittleEndian.Uint64(keys[0:8]), binary.LittleEndian.Uint64(keys[8:16])
}

// find16 is the trees' search idiom: the first live lane of Match.
func find16(keys *[16]byte, b byte, valid uint16) int {
	lo, hi := words(keys)
	if m := Match(lo, hi, b) & valid; m != 0 {
		return bits.TrailingZeros16(m)
	}
	return -1
}

func checkFind16(t *testing.T, keys *[16]byte, b byte, valid uint16) {
	t.Helper()
	if got, want := find16(keys, b, valid), find16Ref(keys, b, valid); got != want {
		t.Fatalf("find16(%v, %#x, %#x) = %d, want %d", *keys, b, valid, got, want)
	}
	lo, hi := words(keys)
	if got, want := Match(lo, hi, b), match16Ref(keys, b); got != want {
		t.Fatalf("Match(%v, %#x) = %#x, want %#x", *keys, b, got, want)
	}
}

// TestMatchExhaustive places every byte value at every lane, against
// each neighbour filler, and searches for every byte value. The
// fillers 0x00/0x01/0x7f/0x80/0xff sit at the carry and borrow edges
// of byte-parallel arithmetic: a formula whose per-byte result leaks
// into the next byte reports a false match here.
func TestMatchExhaustive(t *testing.T) {
	for _, fill := range []byte{0x00, 0x01, 0x7f, 0x80, 0xff} {
		for lane := 0; lane < 16; lane++ {
			for v := 0; v < 256; v++ {
				var keys [16]byte
				for i := range keys {
					keys[i] = fill
				}
				keys[lane] = byte(v)
				lo, hi := words(&keys)
				for b := 0; b < 256; b++ {
					if got, want := Match(lo, hi, byte(b)), match16Ref(&keys, byte(b)); got != want {
						t.Fatalf("fill %#x, lane %d = %#x: Match(%#x) = %#x, want %#x", fill, lane, v, b, got, want)
					}
				}
			}
		}
	}
}

// TestWith sets every lane to every byte value over a random image:
// the target lane reads back as set and no other lane moves.
func TestWith(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for iter := 0; iter < 64; iter++ {
		var keys [16]byte
		rng.Read(keys[:])
		lo, hi := words(&keys)
		for lane := 0; lane < 16; lane++ {
			for v := 0; v < 256; v++ {
				want := keys
				want[lane] = byte(v)
				wlo, whi := words(&want)
				if glo, ghi := With(lo, hi, lane, byte(v)); glo != wlo || ghi != whi {
					t.Fatalf("With(%v, %d, %#x) = %#x %#x, want %#x %#x", keys, lane, v, glo, ghi, wlo, whi)
				}
			}
		}
	}
}

// TestFind16Positions: the target byte at every one of the 16 lanes,
// under the empty, full, target-excluding and random occupancy masks.
func TestFind16Positions(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for pos := 0; pos < 16; pos++ {
		var keys [16]byte
		for i := range keys {
			keys[i] = byte(0x20 + i) // distinct, != target
		}
		keys[pos] = 0xAB
		for _, valid := range []uint16{0, 0xFFFF, ^uint16(1 << pos), 1 << pos, uint16(rng.Intn(1 << 16))} {
			checkFind16(t, &keys, 0xAB, valid)
			checkFind16(t, &keys, 0xCD, valid) // absent byte
			checkFind16(t, &keys, keys[(pos+5)%16], valid)
		}
	}
}

// TestFind16Duplicates: the target byte in every pair of lanes (and in
// all lanes), with masks that knock out subsets of the duplicates —
// the search must return the lowest *valid* match, not the lowest match.
func TestFind16Duplicates(t *testing.T) {
	for lo := 0; lo < 16; lo++ {
		for hi := lo + 1; hi < 16; hi++ {
			var keys [16]byte
			for i := range keys {
				keys[i] = 0x11
			}
			keys[lo], keys[hi] = 0x77, 0x77
			for _, valid := range []uint16{0, 0xFFFF, ^uint16(1 << lo), ^uint16(1 << hi), ^(1<<lo | 1<<hi)} {
				checkFind16(t, &keys, 0x77, valid)
				checkFind16(t, &keys, 0x11, valid) // 14 duplicates
				checkFind16(t, &keys, 0x00, valid) // absent
			}
		}
	}
	var all [16]byte
	for i := range all {
		all[i] = 0xFE
	}
	for v := 0; v < 16; v++ {
		checkFind16(t, &all, 0xFE, 1<<v)
		checkFind16(t, &all, 0xFE, ^uint16(1<<v))
	}
}

// TestFind16ZeroBytes: the zero byte is a legal key byte and a likely
// stale-lane filler; make sure it is matched like any other.
func TestFind16ZeroBytes(t *testing.T) {
	var keys [16]byte // all zero
	for _, valid := range []uint16{0, 1, 0x8000, 0xFFFF, 0x00F0} {
		checkFind16(t, &keys, 0, valid)
		checkFind16(t, &keys, 1, valid)
	}
}

// TestFind16Random: randomized cross-check over byte distributions
// skewed to generate collisions.
func TestFind16Random(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for iter := 0; iter < 20000; iter++ {
		var keys [16]byte
		for i := range keys {
			keys[i] = byte(rng.Intn(8)) // heavy duplication
		}
		checkFind16(t, &keys, byte(rng.Intn(10)), uint16(rng.Intn(1<<16)))
	}
}

func checkMismatch(t *testing.T, a, b []byte) {
	t.Helper()
	if got, want := Mismatch(a, b), mismatchRef(a, b); got != want {
		t.Fatalf("Mismatch(len %d, len %d) = %d, want %d", len(a), len(b), got, want)
	}
}

// TestMismatchEveryIndex: for lengths spanning the byte and word
// regimes, plant a mismatch at every index (and none), at every
// alignment offset 0..15 into a shared backing array — unaligned tails
// and unaligned starts both covered.
func TestMismatchEveryIndex(t *testing.T) {
	lengths := []int{0, 1, 2, 3, 7, 8, 9, 15, 16, 17, 31, 32, 33, 63, 64, 65, 100, 127, 128, 130}
	for _, n := range lengths {
		for _, off := range []int{0, 1, 5, 15} {
			back1 := make([]byte, off+n)
			back2 := make([]byte, off+n)
			for i := range back1 {
				back1[i] = byte(i * 7)
				back2[i] = byte(i * 7)
			}
			a, b := back1[off:], back2[off:]
			checkMismatch(t, a, b) // identical: full common prefix
			for at := 0; at < n; at++ {
				b[at] ^= 0x80
				checkMismatch(t, a, b)
				checkMismatch(t, b, a)
				b[at] ^= 0x80
			}
		}
	}
}

// TestMismatchUnequalLengths: when one slice is a proper prefix of the
// other the answer is the shorter length, for every split point.
func TestMismatchUnequalLengths(t *testing.T) {
	base := make([]byte, 96)
	for i := range base {
		base[i] = byte(i)
	}
	for cut := 0; cut <= len(base); cut++ {
		checkMismatch(t, base[:cut], base)
		checkMismatch(t, base, base[:cut])
	}
	checkMismatch(t, nil, nil)
	checkMismatch(t, nil, base)
	checkMismatch(t, base, nil)
}

// TestMismatchRandom: randomized differential with random common
// prefix lengths and lengths straddling the word width.
func TestMismatchRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for iter := 0; iter < 5000; iter++ {
		n := rng.Intn(200)
		m := rng.Intn(200)
		a := make([]byte, n)
		b := make([]byte, m)
		common := rng.Intn(min(n, m) + 1)
		for i := 0; i < common; i++ {
			c := byte(rng.Intn(256))
			a[i], b[i] = c, c
		}
		for i := common; i < n; i++ {
			a[i] = byte(rng.Intn(256))
		}
		for i := common; i < m; i++ {
			b[i] = byte(rng.Intn(256))
		}
		checkMismatch(t, a, b)
	}
}

// TestMatch16MaskIteration pins the idiom the trees' getChild paths
// use: walking all candidate lanes of (Match & occ) via m &= m-1
// visits exactly the reference matches in ascending order.
func TestMatch16MaskIteration(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for iter := 0; iter < 2000; iter++ {
		var keys [16]byte
		for i := range keys {
			keys[i] = byte(rng.Intn(4))
		}
		b := byte(rng.Intn(4))
		occ := uint16(rng.Intn(1 << 16))
		lo, hi := words(&keys)
		var got []int
		for m := Match(lo, hi, b) & occ; m != 0; m &= m - 1 {
			got = append(got, bits.TrailingZeros16(m))
		}
		var want []int
		for i := 0; i < 16; i++ {
			if occ&(1<<i) != 0 && keys[i] == b {
				want = append(want, i)
			}
		}
		if len(got) != len(want) {
			t.Fatalf("mask iteration visited %v, want %v", got, want)
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("mask iteration visited %v, want %v", got, want)
			}
		}
	}
}

func FuzzMatch(f *testing.F) {
	f.Add(uint64(0x3736353433323130), uint64(0x6665646362613938), byte('a'), uint16(0xFFFF))
	f.Add(uint64(0), uint64(0), byte(0), uint16(0))
	f.Add(uint64(0x0100010001000100), uint64(0xff80ff7f00ff0001), byte(0), uint16(0xFFFF))
	f.Fuzz(func(t *testing.T, lo, hi uint64, b byte, valid uint16) {
		var keys [16]byte
		binary.LittleEndian.PutUint64(keys[0:8], lo)
		binary.LittleEndian.PutUint64(keys[8:16], hi)
		if got, want := Match(lo, hi, b), match16Ref(&keys, b); got != want {
			t.Fatalf("Match(%#x, %#x, %#x) = %#x, want %#x", lo, hi, b, got, want)
		}
		if got, want := find16(&keys, b, valid), find16Ref(&keys, b, valid); got != want {
			t.Fatalf("find16 = %d, want %d", got, want)
		}
	})
}

func FuzzMismatch(f *testing.F) {
	f.Add([]byte{}, []byte{})
	f.Add([]byte("abc"), []byte("abd"))
	f.Add(make([]byte, 100), make([]byte, 99))
	f.Fuzz(func(t *testing.T, a, b []byte) {
		if got, want := Mismatch(a, b), mismatchRef(a, b); got != want {
			t.Fatalf("Mismatch = %d, want %d", got, want)
		}
	})
}
