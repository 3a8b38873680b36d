package bench

import (
	"testing"

	"flock/internal/baseline/olcart"
	flock "flock/internal/core"
	"flock/internal/simd"
	"flock/internal/structures/arttree"
	"flock/internal/structures/set"
)

// The node-search benchmarks time the SWAR kernel alone and the Find
// path of both ART trees over a full Node16 root.

var (
	sinkInt int
	sinkU16 uint16
)

// BenchmarkNodeSearchMatch times one 16-lane match over a packed key
// image. The match is branch-free: a hit and a miss cost the same.
func BenchmarkNodeSearchMatch(b *testing.B) {
	lo, hi := uint64(0x4746454443424140), uint64(0x4f4e4d4c4b4a4948)
	var acc uint16
	for i := 0; i < b.N; i++ {
		acc ^= simd.Match(lo, hi, byte(0x40+i&15))
	}
	sinkU16 = acc
}

// nodeSearchTree measures the end-to-end Find path on a tree whose root
// is a full Node16: 16 top-byte branches times 4 leaves per branch.
func nodeSearchTree(b *testing.B, s set.Set, p *flock.Proc) {
	b.Helper()
	keys := make([]uint64, 0, 64)
	for br := 0; br < 16; br++ {
		for j := 1; j <= 4; j++ {
			k := uint64(br)<<56 | uint64(j)
			if !s.Insert(p, k, k+1) {
				b.Fatalf("prefill Insert(%#x) failed", k)
			}
			keys = append(keys, k)
		}
	}
	b.ResetTimer()
	acc := 0
	for i := 0; i < b.N; i++ {
		k := keys[i&63]
		if _, ok := s.Find(p, k); ok {
			acc++
		}
	}
	sinkInt = acc
}

func BenchmarkNodeSearchTree(b *testing.B) {
	b.Run("arttree", func(b *testing.B) {
		rt := flock.New()
		p := rt.Register()
		defer p.Unregister()
		nodeSearchTree(b, arttree.New(rt), p)
	})
	b.Run("olcart", func(b *testing.B) {
		rt := flock.New()
		p := rt.Register()
		defer p.Unregister()
		nodeSearchTree(b, olcart.New(), p)
	})
}

// TestNodeSearchZeroAlloc pins the acceptance criterion that the simd
// entry points allocate nothing: Mismatch must not box its slices.
func TestNodeSearchZeroAlloc(t *testing.T) {
	x := make([]byte, 256)
	y := make([]byte, 256)
	checks := []struct {
		name string
		fn   func()
	}{
		{"Match", func() { sinkU16 = simd.Match(0x0706050403020100, 0x0f0e0d0c0b0a0908, 7) }},
		{"Mismatch", func() { sinkInt = simd.Mismatch(x, y) }},
	}
	for _, c := range checks {
		if n := testing.AllocsPerRun(1000, c.fn); n != 0 {
			t.Errorf("%s: %v allocs/op, want 0", c.name, n)
		}
	}
}
