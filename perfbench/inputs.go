package main

import "math"

// The benchmark generates every input itself from the --seed argument,
// so the program under test only ever sees keys, values and op kinds.

// rng is splitmix64: one add and a finalizer per draw.
type rng struct{ s uint64 }

func mix(z uint64) uint64 {
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

func (r *rng) next() uint64 {
	r.s += 0x9e3779b97f4a7c15
	return mix(r.s)
}

// float returns a uniform draw from [0, 1).
func (r *rng) float() float64 { return float64(r.next()>>11) / (1 << 53) }

// zipf draws ranks in [0, n) with P(rank i) proportional to 1/(i+1)^theta
// (Gray et al., "Quickly generating billion-record synthetic databases",
// the generator YCSB uses): one Pow per draw after an O(n) set-up.
type zipf struct {
	n, theta, alpha, zetan, eta, half float64
}

func newZipf(n uint64, theta float64) *zipf {
	zetan := 0.0
	for i := uint64(1); i <= n; i++ {
		zetan += 1 / math.Pow(float64(i), theta)
	}
	zeta2 := 1 + math.Pow(0.5, theta)
	return &zipf{
		n: float64(n), theta: theta, alpha: 1 / (1 - theta), zetan: zetan,
		eta:  (1 - math.Pow(2/float64(n), 1-theta)) / (1 - zeta2/zetan),
		half: zeta2,
	}
}

func (z *zipf) rank(u float64) uint64 {
	uz := u * z.zetan
	if uz < 1 {
		return 0
	}
	if uz < z.half {
		return 1
	}
	r := uint64(z.n * math.Pow(z.eta*u-z.eta+1, z.alpha))
	if r >= uint64(z.n) {
		r = uint64(z.n) - 1
	}
	return r
}

// perm is a seeded bijection on [0, 2^bits): it scatters zipf ranks over
// the key space, so the seed decides which keys are hot.
type perm struct {
	mask, a, b uint64
	shift      uint
}

func newPerm(bits uint, seed uint64) perm {
	return perm{mask: 1<<bits - 1, a: mix(seed) | 1, b: mix(seed+1) | 1, shift: bits / 2}
}

func (p perm) of(x uint64) uint64 {
	x = (x * p.a) & p.mask
	x ^= x >> p.shift
	x = (x * p.b) & p.mask
	return x ^ x>>p.shift
}

// shuffled returns 0..n-1 in a seeded random order (the prefill order;
// inserting sorted keys would degenerate the unbalanced trees).
func shuffled(n uint64, seed uint64) []uint32 {
	out := make([]uint32, n)
	for i := range out {
		out[i] = uint32(i)
	}
	r := rng{s: seed}
	for i := len(out) - 1; i > 0; i-- {
		j := r.next() % uint64(i+1)
		out[i], out[j] = out[j], out[i]
	}
	return out
}
