package main

import "math/bits"

// Latency histogram: log-linear buckets with subBits bits of mantissa
// per power of two, so every bucket above 2^subBits ns is at most
// 1/2^subBits wide relative to its lower edge (0.8% at subBits = 7),
// an order of magnitude finer than the benchmark's tightest bound.
// Values below 2^subBits ns get one bucket each.
const (
	subBits  = 7
	subCount = 1 << subBits
	// maxExp covers durations up to 2^(maxExp+subBits) ns (~2.4 h).
	maxExp  = 36
	nBucket = (maxExp + 1) * subCount
)

// hist counts durations in nanoseconds. It is owned by one goroutine;
// merge after the owners finish.
type hist struct {
	counts [nBucket]uint64
	n      uint64
}

func bucketOf(v uint64) int {
	if v < subCount {
		return int(v)
	}
	e := bits.Len64(v) - 1 - subBits // v >> e lies in [subCount, 2*subCount)
	if e >= maxExp {
		return nBucket - 1
	}
	return (e+1)*subCount + int(v>>uint(e)) - subCount
}

// bucketMid returns the midpoint of bucket b's value range.
func bucketMid(b int) float64 {
	if b < subCount {
		return float64(b)
	}
	e := b/subCount - 1
	lo := uint64(subCount+b%subCount) << uint(e)
	return float64(lo) + float64(uint64(1)<<uint(e))/2
}

func (h *hist) add(ns int64) {
	if ns < 0 {
		ns = 0
	}
	h.counts[bucketOf(uint64(ns))]++
	h.n++
}

func (h *hist) merge(o *hist) {
	for i, c := range o.counts {
		h.counts[i] += c
	}
	h.n += o.n
}

// quantile returns the q-quantile (0 < q <= 1) as its bucket's midpoint,
// and 0 for an empty histogram.
func (h *hist) quantile(q float64) float64 {
	if h.n == 0 {
		return 0
	}
	rank := uint64(q * float64(h.n))
	if rank >= h.n {
		rank = h.n - 1
	}
	var seen uint64
	for b, c := range h.counts {
		seen += c
		if seen > rank {
			return bucketMid(b)
		}
	}
	return bucketMid(nBucket - 1)
}
