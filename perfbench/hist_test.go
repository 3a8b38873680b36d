package main

import (
	"math"
	"testing"
)

func TestBucketResolution(t *testing.T) {
	prev := -1
	for _, v := range []uint64{0, 1, 127, 128, 129, 255, 256, 1000, 12345, 1e6, 1e9, 1e12} {
		b := bucketOf(v)
		if b < prev {
			t.Fatalf("bucketOf not monotonic at %d", v)
		}
		prev = b
		mid := bucketMid(b)
		if v >= subCount && math.Abs(mid-float64(v))/float64(v) > 1.0/subCount {
			t.Fatalf("value %d lands in bucket %d with midpoint %.1f: error above 1/%d", v, b, mid, subCount)
		}
	}
}

func TestQuantile(t *testing.T) {
	var h hist
	for i := 1; i <= 1000; i++ {
		h.add(int64(i * 1000))
	}
	for _, c := range []struct{ q, want float64 }{{0.5, 500e3}, {0.99, 990e3}} {
		got := h.quantile(c.q)
		if math.Abs(got-c.want)/c.want > 0.01 {
			t.Fatalf("quantile(%v) = %v, want about %v", c.q, got, c.want)
		}
	}
	var empty hist
	if empty.quantile(0.5) != 0 {
		t.Fatal("empty histogram quantile should be 0")
	}
}
