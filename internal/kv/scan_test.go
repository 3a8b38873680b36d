package kv_test

import (
	"math"
	"runtime"
	"sync"
	"testing"
	"time"

	flock "flock/internal/core"
	"flock/internal/kv"
	"flock/internal/structures/set"
)

// storeKinds are the two read protocols: plain (New) and validated
// (NewComposed).
var storeKinds = []struct {
	name  string
	build func(kv.Factory, kv.Options) *kv.Store
}{
	{"plain", kv.New},
	{"composed", kv.NewComposed},
}

// TestAllocsScan pins a top-level limit-16 Scan on an 8-shard store at
// one allocation, its result: every shard's run reuses the client's
// buffer from the previous scan, the merge keeps its cursors on the
// stack and the whole-store shard group is built once per store.
func TestAllocsScan(t *testing.T) {
	for _, kind := range storeKinds {
		for _, blocking := range []bool{false, true} {
			st := kind.build(leaftreeFactory, kv.Options{Shards: 8, Blocking: blocking})
			c := st.Register()
			for k := uint64(1); k <= 1024; k++ {
				c.Put(k, k)
			}
			lo := uint64(1)
			scan := func() {
				if got := c.Scan(lo, math.MaxUint64, 16); len(got) != 16 || got[0].Key != lo {
					t.Fatalf("%s blocking=%v: Scan(%d, max, 16) = %v", kind.name, blocking, lo, got)
				}
				lo = lo%900 + 37
			}
			scan() // warm-up: the runs grow to the limit once
			if n := testing.AllocsPerRun(200, scan); n != 1 {
				t.Errorf("%s blocking=%v: limit-16 Scan allocates %v per op, want 1 (the result)", kind.name, blocking, n)
			}
			c.Close()
		}
	}
}

// TestAllocsMultiGet pins a validated MultiGet at two allocations, its
// two results. The key-to-shard map, the planner bitmap and the shard
// group are client scratch: the optimistic arm runs at top level and
// publishes none of them into a descriptor.
func TestAllocsMultiGet(t *testing.T) {
	st := kv.NewComposed(leaftreeFactory, kv.Options{Shards: 8})
	c := st.Register()
	defer c.Close()
	for k := uint64(1); k <= 64; k++ {
		c.Put(k, k)
	}
	keys := []uint64{3, 17, 40, 58}
	c.MultiGet(keys) // warm-up: the key-to-shard map and the group grow once
	if n := testing.AllocsPerRun(200, func() { c.MultiGet(keys) }); n != 2 {
		t.Fatalf("validated MultiGet allocates %v per op, want 2", n)
	}
}

// checkScan fails t unless got is exactly the pairs (k, val(k)) for the
// keys want, in order.
func checkScan(t *testing.T, what string, got []set.KV, want []uint64, val func(uint64) uint64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d pairs %v, want keys %v", what, len(got), got, want)
	}
	for i, k := range want {
		if got[i] != (set.KV{Key: k, Value: val(k)}) {
			t.Fatalf("%s: pair %d = %v, want {%d %d}", what, i, got[i], k, val(k))
		}
	}
}

func keyRange(lo, hi uint64) []uint64 {
	var out []uint64
	for k := lo; k <= hi; k++ {
		out = append(out, k)
	}
	return out
}

// TestScanResultDoesNotAlias pins that a Scan's result is the caller's
// own: the client's per-shard run buffers are reused by the next scan,
// so a result that aliased one would change under it, and writing into
// a result would corrupt the next scan. It covers a 1-shard store (one
// run, the merge's single-run path), one non-empty run among eight, and
// both store kinds.
func TestScanResultDoesNotAlias(t *testing.T) {
	id := func(k uint64) uint64 { return k * 10 }
	for _, kind := range storeKinds {
		for _, shards := range []int{1, 8} {
			st := kind.build(leaftreeFactory, kv.Options{Shards: shards})
			c := st.Register()
			for k := uint64(1); k <= 200; k++ {
				c.Put(k, id(k))
			}
			what := func(s string) string { return kind.name + " " + s }
			first := c.Scan(10, 29, -1)
			checkScan(t, what("first"), first, keyRange(10, 29), id)
			for i := range first {
				first[i] = set.KV{Key: 1 << 60, Value: 7} // the caller owns it
			}
			second := c.Scan(10, 29, -1)
			checkScan(t, what("after mutating the first result"), second, keyRange(10, 29), id)
			third := c.Scan(100, 150, 5)
			checkScan(t, what("third"), third, keyRange(100, 104), id)
			checkScan(t, what("second, after a third scan"), second, keyRange(10, 29), id)

			// One non-empty run: the only key of [lo, hi] in any shard.
			one := c.Scan(77, 77, -1)
			checkScan(t, what("single run"), one, []uint64{77}, id)
			one[0].Value = 0
			checkScan(t, what("single run again"), c.Scan(77, 77, -1), []uint64{77}, id)
			c.Close()
		}
	}
}

// TestScanReReadOverwritesOwnRun parks a blocking writer inside shard
// 0's lock of a composed store while a client scans the whole store:
// every other shard's run validates in the first round and shard 0's is
// re-read after the writer releases. The result must hold the written
// value and every other shard's pairs, so the re-read replaced only its
// own shard's run, and the client's earlier result must be unchanged.
func TestScanReReadOverwritesOwnRun(t *testing.T) {
	st := kv.NewComposed(leaftreeFactory, kv.Options{Shards: 4, Blocking: true})
	c := st.Register()
	defer c.Close()
	const n = 64
	for k := uint64(1); k <= n; k++ {
		c.Put(k, k)
	}
	key := uint64(1)
	for st.ShardOf(key) != 0 {
		key++
	}
	before := c.Scan(0, math.MaxUint64, -1)
	checkScan(t, "before", before, keyRange(1, n), func(k uint64) uint64 { return k })

	locked, release, done := make(chan struct{}), make(chan struct{}), make(chan struct{})
	unpark := sync.OnceFunc(func() { close(release) })
	defer unpark()
	go func() {
		defer close(done)
		wc := st.Register()
		defer wc.Close()
		st.Engine().Nest(wc.Proc(), []int{0}, func(hp *flock.Proc) {
			st.ShardPutAt(0, hp, set.Position{}, key, 1000)
			close(locked)
			<-release
		})
	}()
	<-locked
	got := make(chan []set.KV, 1)
	go func() { got <- c.Scan(0, math.MaxUint64, -1) }()
	deadline := time.Now().Add(10 * time.Second)
	for r, _ := st.OptimisticStats(); r == 0; r, _ = st.OptimisticStats() {
		if time.Now().After(deadline) {
			t.Fatal("the scan never found shard 0's lock held")
		}
		runtime.Gosched()
	}
	unpark()
	<-done
	var after []set.KV
	select {
	case after = <-got:
	case <-time.After(10 * time.Second):
		t.Fatal("the scan still waits 10s after the writer released")
	}
	checkScan(t, "after the re-read", after, keyRange(1, n), func(k uint64) uint64 {
		if k == key {
			return 1000
		}
		return k
	})
	checkScan(t, "before, after the next scan", before, keyRange(1, n), func(k uint64) uint64 { return k })
}
