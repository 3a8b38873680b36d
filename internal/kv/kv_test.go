package kv_test

import (
	"math"
	"sort"
	"sync"
	"testing"

	flock "flock/internal/core"
	"flock/internal/kv"
	"flock/internal/kv/kvtest"
	"flock/internal/obs"
	"flock/internal/structures/hashtable"
	"flock/internal/structures/lazylist"
	"flock/internal/structures/leaftree"
	"flock/internal/structures/set"
	"flock/internal/txn"
	"flock/internal/workload"
)

func leaftreeFactory(rt *flock.Runtime, _ uint64) set.Set  { return leaftree.New(rt) }
func hashtableFactory(rt *flock.Runtime, r uint64) set.Set { return hashtable.New(rt, int(r)) }
func lazylistFactory(rt *flock.Runtime, _ uint64) set.Set  { return lazylist.New(rt) }

// The two native-upsert structures get the full conformance suite,
// including the atomicity-dependent passes.
func TestConformanceLeaftree(t *testing.T)  { kvtest.Run(t, leaftreeFactory) }
func TestConformanceHashtable(t *testing.T) { kvtest.Run(t, hashtableFactory) }

// lazylist has no native upsert: it exercises the delete-then-insert
// fallback (the suite automatically skips the atomicity passes).
func TestConformanceLazylistFallback(t *testing.T) {
	if testing.Short() {
		t.Skip("lazylist fallback conformance is slow (O(n) lists); covered by the full run")
	}
	kvtest.Run(t, lazylistFactory)
}

func TestNativeUpsertDetection(t *testing.T) {
	if !kv.New(leaftreeFactory, kv.Options{Shards: 2}).NativeUpsert() {
		t.Fatalf("leaftree store should report native upsert")
	}
	if !kv.New(hashtableFactory, kv.Options{Shards: 2}).NativeUpsert() {
		t.Fatalf("hashtable store should report native upsert")
	}
	if kv.New(lazylistFactory, kv.Options{Shards: 2}).NativeUpsert() {
		t.Fatalf("lazylist store should report fallback upsert")
	}
}

func TestShardRouting(t *testing.T) {
	st := kv.New(leaftreeFactory, kv.Options{Shards: 8, KeyRange: 1024})
	if st.NumShards() != 8 {
		t.Fatalf("NumShards = %d, want 8", st.NumShards())
	}
	counts := make([]int, 8)
	for k := uint64(1); k <= 4096; k++ {
		s := st.ShardOf(k)
		if s < 0 || s >= 8 {
			t.Fatalf("key %d routed to out-of-range shard %d", k, s)
		}
		if s != st.ShardOf(k) {
			t.Fatalf("routing not deterministic for key %d", k)
		}
		counts[s]++
	}
	// Hash routing must spread keys roughly evenly (512 expected).
	for s, n := range counts {
		if n < 350 || n > 700 {
			t.Fatalf("shard %d holds %d of 4096 keys; routing badly skewed", s, n)
		}
	}
}

// TestShardRoutingDecorrelatedFromKeyHash guards the bucket-starvation
// trap: hashtable buckets index by Hash64(k) & mask, so if routing used
// the same unsalted hash, all keys in one shard would share their low
// Hash64 bits and reach only 1/shards of each shard's buckets.
func TestShardRoutingDecorrelatedFromKeyHash(t *testing.T) {
	st := kv.New(hashtableFactory, kv.Options{Shards: 8, KeyRange: 4096})
	const lowBits = 6 // well within any per-shard bucket mask
	seen := map[uint64]bool{}
	for k := uint64(1); k <= 8192; k++ {
		if st.ShardOf(k) == 0 {
			seen[workload.Hash64(k)&(1<<lowBits-1)] = true
		}
	}
	// Keys routed to one shard must still cover (essentially) all low
	// bucket-hash bit patterns.
	if len(seen) < 60 {
		t.Fatalf("shard 0's keys cover only %d/64 low bucket-hash patterns; routing correlated with key hash", len(seen))
	}
}

func TestShardsDefaultToOne(t *testing.T) {
	for _, shards := range []int{0, -3} {
		st := kv.New(leaftreeFactory, kv.Options{Shards: shards})
		if st.NumShards() != 1 {
			t.Fatalf("Shards=%d built %d shards, want 1", shards, st.NumShards())
		}
	}
}

// TestUnshardedControlAgrees runs the same deterministic script against
// an 8-shard store and the unsharded control; both must produce
// identical answers for every operation.
func TestUnshardedControlAgrees(t *testing.T) {
	a := kv.New(leaftreeFactory, kv.Options{Shards: 8, KeyRange: 512}).Register()
	b := kv.New(leaftreeFactory, kv.Options{Shards: 1, KeyRange: 512}).Register()
	defer a.Close()
	defer b.Close()
	rng := workload.NewSplitMix64(5)
	for i := 0; i < 3000; i++ {
		k := rng.Next()%256 + 1
		switch rng.Next() % 4 {
		case 0:
			v := rng.Next()
			if x, y := a.Put(k, v), b.Put(k, v); x != y {
				t.Fatalf("op %d: Put(%d) sharded=%v unsharded=%v", i, k, x, y)
			}
		case 1:
			if x, y := a.Delete(k), b.Delete(k); x != y {
				t.Fatalf("op %d: Delete(%d) sharded=%v unsharded=%v", i, k, x, y)
			}
		case 2:
			av, aok := a.Get(k)
			bv, bok := b.Get(k)
			if av != bv || aok != bok {
				t.Fatalf("op %d: Get(%d) sharded=(%d,%v) unsharded=(%d,%v)", i, k, av, aok, bv, bok)
			}
		case 3:
			f := func(o uint64, _ bool) uint64 { return o*3 + 1 }
			ao, ap := a.ReadModifyWrite(k, f)
			bo, bp := b.ReadModifyWrite(k, f)
			if ao != bo || ap != bp {
				t.Fatalf("op %d: RMW(%d) sharded=(%d,%v) unsharded=(%d,%v)", i, k, ao, ap, bo, bp)
			}
		}
	}
}

// TestScanModelAcrossShards drives random puts/deletes/scans against an
// 8-shard store (plain, and composed as txn builds it) and compares
// every scan exactly against a map model: hash routing scatters each
// interval over all shards, so this exercises the scatter-gather merge
// end to end. Sequentially a scan must be an exact snapshot.
func TestScanModelAcrossShards(t *testing.T) {
	for composed, mk := range []func(kv.Factory, kv.Options) *kv.Store{kv.New, kv.NewComposed} {
		c := mk(leaftreeFactory, kv.Options{Shards: 8, KeyRange: 512}).Register()
		model := map[uint64]uint64{}
		rng := workload.NewSplitMix64(17)
		for i := 0; i < 2500; i++ {
			switch rng.Next() % 4 {
			case 0, 1:
				k, v := rng.Next()%256+1, rng.Next()
				c.Put(k, v)
				model[k] = v
			case 2:
				k := rng.Next()%256 + 1
				c.Delete(k)
				delete(model, k)
			default:
				lo := rng.Next() % 300
				hi := lo + rng.Next()%300
				limit := -1
				if rng.Next()%2 == 0 {
					limit = int(rng.Next()%20) + 1
				}
				got := c.Scan(lo, hi, limit)
				var want []set.KV
				for k, v := range model {
					if k >= lo && k <= hi {
						want = append(want, set.KV{Key: k, Value: v})
					}
				}
				sort.Slice(want, func(a, b int) bool { return want[a].Key < want[b].Key })
				if limit > 0 && len(want) > limit {
					want = want[:limit]
				}
				if len(got) != len(want) {
					t.Fatalf("composed=%d op %d: Scan(%d,%d,%d) = %d pairs, want %d", composed, i, lo, hi, limit, len(got), len(want))
				}
				for j := range got {
					if got[j] != want[j] {
						t.Fatalf("composed=%d op %d: Scan(%d,%d,%d)[%d] = %v, want %v", composed, i, lo, hi, limit, j, got[j], want[j])
					}
				}
			}
		}
		c.Close()
	}
}

// TestScanSentinelBoundsAndLimit pins the open-interval sentinels and
// the cross-shard merge order: with keys scattered over 8 shards, a
// limited full-range scan must return the globally smallest keys.
func TestScanSentinelBoundsAndLimit(t *testing.T) {
	c := kv.New(leaftreeFactory, kv.Options{Shards: 8, KeyRange: 256}).Register()
	defer c.Close()
	for k := uint64(1); k <= 100; k++ {
		c.Put(k, k*3)
	}
	got := c.Scan(0, math.MaxUint64, -1)
	if len(got) != 100 {
		t.Fatalf("full scan returned %d pairs, want 100", len(got))
	}
	for i, kv := range got {
		if kv.Key != uint64(i+1) || kv.Value != uint64(i+1)*3 {
			t.Fatalf("full scan[%d] = %v, want key %d", i, kv, i+1)
		}
	}
	ten := c.Scan(0, math.MaxUint64, 10)
	if len(ten) != 10 || ten[0].Key != 1 || ten[9].Key != 10 {
		t.Fatalf("limit-10 scan = %v, want keys 1..10 in order", ten)
	}
	if sub := c.Scan(40, 49, -1); len(sub) != 10 || sub[0].Key != 40 || sub[9].Key != 49 {
		t.Fatalf("sub-range scan = %v, want keys 40..49", sub)
	}
}

// TestScannableDetection: structures with a Scan report Scannable
// (including hashtable, whose sorted bucket sweep implements it);
// structures without one report false and Scan panics.
func TestScannableDetection(t *testing.T) {
	if !kv.New(leaftreeFactory, kv.Options{Shards: 2}).Scannable() {
		t.Fatalf("leaftree store should be scannable")
	}
	if !kv.New(hashtableFactory, kv.Options{Shards: 2}).Scannable() {
		t.Fatalf("hashtable store should be scannable")
	}
	// A capability-stripped wrapper: the embedded interface exposes only
	// set.Set, so the store must detect the missing Scanner.
	bare := func(rt *flock.Runtime, keyRange uint64) set.Set {
		return struct{ set.Set }{leaftree.New(rt)}
	}
	st := kv.New(bare, kv.Options{Shards: 2})
	if st.Scannable() {
		t.Fatalf("capability-stripped store should not be scannable")
	}
	c := st.Register()
	defer c.Close()
	defer func() {
		if recover() == nil {
			t.Fatalf("Scan on a non-scannable store did not panic")
		}
	}()
	c.Scan(1, 10, -1)
}

// TestScanSerializesWithTransactions is the composed-store atomicity
// check: on a txn store a scan validates every shard lock's version
// around its per-shard reads, so concurrent multi-shard Transfers can
// never tear it — every full scan of the account pool must see the
// conserved total balance.
func TestScanSerializesWithTransactions(t *testing.T) {
	const accounts = 64
	const initial = 100
	st := txn.New(leaftreeFactory, txn.Options{Shards: 4, KeyRange: accounts})
	seed := st.KV().Register()
	for k := uint64(1); k <= accounts; k++ {
		seed.Put(k, initial)
	}
	seed.Close()

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			c := st.Register()
			defer c.Close()
			rng := workload.NewSplitMix64(uint64(w)*77 + 1)
			for {
				select {
				case <-stop:
					return
				default:
				}
				a := rng.Next()%accounts + 1
				b := rng.Next()%accounts + 1
				c.Transfer(a, b, rng.Next()%5)
			}
		}(w)
	}

	scanner := st.KV().Register()
	for i := 0; i < 300; i++ {
		got := scanner.Scan(0, math.MaxUint64, -1)
		if len(got) != accounts {
			t.Errorf("scan %d saw %d accounts, want %d", i, len(got), accounts)
			break
		}
		var sum uint64
		for _, kv := range got {
			sum += kv.Value
		}
		if sum != accounts*initial {
			t.Errorf("scan %d saw torn total %d, want %d", i, sum, accounts*initial)
			break
		}
	}
	scanner.Close()
	close(stop)
	wg.Wait()
}

func TestPutBatchLengthMismatchPanics(t *testing.T) {
	c := kv.New(leaftreeFactory, kv.Options{Shards: 2}).Register()
	defer c.Close()
	defer func() {
		if recover() == nil {
			t.Fatalf("PutBatch with mismatched lengths did not panic")
		}
	}()
	c.PutBatch([]uint64{1, 2}, []uint64{1})
}

// TestAllocsBatch pins GetBatch on a plain store at two allocations,
// its two result slices, for a batch that spans several shards.
func TestAllocsBatch(t *testing.T) {
	st := kv.New(leaftreeFactory, kv.Options{Shards: 8})
	c := st.Register()
	defer c.Close()
	for k := uint64(1); k <= 64; k++ {
		c.Put(k, k)
	}
	keys := []uint64{3, 17, 40, 58, 99}
	if n := testing.AllocsPerRun(200, func() { c.GetBatch(keys) }); n != 2 {
		t.Fatalf("GetBatch allocates %v per op, want 2 (vals and oks)", n)
	}
}

// TestMetricsShardOpsFoldOnClose pins the per-shard op accounting
// (DESIGN.md S14): client-local counts accrue only while obs is
// enabled, fold into the store's atomics on Close, and skew toward the
// shards the keys actually route to.
func TestMetricsShardOpsFoldOnClose(t *testing.T) {
	prev := obs.Enabled()
	obs.SetEnabled(true)
	defer obs.SetEnabled(prev)

	st := kv.New(leaftreeFactory, kv.Options{Shards: 4, KeyRange: 1 << 10})
	base := st.ShardOps()

	c := st.Register()
	var want [4]uint64
	for k := uint64(0); k < 200; k++ {
		c.Put(k, k)
		c.Get(k)
		want[st.ShardOf(k)] += 2
	}
	// Counts are client-local until Close: the store must not have
	// moved yet (the fold is what keeps the hot path contention-free).
	mid := st.ShardOps()
	for i := range mid {
		if mid[i] != base[i] {
			t.Fatalf("shard %d ops folded before Close: %d -> %d", i, base[i], mid[i])
		}
	}
	c.Close()

	after := st.ShardOps()
	for i := range after {
		if got := after[i] - base[i]; got != want[i] {
			t.Errorf("shard %d ops = %d, want %d", i, got, want[i])
		}
	}

	// With obs disabled, a client's ops must not accrue at all.
	obs.SetEnabled(false)
	c2 := st.Register()
	for k := uint64(0); k < 100; k++ {
		c2.Get(k)
	}
	c2.Close()
	obs.SetEnabled(true)
	final := st.ShardOps()
	for i := range final {
		if final[i] != after[i] {
			t.Errorf("shard %d ops moved while disabled: %d -> %d", i, after[i], final[i])
		}
	}
}
