package kv_test

import (
	"math"
	"runtime"
	"sync"
	"testing"
	"time"

	"flock/internal/kv"
	"flock/internal/structures/set"
	"flock/internal/txn"
	"flock/internal/workload"

	flock "flock/internal/core"
)

// TestOptimisticCapabilityGate pins what selects the validated read
// arm: the store kind alone, with no option to set and no structure
// capability to consult. On each structure, the unordered hashtable
// included, a writer parks inside shard 0's lock in blocking mode, where
// no reader can help it. A store built by New answers Get, MultiGet and
// Scan while the lock is held and restarts nothing; one built by
// NewComposed restarts those reads until the holder releases, then
// returns the written value.
func TestOptimisticCapabilityGate(t *testing.T) {
	const key = 42
	for _, tc := range []struct {
		name string
		f    kv.Factory
	}{
		{"leaftree", leaftreeFactory},
		{"lazylist", lazylistFactory},
		{"hashtable", hashtableFactory},
	} {
		for _, composed := range []bool{false, true} {
			build := kv.New
			if composed {
				build = kv.NewComposed
			}
			st := build(tc.f, kv.Options{Shards: 1, Blocking: true})
			if !st.Scannable() {
				t.Fatalf("%s: store does not scan", tc.name)
			}
			c := st.Register()
			c.Put(key, 1)
			locked, release, done := make(chan struct{}), make(chan struct{}), make(chan struct{})
			unpark := sync.OnceFunc(func() { close(release) })
			go func() {
				defer close(done)
				wc := st.Register()
				defer wc.Close()
				st.Engine().Nest(wc.Proc(), []int{0}, func(hp *flock.Proc) {
					st.ShardPutAt(0, hp, set.Position{}, key, 2)
					close(locked)
					<-release
				})
			}()
			<-locked
			got := make(chan uint64, 3)
			go func() {
				v, _ := c.Get(key)
				got <- v
				vals, _ := c.MultiGet([]uint64{key})
				got <- vals[0]
				got <- c.Scan(key, key, -1)[0].Value
			}()
			if composed {
				deadline := time.Now().Add(10 * time.Second)
				for r, _ := st.OptimisticStats(); r == 0; r, _ = st.OptimisticStats() {
					if time.Now().After(deadline) {
						unpark()
						t.Fatalf("%s composed: reader never found the shard lock held", tc.name)
					}
					runtime.Gosched()
				}
				select {
				case v := <-got:
					unpark()
					t.Fatalf("%s composed: read returned %d while the writer held the shard lock", tc.name, v)
				default:
				}
				unpark()
			}
			for i := 0; i < 3; i++ {
				select {
				case v := <-got:
					if v != 2 {
						unpark()
						t.Fatalf("%s composed=%v: read %d = %d, want the written 2", tc.name, composed, i, v)
					}
				case <-time.After(10 * time.Second):
					unpark()
					t.Fatalf("%s composed=%v: read %d still waiting 10s on the held shard lock", tc.name, composed, i)
				}
			}
			unpark()
			<-done
			c.Close()
			if r, _ := st.OptimisticStats(); (r != 0) != composed {
				t.Errorf("%s composed=%v: %d restarts", tc.name, composed, r)
			}
		}
	}
}

// TestOptimisticCountersQuiescent pins that plain single-key traffic
// never invalidates a composed store's validated reads: Put and Get do
// not take shard locks, so shard versions never move and no restart can
// occur without transactions in the mix.
func TestOptimisticCountersQuiescent(t *testing.T) {
	st := kv.NewComposed(leaftreeFactory, kv.Options{Shards: 4})
	c := st.Register()
	defer c.Close()
	for k := uint64(1); k <= 512; k++ {
		c.Put(k, k*7)
	}
	for k := uint64(1); k <= 512; k++ {
		if v, ok := c.Get(k); !ok || v != k*7 {
			t.Fatalf("Get(%d) = (%d,%v), want (%d,true)", k, v, ok, k*7)
		}
	}
	c.Scan(0, math.MaxUint64, -1)
	c.MultiGet([]uint64{1, 99, 200, 511})
	if r, _ := st.OptimisticStats(); r != 0 {
		t.Fatalf("quiescent store counted %d restarts, want 0", r)
	}
}

// TestOptimisticScanSerializesWithTransactions is the composed store's
// atomicity check: validated optimistic scans and
// MultiGets must see the conserved total balance despite concurrent
// multi-shard Transfers — each shard's version is read before its data
// loads and validated, with every other shard's, after all of them, so
// a torn cross-shard observation always fails validation. A loop that
// validates only the shards it re-read fails this test.
func TestOptimisticScanSerializesWithTransactions(t *testing.T) {
	const accounts = 64
	const initial = 100
	st := txn.New(leaftreeFactory, txn.Options{Shards: 4, KeyRange: accounts})
	seed := st.KV().Register()
	for k := uint64(1); k <= accounts; k++ {
		seed.Put(k, initial)
	}
	seed.Close()

	allKeys := make([]uint64, accounts)
	for i := range allKeys {
		allKeys[i] = uint64(i + 1)
	}

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

	reader := st.KV().Register()
	for i := 0; i < 300; i++ {
		got := reader.Scan(0, math.MaxUint64, -1)
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
		vals, oks := reader.MultiGet(allKeys)
		sum = 0
		for j, v := range vals {
			if !oks[j] {
				t.Errorf("MultiGet %d: account %d missing", i, allKeys[j])
				break
			}
			sum += v
		}
		if sum != accounts*initial {
			t.Errorf("MultiGet %d saw torn total %d, want %d", i, sum, accounts*initial)
			break
		}
	}
	reader.Close()
	close(stop)
	wg.Wait()
}

// TestOptimisticTxnReadArm pins internal/txn's read routing: the store
// answers Get and read-only MultiGet correctly through the validated
// arm while Transfers keep committing through the locked path.
func TestOptimisticTxnReadArm(t *testing.T) {
	st := txn.New(leaftreeFactory, txn.Options{Shards: 4, KeyRange: 256})
	c := st.Register()
	defer c.Close()
	kvc := st.KV().Register()
	defer kvc.Close()
	for k := uint64(1); k <= 128; k++ {
		kvc.Put(k, k)
	}
	if v, ok := c.Get(7); !ok || v != 7 {
		t.Fatalf("txn Get(7) = (%d,%v), want (7,true)", v, ok)
	}
	vals, oks := c.MultiGet([]uint64{1, 64, 128, 129})
	for i, k := range []uint64{1, 64, 128} {
		if !oks[i] || vals[i] != k {
			t.Fatalf("txn MultiGet[%d] = (%d,%v), want (%d,true)", i, vals[i], oks[i], k)
		}
	}
	if oks[3] {
		t.Fatalf("txn MultiGet reported absent key 129 as present")
	}
	if !c.Transfer(1, 64, 1) {
		t.Fatalf("Transfer failed")
	}
	if v, _ := c.Get(1); v != 0 {
		t.Fatalf("post-transfer Get(1) = %d, want 0", v)
	}
	if v, _ := c.Get(64); v != 65 {
		t.Fatalf("post-transfer Get(64) = %d, want 65", v)
	}
}

// TestOptimisticGetWaitsOutBlockingHolder is the restart-storm guard,
// made deterministic: a writer parks inside the shard-lock critical
// section in blocking mode, where the reader cannot help it to
// completion, so ReadVersion fails for as long as the lock is held. The
// optimistic Get must keep re-reading (counting restarts, past any
// fixed budget) without ever taking the shard lock itself, and return
// the writer's committed value once the writer releases. The shard
// version afterwards shows the writer's one critical section and
// nothing else.
func TestOptimisticGetWaitsOutBlockingHolder(t *testing.T) {
	st := kv.NewComposed(leaftreeFactory, kv.Options{Shards: 1, Blocking: true})
	c := st.Register()
	defer c.Close()
	const key = 42
	c.Put(key, 1)
	v0, _ := st.ShardLock(0).ReadVersion()

	locked := make(chan struct{})
	release := make(chan struct{})
	writerDone := make(chan struct{})
	// Release the writer on every path, so a failing check does not
	// leave it, and the reader behind it, parked.
	unpark := sync.OnceFunc(func() { close(release) })
	defer unpark()
	go func() {
		defer close(writerDone)
		wc := st.Register()
		defer wc.Close()
		ok := st.Engine().Nest(wc.Proc(), []int{0}, func(hp *flock.Proc) {
			st.ShardPutAt(0, hp, set.Position{}, key, 2)
			close(locked)
			<-release
		})
		if !ok {
			t.Error("writer failed to take the free shard lock")
		}
	}()
	<-locked

	type result struct {
		v  uint64
		ok bool
	}
	got := make(chan result, 1)
	go func() {
		v, ok := c.Get(key)
		got <- result{v, ok}
	}()
	// Let the reader discard more reads against the held lock than a
	// fixed budget of 3 would allow.
	deadline := time.Now().Add(10 * time.Second)
	for {
		r, _ := st.OptimisticStats()
		if r > 3 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("reader stopped re-reading after %d restarts", r)
		}
		runtime.Gosched()
	}
	select {
	case r := <-got:
		t.Fatalf("Get returned (%d,%v) while the writer held the shard lock", r.v, r.ok)
	default:
	}
	if !st.ShardLock(0).Held() {
		t.Fatal("shard lock not held while the writer is parked")
	}
	unpark()
	<-writerDone
	r := <-got
	if !r.ok || r.v != 2 {
		t.Fatalf("Get(%d) after the writer released = (%d,%v), want the committed (2,true)", key, r.v, r.ok)
	}
	restarts, _ := st.OptimisticStats()
	if v, ok := st.ShardLock(0).ReadVersion(); !ok || v != v0+2 {
		t.Fatalf("shard version %d -> (%d,%v), want (%d,true): only the writer's section may move it", v0, v, ok, v0+2)
	}

	// The storm over: subsequent optimistic reads validate cleanly again.
	if v, ok := c.Get(key); !ok || v != 2 {
		t.Fatalf("post-storm Get(%d) = (%d,%v), want (2,true)", key, v, ok)
	}
	if r, _ := st.OptimisticStats(); r != restarts {
		t.Fatalf("post-storm read restarted (%d -> %d)", restarts, r)
	}
}

// TestOptimisticGetHelpsHeldLock is the lock-free counterpart of the
// storm test: a writer's critical section parks only when its own Proc
// runs it, so any other Proc can run it to completion. A validated Get
// that finds the shard lock held must help the writer's section finish
// and release the lock, then read the committed value.
func TestOptimisticGetHelpsHeldLock(t *testing.T) {
	st := kv.NewComposed(leaftreeFactory, kv.Options{Shards: 1})
	c := st.Register()
	defer c.Close()
	const key = 42
	c.Put(key, 1)

	locked := make(chan struct{})
	release := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		wc := st.Register()
		defer wc.Close()
		owner := wc.Proc()
		ok := st.Engine().Nest(owner, []int{0}, func(hp *flock.Proc) {
			st.ShardPutAt(0, hp, set.Position{}, key, 2)
			if hp == owner {
				close(locked)
				<-release
			}
		})
		if !ok {
			t.Error("writer failed to take the free shard lock")
		}
	}()
	<-locked
	if !st.ShardLock(0).Held() {
		t.Fatal("writer's shard lock not held while its owner is parked")
	}

	v, ok := c.Get(key)
	close(release)
	<-done
	if !ok || v != 2 {
		t.Fatalf("Get(%d) under held shard lock = (%d,%v), want the committed (2,true)", key, v, ok)
	}
}

// TestAllocsOptimisticGet pins a validated optimistic Get at zero
// allocations: the engine's retry loop keeps its per-shard state and its
// read closure on the stack.
func TestAllocsOptimisticGet(t *testing.T) {
	st := kv.NewComposed(leaftreeFactory, kv.Options{Shards: 4})
	c := st.Register()
	defer c.Close()
	for k := uint64(1); k <= 64; k++ {
		c.Put(k, k)
	}
	if n := testing.AllocsPerRun(500, func() { c.Get(17) }); n != 0 {
		t.Fatalf("validated optimistic Get allocates %v per op, want 0", n)
	}
}
