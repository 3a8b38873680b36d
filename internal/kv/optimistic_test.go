package kv_test

import (
	"math"
	"runtime"
	"sync"
	"testing"

	"flock/internal/kv"
	"flock/internal/txn"
	"flock/internal/workload"

	flock "flock/internal/core"
)

// TestOptimisticCapabilityGate pins the detection rule: OptimisticReads
// takes effect only when every shard's structure implements the
// matching capability interface, and requesting it on an incapable
// structure silently degrades to the logged path.
func TestOptimisticCapabilityGate(t *testing.T) {
	cases := []struct {
		name              string
		f                 kv.Factory
		wantGet, wantScan bool
	}{
		{"leaftree", leaftreeFactory, true, true},
		{"lazylist", lazylistFactory, true, true},
		{"hashtable", hashtableFactory, true, true}, // unordered, but scans via sorted bucket sweep
	}
	for _, tc := range cases {
		st := kv.New(tc.f, kv.Options{Shards: 2, OptimisticReads: true})
		if st.OptimisticReads() != tc.wantGet {
			t.Errorf("%s: OptimisticReads() = %v, want %v", tc.name, st.OptimisticReads(), tc.wantGet)
		}
		if st.OptimisticScans() != tc.wantScan {
			t.Errorf("%s: OptimisticScans() = %v, want %v", tc.name, st.OptimisticScans(), tc.wantScan)
		}
	}
	// Off by default even on a capable structure.
	st := kv.New(leaftreeFactory, kv.Options{Shards: 2})
	if st.OptimisticReads() || st.OptimisticScans() {
		t.Fatalf("optimistic reads enabled without Options.OptimisticReads")
	}
}

// TestOptimisticCountersQuiescent pins that plain single-key traffic
// never invalidates optimistic reads: Put and Get do not take shard
// locks, so shard versions never move and no restart or escalation can
// occur without transactions or locked scans in the mix.
func TestOptimisticCountersQuiescent(t *testing.T) {
	st := kv.New(leaftreeFactory, kv.Options{Shards: 4, OptimisticReads: true})
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
	if r, e := st.OptimisticStats(); r != 0 || e != 0 {
		t.Fatalf("quiescent store counted restarts=%d escalations=%d, want 0/0", r, e)
	}
}

// TestOptimisticScanSerializesWithTransactions is the optimistic arm of
// the composed-lock atomicity check: validated optimistic scans and
// MultiGets must see the conserved total balance despite concurrent
// multi-shard Transfers — each shard's version is read before its data
// loads and validated, with every other shard's, after all of them, so
// a torn cross-shard observation always fails validation. A loop that
// validates only the shards it re-read fails this test.
func TestOptimisticScanSerializesWithTransactions(t *testing.T) {
	const accounts = 64
	const initial = 100
	st := txn.New(leaftreeFactory, txn.Options{Shards: 4, KeyRange: accounts, OptimisticReads: true})
	if !st.KV().OptimisticReads() || !st.KV().OptimisticScans() {
		t.Fatal("transactional store did not enable optimistic reads")
	}
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

// TestOptimisticTxnReadArm pins internal/txn's read routing: with
// OptimisticReads the store still answers Get and read-only MultiGet
// correctly (through the unlogged arm) while Transfers and mixed
// transactions keep committing through the locked path.
func TestOptimisticTxnReadArm(t *testing.T) {
	st := txn.New(leaftreeFactory, txn.Options{Shards: 4, KeyRange: 256, OptimisticReads: true})
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

// TestOptimisticEscalationStorm is the restart-storm guard, made
// deterministic: a writer parks inside the shard-lock critical section
// (blocking mode, so the reader cannot help it to completion), which
// pins ReadVersion to failure for as long as the lock is held. The
// optimistic Get must burn exactly MaxOptimistic restarts, escalate
// once — never spin unboundedly — block on the locked path until the
// writer releases, and still return the correct committed value. The
// counters pin the exact escalation protocol.
func TestOptimisticEscalationStorm(t *testing.T) {
	st := kv.New(leaftreeFactory, kv.Options{Shards: 1, SharedRuntime: true, Blocking: true, OptimisticReads: true})
	c := st.Register()
	defer c.Close()
	const key = 42
	c.Put(key, 1)

	locked := make(chan struct{})
	release := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		wc := st.Register()
		defer wc.Close()
		ok := st.NestShardLocks(wc.SharedProc(), []int{0}, func(hp *flock.Proc) {
			close(locked)
			<-release
		})
		if !ok {
			t.Error("writer failed to take the free shard lock")
		}
	}()
	<-locked

	// The lock is held: once the reader has escalated (the counter moves
	// before the locked read blocks), let the writer go.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			if _, e := st.OptimisticStats(); e > 0 {
				close(release)
				return
			}
			runtime.Gosched()
		}
	}()

	if v, ok := c.Get(key); !ok || v != 1 {
		t.Fatalf("Get(%d) under held shard lock = (%d,%v), want (1,true)", key, v, ok)
	}
	wg.Wait()

	restarts, escalations := st.OptimisticStats()
	if want := uint64(3); restarts != want { // flock.New's MaxOptimistic default
		t.Fatalf("held-lock read burned %d restarts, want exactly MaxOptimistic=%d", restarts, want)
	}
	if escalations != 1 {
		t.Fatalf("held-lock read escalated %d times, want exactly 1", escalations)
	}

	// The storm over: subsequent optimistic reads validate cleanly again.
	if v, ok := c.Get(key); !ok || v != 1 {
		t.Fatalf("post-storm Get(%d) = (%d,%v), want (1,true)", key, v, ok)
	}
	if r, _ := st.OptimisticStats(); r != restarts {
		t.Fatalf("post-storm read restarted (%d -> %d): version parity corrupt after escalation", restarts, r)
	}
}

// TestOptimisticGetHelpsHeldLock is the lock-free counterpart of the
// storm test: a writer's critical section parks only when its own Proc
// runs it, so any other Proc can run it to completion. An optimistic Get
// that finds the shard lock held must help the writer's section finish
// and release the lock, then read the committed value, with no
// escalation to the strict Lock.
func TestOptimisticGetHelpsHeldLock(t *testing.T) {
	st := kv.New(leaftreeFactory, kv.Options{Shards: 1, SharedRuntime: true, OptimisticReads: true})
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
		owner := wc.SharedProc()
		ok := st.NestShardLocks(owner, []int{0}, func(hp *flock.Proc) {
			st.ShardPut(0, hp, key, 2)
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
	if _, e := st.OptimisticStats(); e != 0 {
		t.Fatalf("held-lock Get escalated %d times, want 0: the reader must help, not take the lock", e)
	}
}

// TestAllocsOptimisticGet pins a validated optimistic Get at zero
// allocations: the engine's retry loop keeps its per-shard state and its
// read closure on the stack.
func TestAllocsOptimisticGet(t *testing.T) {
	st := kv.New(leaftreeFactory, kv.Options{Shards: 4, SharedRuntime: true, OptimisticReads: true})
	c := st.Register()
	defer c.Close()
	for k := uint64(1); k <= 64; k++ {
		c.Put(k, k)
	}
	if n := testing.AllocsPerRun(500, func() { c.Get(17) }); n != 0 {
		t.Fatalf("validated optimistic Get allocates %v per op, want 0", n)
	}
}
