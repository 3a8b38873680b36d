package txn_test

import (
	"fmt"
	"sync/atomic"
	"testing"

	"flock/internal/obs"
	"flock/internal/obs/trace"
	"flock/internal/txn"
)

// TestAllocsTransfer pins a one-client lock-free Transfer on an 8-shard
// leaftree store, after warm-up, at what its writes need: per write the
// new leaf and leaftree's replaceAt thunk, plus one lock thunk per shard
// of the chain. Its plan and attempt are recycled ones past their grace
// period, Nest builds one closure per level, and the lock group is
// planned into the plan. It runs with obs and the flight recorder off
// and on; obs on adds Atomic's foreign-run wrapper, two allocations per
// attempt.
func TestAllocsTransfer(t *testing.T) {
	st := txn.New(leaftreeFactory, txn.Options{Shards: 8, Mode: txn.LockFree, KeyRange: 1 << 10})
	kvs := st.KV()
	c := st.Register()
	defer c.Close()
	// a and b share a shard, x does not.
	a := uint64(1)
	var b, x uint64
	for k := a + 1; b == 0 || x == 0; k++ {
		if kvs.ShardOf(k) == kvs.ShardOf(a) {
			if b == 0 {
				b = k
			}
		} else if x == 0 {
			x = k
		}
	}
	c.MultiPut([]uint64{a, b, x}, []uint64{1000, 1000, 1000})
	for _, tc := range []struct {
		name     string
		to       uint64
		lockThks int
	}{{"two-shard", x, 2}, {"one-shard", b, 1}} {
		for _, on := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/obs-trace=%v", tc.name, on), func(t *testing.T) {
				prevObs, prevTrace := obs.Enabled(), trace.Enabled()
				obs.SetEnabled(on)
				trace.SetEnabled(on)
				defer func() {
					obs.SetEnabled(prevObs)
					trace.SetEnabled(prevTrace)
				}()
				step := func() {
					if !c.Transfer(a, tc.to, 1) || !c.Transfer(tc.to, a, 1) {
						t.Fatal("transfer did not commit")
					}
				}
				for i := 0; i < 200; i++ {
					step() // warm-up: pools and recycling FIFOs fill
				}
				want := float64(2*2 + tc.lockThks)
				if on {
					want += 2
				}
				if n := testing.AllocsPerRun(500, step) / 2; n != want {
					t.Fatalf("Transfer allocates %v per op, want %v", n, want)
				}
			})
		}
	}
}

// TestStragglerBlocksRecycling parks a helper inside a committed
// transfer's body, as TestStragglerReplaysLocatedTransfer does, and
// meanwhile has the owner's client commit a hundred transfers. The
// helper's announcement is lowered to the birth epoch of the descriptor
// it replays, which is at most the stamp of every plan, attempt and
// descriptor the client finishes from then on, so none may be handed out
// again while it is parked: no transfer in the window reuses a record
// (obs.PoolHits).
// When the helper resumes, its replay changes no balance and no key,
// and once it is gone the client recycles again.
func TestStragglerBlocksRecycling(t *testing.T) {
	prev := obs.Enabled()
	obs.SetEnabled(true)
	defer obs.SetEnabled(prev)
	st := txn.New(leaftreeFactory, txn.Options{Shards: 2, Mode: txn.LockFree, KeyRange: 1024})
	kvs := st.KV()
	var accounts []uint64
	for k := uint64(10); k <= 80; k += 10 {
		accounts = append(accounts, k)
	}
	a := accounts[0]
	var b uint64
	for _, k := range accounts[1:] {
		if kvs.ShardOf(k) != kvs.ShardOf(a) {
			b = k
			break
		}
	}
	if b == 0 {
		t.Fatal("all accounts routed to one shard")
	}
	setup := st.Register()
	for _, k := range accounts {
		setup.MultiPut([]uint64{k}, []uint64{1000})
	}
	setup.Close()

	ownerIn, helperIn := make(chan struct{}), make(chan struct{})
	ownerGo, helperGo := make(chan struct{}), make(chan struct{})
	var runs atomic.Int32
	transfer := func(vals []uint64, oks []bool) ([]uint64, bool) {
		switch runs.Add(1) {
		case 1:
			close(ownerIn)
			<-ownerGo
		case 2:
			close(helperIn)
			<-helperGo
		}
		if !oks[0] || !oks[1] || vals[0] < 100 {
			return nil, false
		}
		return []uint64{vals[0] - 100, vals[1] + 100}, true
	}

	c := st.Register()
	defer c.Close()
	ownerDone := make(chan bool)
	go func() {
		_, _, ok := c.Txn([]uint64{a, b}, []uint64{a, b}, transfer)
		ownerDone <- ok
	}()
	<-ownerIn
	helperDone := make(chan struct{})
	go func() {
		c := st.Register()
		defer c.Close()
		c.MultiGet([]uint64{a}) // a validated read: finds a's shard held and helps
		close(helperDone)
	}()
	<-helperIn
	close(ownerGo)
	if !<-ownerDone {
		t.Fatal("owner's transfer did not commit")
	}

	// A hundred transfers round the accounts while the helper is parked.
	const window = 100
	s0 := obs.Snapshot()
	for i := 0; i < window; i++ {
		from, to := accounts[i%len(accounts)], accounts[(i+1)%len(accounts)]
		if !c.Transfer(from, to, 1) {
			t.Fatalf("transfer %d -> %d did not commit", from, to)
		}
	}
	if h := obs.Snapshot().Sub(s0).Get(obs.PoolHits); h != 0 {
		t.Fatalf("%d records reused over %d transfers with a straggler parked, want 0", h, window)
	}
	before := snapshot(kvs)

	close(helperGo)
	<-helperDone
	if runs.Load() != 2 {
		t.Fatalf("transfer body ran %d times, want 2 (owner and straggler)", runs.Load())
	}
	after := snapshot(kvs)
	if len(after) != len(before) {
		t.Fatalf("straggler replay changed the key set: %v -> %v", before, after)
	}
	var sum uint64
	for k, v := range before {
		if after[k] != v {
			t.Fatalf("straggler replay changed key %d: %d -> %d", k, v, after[k])
		}
		sum += v
	}
	if sum != 1000*uint64(len(accounts)) {
		t.Fatalf("balances sum to %d, want %d", sum, 1000*len(accounts))
	}

	s1 := obs.Snapshot()
	for i := 0; i < 10; i++ {
		c.Transfer(a, b, 1)
	}
	if m := obs.Snapshot().Sub(s1).Get(obs.PoolMisses); m != 0 {
		t.Fatalf("%d fresh records after the straggler left, want 0", m)
	}
}
