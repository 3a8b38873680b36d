package txn_test

import (
	"fmt"
	"math"
	"sync/atomic"
	"testing"

	flock "flock/internal/core"
	"flock/internal/harness"
	"flock/internal/kv"
	"flock/internal/obs"
	"flock/internal/structures/abtree"
	"flock/internal/structures/arttree"
	"flock/internal/structures/couplist"
	"flock/internal/structures/dlist"
	"flock/internal/structures/hashtable"
	"flock/internal/structures/lazylist"
	"flock/internal/structures/leaftreap"
	"flock/internal/structures/leaftree"
	"flock/internal/structures/set"
	"flock/internal/txn"
	"flock/internal/txn/txntest"
)

var (
	leaftreeFactory  kv.Factory = func(rt *flock.Runtime, _ uint64) set.Set { return leaftree.New(rt) }
	hashtableFactory kv.Factory = func(rt *flock.Runtime, r uint64) set.Set { return hashtable.New(rt, int(r)) }
)

// harnessFactory mirrors the harness registry's txn-capable factories
// (the registry itself is unexported; these must stay in sync with
// harness.txnCapable, which TestRunTimedTxn's guard test covers from
// the other side).
func harnessFactory(name string) (kv.Factory, error) {
	switch name {
	case "lazylist":
		return func(rt *flock.Runtime, _ uint64) set.Set { return lazylist.New(rt) }, nil
	case "dlist":
		return func(rt *flock.Runtime, _ uint64) set.Set { return dlist.New(rt) }, nil
	case "couplist":
		return func(rt *flock.Runtime, _ uint64) set.Set { return couplist.New(rt) }, nil
	case "leaftreap":
		return func(rt *flock.Runtime, _ uint64) set.Set { return leaftreap.New(rt) }, nil
	case "abtree":
		return func(rt *flock.Runtime, _ uint64) set.Set { return abtree.New(rt) }, nil
	case "arttree":
		return func(rt *flock.Runtime, _ uint64) set.Set { return arttree.New(rt) }, nil
	default:
		return nil, fmt.Errorf("no factory for %q", name)
	}
}

// The conformance suite runs over both native-upsert structures the
// acceptance criteria name; together with the mode × shard matrix
// inside, this is the multi-key atomicity verification.
func TestConformanceLeaftree(t *testing.T)  { txntest.Run(t, leaftreeFactory) }
func TestConformanceHashtable(t *testing.T) { txntest.Run(t, hashtableFactory) }

// Every other structure the harness's txnCapable set vouches for runs
// the same suite: vouching without verification would let a structure
// whose operations do not replay deterministically inside a composed
// thunk (couplist's hand-over-hand early release is the riskiest
// pattern) tear transactions silently. These use kv's delete-then-
// insert upsert fallback, which is atomic here because it runs
// entirely inside the shard-lock thunk.
func TestConformanceOtherCapableStructures(t *testing.T) {
	// Completeness first (cheap, runs even in -short mode): every
	// structure the harness vouches for must be covered by a suite run
	// in this file — here or in the dedicated leaftree/hashtable tests.
	covered := map[string]bool{"leaftree": true, "hashtable": true}
	others := []string{"lazylist", "dlist", "couplist", "leaftreap", "abtree", "arttree"}
	for _, name := range others {
		covered[name] = true
	}
	for _, name := range harness.TxnCapableStructures() {
		if !covered[name] {
			t.Fatalf("harness vouches for %q as txn-capable but no conformance suite covers it", name)
		}
	}
	if testing.Short() {
		// The CI race job runs -short: racing all six suites multiplies
		// its time ~25x while exercising the same protocol code the
		// leaftree/hashtable race passes already cover. The full (non
		// -short) test step still runs them all.
		t.Skip("six extra structure suites skipped in -short mode")
	}
	for _, name := range others {
		name := name
		f, err := harnessFactory(name)
		if err != nil {
			t.Fatal(err)
		}
		t.Run(name, func(t *testing.T) { txntest.Run(t, f) })
	}
}

func newStore(mode txn.Mode, shards int) *txn.Store {
	return txn.New(leaftreeFactory, txn.Options{Shards: shards, Mode: mode, KeyRange: 1024})
}

func TestMultiPutDuplicatesLastWins(t *testing.T) {
	for _, mode := range []txn.Mode{txn.LockFree, txn.Blocking, txn.NonAtomic} {
		st := newStore(mode, 4)
		c := st.Register()
		ins := c.MultiPut([]uint64{7, 7, 7}, []uint64{1, 2, 3})
		if ins != 1 {
			t.Errorf("%v: inserted %d, want 1 (duplicates are one key)", mode, ins)
		}
		if v, ok := c.Get(7); !ok || v != 3 {
			t.Errorf("%v: key 7 = (%d,%v), want (3,true): input order must win", mode, v, ok)
		}
		c.Close()
	}
}

func TestMultiCASRequiresPresence(t *testing.T) {
	st := newStore(txn.LockFree, 4)
	c := st.Register()
	defer c.Close()
	if c.MultiCAS([]uint64{5}, []uint64{0}, []uint64{1}) {
		t.Fatal("MultiCAS succeeded on an absent key")
	}
	c.Put(5, 10)
	if c.MultiCAS([]uint64{5}, []uint64{9}, []uint64{1}) {
		t.Fatal("MultiCAS succeeded with a wrong expectation")
	}
	if !c.MultiCAS([]uint64{5}, []uint64{10}, []uint64{11}) {
		t.Fatal("MultiCAS failed with the correct expectation")
	}
	if v, _ := c.Get(5); v != 11 {
		t.Fatalf("key 5 = %d after CAS, want 11", v)
	}
}

func TestTransferRules(t *testing.T) {
	st := newStore(txn.LockFree, 4)
	c := st.Register()
	defer c.Close()
	c.MultiPut([]uint64{1, 2}, []uint64{100, 0})
	if c.Transfer(1, 1, 10) {
		t.Fatal("self-transfer succeeded")
	}
	if c.Transfer(1, 3, 10) {
		t.Fatal("transfer to an absent account succeeded")
	}
	if c.Transfer(1, 2, 101) {
		t.Fatal("overdraft transfer succeeded")
	}
	if !c.Transfer(1, 2, 100) {
		t.Fatal("covered transfer failed")
	}
	va, _ := c.Get(1)
	vb, _ := c.Get(2)
	if va != 0 || vb != 100 {
		t.Fatalf("balances (%d,%d) after transfer, want (0,100)", va, vb)
	}
}

func TestTxnAbortWritesNothing(t *testing.T) {
	st := newStore(txn.LockFree, 4)
	c := st.Register()
	defer c.Close()
	c.Put(1, 5)
	vals, oks, committed := c.Txn([]uint64{1}, []uint64{1, 2},
		func([]uint64, []bool) ([]uint64, bool) { return nil, false })
	if committed {
		t.Fatal("aborting Txn reported committed")
	}
	if !oks[0] || vals[0] != 5 {
		t.Fatalf("aborting Txn observed (%d,%v), want (5,true)", vals[0], oks[0])
	}
	if _, ok := c.Get(2); ok {
		t.Fatal("aborted Txn wrote key 2")
	}
}

func TestSharedRuntimeRequired(t *testing.T) {
	// The txn store must route all shards through one runtime; this is
	// what makes cross-shard helping and reclamation sound.
	st := newStore(txn.LockFree, 4)
	if st.KV().Runtime() == nil {
		t.Fatal("txn store built without a shared runtime")
	}
	// And a per-shard-runtime kv store must refuse SharedProc.
	plain := kv.New(leaftreeFactory, kv.Options{Shards: 2})
	pc := plain.Register()
	defer pc.Close()
	defer func() {
		if recover() == nil {
			t.Fatal("SharedProc on a per-shard-runtime store did not panic")
		}
	}()
	pc.SharedProc()
}

func TestModeString(t *testing.T) {
	if txn.LockFree.String() != "lockfree" || txn.Blocking.String() != "blocking" || txn.NonAtomic.String() != "nonatomic" {
		t.Fatalf("mode names: %v %v %v", txn.LockFree, txn.Blocking, txn.NonAtomic)
	}
}

// TestMetricsTxnDepthAndHelping pins the transactional obs wiring
// (DESIGN.md S14): every committed transaction lands in exactly one
// depth-histogram bucket keyed by its distinct-shard count, and the
// bucket totals equal the commit count.
func TestMetricsTxnDepthAndHelping(t *testing.T) {
	prev := obs.Enabled()
	obs.SetEnabled(true)
	defer obs.SetEnabled(prev)

	st := txn.New(leaftreeFactory, txn.Options{Shards: 8, KeyRange: 1 << 10})
	c := st.Register()
	defer c.Close()
	s0 := obs.Snapshot()

	// Single-key writes: depth exactly 1.
	const singles = 50
	for k := uint64(0); k < singles; k++ {
		c.MultiPut([]uint64{k}, []uint64{k})
	}
	// Transfers: 2 keys on 1 or 2 distinct shards.
	const pairs = 30
	for k := uint64(0); k < pairs; k++ {
		c.MultiPut([]uint64{2 * k, 2*k + 1}, []uint64{7, 7})
	}
	d := obs.Snapshot().Sub(s0)
	var total uint64
	for _, b := range []obs.Counter{
		obs.TxnDepth1, obs.TxnDepth2, obs.TxnDepth3, obs.TxnDepth4,
		obs.TxnDepth5to8, obs.TxnDepth9Plus,
	} {
		total += d.Get(b)
	}
	if total != singles+pairs {
		t.Errorf("depth histogram sums to %d, want %d committed transactions", total, singles+pairs)
	}
	if d.Get(obs.TxnDepth1) < singles {
		t.Errorf("TxnDepth1 = %d, want >= %d (every single-key txn)", d.Get(obs.TxnDepth1), singles)
	}
	if d.Get(obs.TxnDepth3) != 0 || d.Get(obs.TxnDepth9Plus) != 0 {
		t.Errorf("2-key transactions filled depth>=3 buckets: d3=%d d9+=%d",
			d.Get(obs.TxnDepth3), d.Get(obs.TxnDepth9Plus))
	}
	// Uncontended single client: nothing should have been helped.
	if h := d.Get(obs.TxnHelped); h != 0 {
		t.Errorf("TxnHelped = %d on an uncontended client, want 0", h)
	}
}

// TestStragglerReplaysLocatedTransfer replays a finished composed
// transfer body, with the positions its attempt located, from a second
// Proc after the shards have moved on: the straggler's logged loads and
// CASes all resolve against the owner's committed log, so no balance
// changes. The pattern is internal/core's TestStragglerCannotReinstall,
// built from real helping: the owner parks inside its body, a reader
// helps and parks there too, the owner finishes, other clients replace
// the located leaves, insert next to them and delete around them, and
// only then does the helper run on.
func TestStragglerReplaysLocatedTransfer(t *testing.T) {
	st := txn.New(leaftreeFactory, txn.Options{Shards: 2, Mode: txn.LockFree, KeyRange: 1024})
	kvs := st.KV()
	// Accounts 10, 20, ..., 80, with a and b on different shards.
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

	// The owner's client moves the shards on afterwards too, so nothing
	// its next operations build may alias the finished attempt's input.
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
		c.MultiGet([]uint64{a}) // a locked read: finds a's shard held and helps
		close(helperDone)
	}()
	<-helperIn
	close(ownerGo)
	if !<-ownerDone {
		t.Fatal("owner's transfer did not commit")
	}

	// Move the shards on: replace both located leaves, insert beside
	// them, and delete a neighbour so routers above them are spliced.
	kc := kvs.Register()
	defer kc.Close()
	if !c.Transfer(b, a, 7) {
		t.Fatal("follow-up transfer did not commit")
	}
	c.MultiPut([]uint64{a + 1, b + 1, a - 1}, []uint64{1, 2, 3})
	kc.Delete(a + 1)
	kc.Delete(accounts[len(accounts)-1])
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
	for k, v := range before {
		if after[k] != v {
			t.Fatalf("straggler replay changed key %d: %d -> %d", k, v, after[k])
		}
	}
	if before[a] != 907 || before[b] != 1093 {
		t.Fatalf("balances a=%d b=%d, want 907 and 1093", before[a], before[b])
	}
}

// snapshot reads the whole store through a Snapshot.
func snapshot(st *kv.Store) map[uint64]uint64 {
	sn := st.Snapshot()
	defer sn.Close()
	out := map[uint64]uint64{}
	sn.Iterate(0, math.MaxUint64, func(k, v uint64) bool {
		out[k] = v
		return true
	})
	return out
}
