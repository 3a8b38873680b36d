// Package kvtest is the conformance suite for kv.Store, mirroring what
// settest does for the set structures: the KV layer is verified the
// same way as the structures it composes.
//
// The suite covers:
//   - sequential differential testing of all four operations against a
//     map model,
//   - concurrent differential testing against a mutex-guarded map
//     (workers own disjoint key partitions, so per-key comparisons are
//     exact while sharding, routing and structural interference are
//     fully concurrent),
//   - batch-variant differential testing,
//   - contended set-algebra and lost-update (RMW counter) checks,
//     which require atomic upserts and therefore run only on stores
//     with native upsert support,
//   - linearizability of recorded Get/Put/Delete/ReadModifyWrite
//     histories (native upsert only: the fallback's delete-then-insert
//     window is documented as non-atomic),
//   - an oversubscribed pass (workers >> GOMAXPROCS) with deschedule
//     injection in lock-free mode.
package kvtest

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"flock/internal/kv"
	"flock/internal/lincheck"
	"flock/internal/txn"
)

// Modes lists the lock modes the suite exercises.
var Modes = []struct {
	Name     string
	Blocking bool
}{
	{"lockfree", false},
	{"blocking", true},
}

// config is one suite configuration: the store options and the store
// kind (kv.New, or kv.NewComposed when composed is set).
type config struct {
	kv.Options
	composed bool
}

// store builds a fresh store of the configured kind.
func (c config) store(f kv.Factory) *kv.Store {
	if c.composed {
		return kv.NewComposed(f, c.Options)
	}
	return kv.New(f, c.Options)
}

// Run executes the full suite against the factory, across lock modes
// and shard counts (including the unsharded control), once per store
// kind: the plain store (kv.New), whose reads call the structures
// directly, and — under the "optimistic" arm — the composed store
// (kv.NewComposed), whose Get, MultiGet, Scan and snapshot reads run
// the engine's validated optimistic loop. The whole suite must be
// indistinguishable between the two read protocols.
func Run(t *testing.T, f kv.Factory) {
	t.Helper()
	for _, m := range Modes {
		for _, shards := range []int{1, 4} {
			for _, composed := range []bool{false, true} {
				name := fmt.Sprintf("%s/shards=%d", m.Name, shards)
				if composed {
					name += "/optimistic"
				}
				opt := config{kv.Options{Shards: shards, Blocking: m.Blocking, KeyRange: 4096}, composed}
				t.Run(name, func(t *testing.T) {
					t.Run("SequentialModel", func(t *testing.T) { sequentialModel(t, f, opt) })
					t.Run("MutexMapDifferential", func(t *testing.T) { mutexMapDifferential(t, f, opt) })
					t.Run("Batches", func(t *testing.T) { batches(t, f, opt) })
					t.Run("BatchOrdering", func(t *testing.T) { batchOrdering(t, f, opt) })
					t.Run("Oversubscribed", func(t *testing.T) { oversubscribed(t, f, opt) })
					native := opt.store(f).NativeUpsert()
					if native {
						t.Run("ContendedAlgebra", func(t *testing.T) { contendedAlgebra(t, f, opt) })
						t.Run("RMWCounter", func(t *testing.T) { rmwCounter(t, f, opt) })
						t.Run("Linearizable", func(t *testing.T) { linearizable(t, f, opt, 0) })
						if !m.Blocking {
							t.Run("LinearizableWithStalls", func(t *testing.T) { linearizable(t, f, opt, 25) })
						}
					}
				})
			}
		}
		scannable := kv.New(f, kv.Options{Shards: 4}).Scannable()
		if scannable {
			t.Run(m.Name+"/SnapshotConservedSum", func(t *testing.T) { snapshotConservedSum(t, f, m.Blocking) })
			t.Run(m.Name+"/DumpRestoreRoundTrip", func(t *testing.T) {
				dumpRestoreRoundTrip(t, f, config{kv.Options{Shards: 4, Blocking: m.Blocking, KeyRange: 4096}, true})
			})
		}
	}
}

// snapshotConservedSum pins the snapshot's atomic-cut guarantee against
// lock-holding writers: with every write going through txn.Transfer —
// which conserves the sum of the two touched accounts — every
// Snapshot's whole-store total must equal the initial funding exactly,
// no matter how the transfer storm interleaves with activation and
// iteration. A torn snapshot (one account read pre-transfer, the other
// post) is exactly what the overlay protocol exists to prevent.
func snapshotConservedSum(t *testing.T, f kv.Factory, blocking bool) {
	mode := txn.LockFree
	if blocking {
		mode = txn.Blocking
	}
	st := txn.New(f, txn.Options{Shards: 4, KeyRange: 8192, Mode: mode})
	// Enough accounts that an iteration spans several cursor chunks per
	// shard — the snapshot must stay consistent across a long fuzzy
	// iteration, not just a near-atomic single-chunk read.
	const accounts = 1024
	const initBal = 100
	boot := st.Register()
	for k := uint64(1); k <= accounts; k++ {
		boot.Put(k, initBal)
	}
	boot.Close()
	const total = accounts * initBal

	var stop atomic.Bool
	var wg sync.WaitGroup
	const workers = 4
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			c := st.Register()
			defer c.Close()
			rng := rand.New(rand.NewSource(seed))
			for !stop.Load() {
				a := uint64(rng.Intn(accounts) + 1)
				b := uint64(rng.Intn(accounts) + 1)
				if a == b {
					continue
				}
				c.Transfer(a, b, uint64(rng.Intn(5)+1))
			}
		}(int64(1000 + w))
	}
	defer func() {
		stop.Store(true)
		wg.Wait()
	}()

	for round := 0; round < 3; round++ {
		sn := st.KV().Snapshot()
		var sum uint64
		n := 0
		sn.Iterate(0, math.MaxUint64, func(_, v uint64) bool {
			sum += v
			n++
			if n%32 == 0 {
				runtime.Gosched() // widen the iteration window under the storm
			}
			return true
		})
		if round == 1 {
			// One round also dumps the live snapshot mid-storm and
			// restores it into a fresh store: the restored store's total
			// must be the same conserved sum (the dump is one Iterate
			// pass, so this additionally covers Dump/Restore under
			// concurrent writers).
			var buf bytes.Buffer
			if err := sn.Dump(&buf); err != nil {
				t.Fatalf("round %d: Dump: %v", round, err)
			}
			fresh := kv.New(f, kv.Options{Shards: 3, KeyRange: 8192})
			restored, err := fresh.Restore(&buf)
			if err != nil {
				t.Fatalf("round %d: Restore: %v", round, err)
			}
			if restored != n {
				t.Fatalf("round %d: restored %d records, snapshot iterated %d", round, restored, n)
			}
			fc := fresh.Register()
			var fsum uint64
			for _, kv2 := range fc.Scan(0, math.MaxUint64, -1) {
				fsum += kv2.Value
			}
			fc.Close()
			if fsum != sum {
				t.Fatalf("round %d: restored store total %d, snapshot total %d", round, fsum, sum)
			}
		}
		sn.Close()
		if n != accounts || sum != total {
			t.Fatalf("round %d: snapshot saw %d accounts totalling %d, want %d totalling %d", round, n, sum, accounts, total)
		}
	}
}

// dumpRestoreRoundTrip pins the dump format end to end on a quiesced
// store: Dump then Restore into a fresh store reproduces the exact
// key-value contents (differential full scans), the record count is
// reported faithfully, and a corrupted stream fails the checksum.
func dumpRestoreRoundTrip(t *testing.T, f kv.Factory, opt config) {
	st := opt.store(f)
	c := st.Register()
	rng := rand.New(rand.NewSource(99))
	model := map[uint64]uint64{}
	for i := 0; i < 700; i++ {
		k := uint64(rng.Intn(4000) + 1)
		v := rng.Uint64()
		c.Put(k, v)
		model[k] = v
	}
	sn := st.Snapshot()
	defer sn.Close()
	var buf bytes.Buffer
	if err := sn.Dump(&buf); err != nil {
		t.Fatalf("Dump: %v", err)
	}
	raw := append([]byte(nil), buf.Bytes()...)

	fresh := opt.store(f)
	n, err := fresh.Restore(bytes.NewReader(raw))
	if err != nil {
		t.Fatalf("Restore: %v", err)
	}
	if n != len(model) {
		t.Fatalf("Restore applied %d records, want %d", n, len(model))
	}
	fc := fresh.Register()
	defer fc.Close()
	got := fc.Scan(0, math.MaxUint64, -1)
	want := c.Scan(0, math.MaxUint64, -1)
	c.Close()
	if len(got) != len(want) {
		t.Fatalf("restored scan has %d pairs, original %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("restored pair %d = %v, original %v", i, got[i], want[i])
		}
	}

	// Corruption: flipping one data byte must fail the checksum (or the
	// count, if the flip lands in the trailer).
	bad := append([]byte(nil), raw...)
	bad[len(bad)/2] ^= 0x40
	if _, err := opt.store(f).Restore(bytes.NewReader(bad)); err == nil {
		t.Fatalf("Restore accepted a corrupted stream")
	}
}

// sequentialModel drives one client through a scripted mix of all four
// operations and compares every return value against a map.
func sequentialModel(t *testing.T, f kv.Factory, opt config) {
	st := opt.store(f)
	c := st.Register()
	defer c.Close()
	model := map[uint64]uint64{}
	rng := rand.New(rand.NewSource(23))

	const ops = 4000
	const keySpace = 300
	for i := 0; i < ops; i++ {
		k := uint64(rng.Intn(keySpace) + 1)
		switch rng.Intn(4) {
		case 0:
			v := rng.Uint64()
			_, had := model[k]
			if ins := c.Put(k, v); ins == had {
				t.Fatalf("op %d: Put(%d) inserted=%v, model had=%v", i, k, ins, had)
			}
			model[k] = v
		case 1:
			_, had := model[k]
			if got := c.Delete(k); got != had {
				t.Fatalf("op %d: Delete(%d)=%v, model had=%v", i, k, got, had)
			}
			delete(model, k)
		case 2:
			want, had := model[k]
			v, got := c.Get(k)
			if got != had || (had && v != want) {
				t.Fatalf("op %d: Get(%d)=(%d,%v), model (%d,%v)", i, k, v, got, want, had)
			}
		case 3:
			delta := rng.Uint64()%1000 + 1
			want, had := model[k]
			old, present := c.ReadModifyWrite(k, func(o uint64, _ bool) uint64 { return o + delta })
			if present != had || (had && old != want) {
				t.Fatalf("op %d: RMW(%d)=(%d,%v), model (%d,%v)", i, k, old, present, want, had)
			}
			model[k] = want + delta
		}
	}
	for k := uint64(1); k <= keySpace; k++ {
		want, had := model[k]
		v, got := c.Get(k)
		if got != had || (had && v != want) {
			t.Fatalf("final sweep: Get(%d)=(%d,%v), model (%d,%v)", k, v, got, want, had)
		}
	}
}

// mutexMapDifferential runs concurrent workers over disjoint key
// partitions against a single mutex-guarded map: each key is touched by
// one worker only, so store and model answers must agree exactly, while
// the store still sees fully concurrent traffic on every shard.
func mutexMapDifferential(t *testing.T, f kv.Factory, opt config) {
	st := opt.store(f)
	const workers = 8
	const keysPer = 100
	const ops = 500

	var mu sync.Mutex
	model := map[uint64]uint64{}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			c := st.Register()
			defer c.Close()
			rng := rand.New(rand.NewSource(int64(w)*601 + 13))
			key := func(i int) uint64 { return uint64(w + 1 + i*workers) }
			for i := 0; i < ops; i++ {
				k := key(rng.Intn(keysPer))
				switch rng.Intn(4) {
				case 0:
					v := rng.Uint64()
					mu.Lock()
					_, had := model[k]
					model[k] = v
					mu.Unlock()
					if ins := c.Put(k, v); ins == had {
						t.Errorf("w%d: Put(%d) inserted=%v, model had=%v", w, k, ins, had)
						return
					}
				case 1:
					mu.Lock()
					_, had := model[k]
					delete(model, k)
					mu.Unlock()
					if got := c.Delete(k); got != had {
						t.Errorf("w%d: Delete(%d)=%v, model had=%v", w, k, got, had)
						return
					}
				case 2:
					mu.Lock()
					want, had := model[k]
					mu.Unlock()
					v, got := c.Get(k)
					if got != had || (had && v != want) {
						t.Errorf("w%d: Get(%d)=(%d,%v), model (%d,%v)", w, k, v, got, want, had)
						return
					}
				case 3:
					delta := rng.Uint64()%999 + 1
					mu.Lock()
					want, had := model[k]
					model[k] = want + delta
					mu.Unlock()
					old, present := c.ReadModifyWrite(k, func(o uint64, _ bool) uint64 { return o + delta })
					if present != had || (had && old != want) {
						t.Errorf("w%d: RMW(%d)=(%d,%v), model (%d,%v)", w, k, old, present, want, had)
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
	if t.Failed() {
		return
	}
	c := st.Register()
	defer c.Close()
	for w := 0; w < workers; w++ {
		for i := 0; i < keysPer; i++ {
			k := uint64(w + 1 + i*workers)
			want, had := model[k]
			v, got := c.Get(k)
			if got != had || (had && v != want) {
				t.Fatalf("final: key %d = (%d,%v), want (%d,%v)", k, v, got, want, had)
			}
		}
	}
}

// batches checks the batch variants against a map, with keys scattered
// across shards and some duplicates within a batch (later entries win).
func batches(t *testing.T, f kv.Factory, opt config) {
	st := opt.store(f)
	c := st.Register()
	defer c.Close()
	model := map[uint64]uint64{}
	rng := rand.New(rand.NewSource(77))

	for round := 0; round < 20; round++ {
		n := rng.Intn(40) + 1
		keys := make([]uint64, n)
		vals := make([]uint64, n)
		for i := range keys {
			keys[i] = uint64(rng.Intn(200) + 1)
			vals[i] = rng.Uint64()
		}

		wantIns := 0
		seen := map[uint64]bool{}
		// With in-batch duplicates a key is "newly inserted" at most
		// once per batch: its first occurrence inserts, later ones
		// replace.
		for _, k := range keys {
			if _, had := model[k]; !had && !seen[k] {
				wantIns++
			}
			seen[k] = true
		}
		gotIns := c.PutBatch(keys, vals)
		if gotIns != wantIns {
			t.Fatalf("round %d: PutBatch inserted %d, want %d", round, gotIns, wantIns)
		}
		// The surviving value per key is whichever duplicate the batch
		// applied last; read it back from the store and require it to be
		// one of that key's batch values, then sync the model to it.
		for _, k := range keys {
			v, ok := c.Get(k)
			if !ok {
				t.Fatalf("round %d: key %d missing after PutBatch", round, k)
			}
			legal := false
			for j, kk := range keys {
				if kk == k && vals[j] == v {
					legal = true
					break
				}
			}
			if !legal {
				t.Fatalf("round %d: key %d holds %d, not a batch value", round, k, v)
			}
			model[k] = v
		}

		getKeys := make([]uint64, 30)
		for i := range getKeys {
			getKeys[i] = uint64(rng.Intn(300) + 1)
		}
		gv, gok := c.GetBatch(getKeys)
		for i, k := range getKeys {
			want, had := model[k]
			if gok[i] != had || (had && gv[i] != want) {
				t.Fatalf("round %d: GetBatch[%d] key %d = (%d,%v), want (%d,%v)",
					round, i, k, gv[i], gok[i], want, had)
			}
		}

		delKeys := make([]uint64, 15)
		wantDel := 0
		seenDel := map[uint64]bool{}
		for i := range delKeys {
			k := uint64(rng.Intn(250) + 1)
			delKeys[i] = k
			if _, had := model[k]; had && !seenDel[k] {
				wantDel++
			}
			seenDel[k] = true
			delete(model, k)
		}
		if gotDel := c.DeleteBatch(delKeys); gotDel != wantDel {
			t.Fatalf("round %d: DeleteBatch removed %d, want %d", round, gotDel, wantDel)
		}
	}
}

// batchOrdering is the result-ordering conformance pass: batch results
// line up with the input — GetBatch's vals[i]/oks[i] belong to keys[i],
// duplicate keys in a GetBatch all answer, and duplicate keys in a
// PutBatch resolve to the *input-order-last* value (batches run per key
// in input order, and this pins that contract).
func batchOrdering(t *testing.T, f kv.Factory, opt config) {
	st := opt.store(f)
	c := st.Register()
	defer c.Close()

	// Keys deliberately interleaved across shards: consecutive input
	// indices land on different shards, so results that followed shard
	// order instead of input order would show.
	keys := make([]uint64, 0, 64)
	for i := 0; i < 32; i++ {
		keys = append(keys, uint64(1000+i), uint64(5000+31-i))
	}
	vals := make([]uint64, len(keys))
	for i := range vals {
		vals[i] = uint64(i) * 10
	}
	if ins := c.PutBatch(keys, vals); ins != len(keys) {
		t.Fatalf("PutBatch inserted %d, want %d", ins, len(keys))
	}
	gv, gok := c.GetBatch(keys)
	if len(gv) != len(keys) || len(gok) != len(keys) {
		t.Fatalf("GetBatch lengths %d/%d, want %d", len(gv), len(gok), len(keys))
	}
	for i := range keys {
		if !gok[i] || gv[i] != vals[i] {
			t.Fatalf("GetBatch[%d] (key %d) = (%d,%v), want (%d,true): results misaligned with input order",
				i, keys[i], gv[i], gok[i], vals[i])
		}
	}

	// Duplicates in a PutBatch: every occurrence targets one shard, and
	// the input-order-last value must survive.
	dupKeys := []uint64{77, 1000, 77, 5000, 77}
	dupVals := []uint64{1, 2, 3, 4, 5}
	if ins := c.PutBatch(dupKeys, dupVals); ins != 1 { // only 77 is new
		t.Fatalf("duplicate PutBatch inserted %d, want 1", ins)
	}
	dv, dok := c.GetBatch([]uint64{77, 77})
	if !dok[0] || !dok[1] || dv[0] != 5 || dv[1] != 5 {
		t.Fatalf("duplicate key 77 = (%d,%v)/(%d,%v), want (5,true) twice (input-order-last write wins)",
			dv[0], dok[0], dv[1], dok[1])
	}

	// Duplicates in GetBatch and DeleteBatch: every input position gets
	// an answer; deleting a duplicate counts its presence once.
	if del := c.DeleteBatch([]uint64{77, 77, 1000}); del != 2 {
		t.Fatalf("DeleteBatch removed %d, want 2 (duplicate present once)", del)
	}
	gv2, gok2 := c.GetBatch([]uint64{77, 1000, 5000})
	if gok2[0] || gok2[1] || !gok2[2] {
		t.Fatalf("post-delete presence (%v,%v,%v), want (false,false,true)", gok2[0], gok2[1], gok2[2])
	}
	if gv2[2] != 4 { // written by the duplicate batch above
		t.Fatalf("key 5000 = %d, want 4", gv2[2])
	}
}

// contendedAlgebra hammers a small hot range with Put/Delete from many
// workers and checks set algebra: per key, newly-inserting puts minus
// successful deletes must equal final presence (0 or 1). This requires
// atomic upserts — the fallback's delete-then-insert window breaks the
// accounting — so it runs only on native-upsert stores.
func contendedAlgebra(t *testing.T, f kv.Factory, opt config) {
	st := opt.store(f)
	const workers = 8
	const hotKeys = 10
	const ops = 1200

	type tally struct{ ins, del [hotKeys + 1]int64 }
	tallies := make([]tally, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			c := st.Register()
			defer c.Close()
			rng := rand.New(rand.NewSource(int64(w)*457 + 9))
			for i := 0; i < ops; i++ {
				k := uint64(rng.Intn(hotKeys) + 1)
				switch rng.Intn(3) {
				case 0:
					if c.Put(k, uint64(w)+1) {
						tallies[w].ins[k]++
					}
				case 1:
					if c.Delete(k) {
						tallies[w].del[k]++
					}
				case 2:
					c.Get(k)
				}
			}
		}(w)
	}
	wg.Wait()

	c := st.Register()
	defer c.Close()
	for k := uint64(1); k <= hotKeys; k++ {
		var ins, del int64
		for w := 0; w < workers; w++ {
			ins += tallies[w].ins[k]
			del += tallies[w].del[k]
		}
		diff := ins - del
		_, present := c.Get(k)
		if diff != 0 && diff != 1 {
			t.Fatalf("key %d: ins=%d del=%d (diff %d)", k, ins, del, diff)
		}
		if (diff == 1) != present {
			t.Fatalf("key %d: diff=%d but present=%v", k, diff, present)
		}
	}
}

// rmwCounter is the lost-update test: all workers increment a few hot
// keys through ReadModifyWrite; with atomic upserts the final sums must
// equal the exact number of increments.
func rmwCounter(t *testing.T, f kv.Factory, opt config) {
	st := opt.store(f)
	const workers = 8
	const keys = 4
	const ops = 600
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			c := st.Register()
			defer c.Close()
			rng := rand.New(rand.NewSource(int64(w)*911 + 2))
			for i := 0; i < ops; i++ {
				k := uint64(rng.Intn(keys) + 1)
				c.ReadModifyWrite(k, func(o uint64, _ bool) uint64 { return o + 1 })
			}
		}(w)
	}
	wg.Wait()
	c := st.Register()
	defer c.Close()
	var total uint64
	for k := uint64(1); k <= keys; k++ {
		v, ok := c.Get(k)
		if !ok {
			t.Fatalf("hot key %d absent after increments", k)
		}
		total += v
	}
	if total != workers*ops {
		t.Fatalf("lost updates: %d increments survived, want %d", total, workers*ops)
	}
}

// linearizable records a contended multi-worker Get/Put/Delete/RMW
// history and verifies a legal sequential witness exists. stallEvery > 0
// additionally injects descheduling inside critical sections so most
// operations complete via helping.
func linearizable(t *testing.T, f kv.Factory, opt config, stallEvery int) {
	st := opt.store(f)
	st.SetStallInjection(stallEvery)
	const workers = 6
	const keys = 4
	opsPer := 200
	if stallEvery > 0 {
		opsPer = 80
	}

	var clock atomic.Int64
	hists := make([][]lincheck.Op, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			c := st.Register()
			defer c.Close()
			rng := rand.New(rand.NewSource(int64(w)*1777 + 7))
			rec := func(op lincheck.Op) { hists[w] = append(hists[w], op) }
			for i := 0; i < opsPer; i++ {
				k := uint64(rng.Intn(keys) + 1)
				switch rng.Intn(4) {
				case 0:
					v := uint64(w)*100000 + uint64(i)
					s := clock.Add(1)
					ins := c.Put(k, v)
					e := clock.Add(1)
					rec(lincheck.Op{Kind: lincheck.KPut, Key: k, Arg: v, Ok: !ins, Start: s, End: e, Worker: w})
				case 1:
					s := clock.Add(1)
					ok := c.Delete(k)
					e := clock.Add(1)
					rec(lincheck.Op{Kind: lincheck.KDelete, Key: k, Ok: ok, Start: s, End: e, Worker: w})
				case 2:
					delta := uint64(w)*100000 + 50000 + uint64(i)
					s := clock.Add(1)
					old, present := c.ReadModifyWrite(k, func(o uint64, _ bool) uint64 { return o + delta })
					e := clock.Add(1)
					rec(lincheck.Op{Kind: lincheck.KUpsert, Key: k, Arg: old + delta, Ok: present, Val: old, Start: s, End: e, Worker: w})
				default:
					s := clock.Add(1)
					v, ok := c.Get(k)
					e := clock.Add(1)
					rec(lincheck.Op{Kind: lincheck.KFind, Key: k, Ok: ok, Val: v, Start: s, End: e, Worker: w})
				}
			}
		}(w)
	}
	wg.Wait()
	var all []lincheck.Op
	for _, h := range hists {
		all = append(all, h...)
	}
	if res := lincheck.Check(all); !res.Ok {
		t.Fatalf("history of %d ops: %v", len(all), res)
	}
}

// oversubscribed runs many more clients than GOMAXPROCS over disjoint
// key partitions (RMW counters per key, so the final state is exact for
// fallback stores too), with deschedule injection in lock-free mode.
func oversubscribed(t *testing.T, f kv.Factory, opt config) {
	st := opt.store(f)
	if !opt.Blocking {
		st.SetStallInjection(50)
	}
	const workers = 24
	const keysPer = 6
	const ops = 300

	counts := make([]map[uint64]uint64, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			c := st.Register()
			defer c.Close()
			rng := rand.New(rand.NewSource(int64(w)*37 + 5))
			mine := map[uint64]uint64{}
			key := func(i int) uint64 { return uint64(w + 1 + i*workers) }
			for i := 0; i < ops; i++ {
				k := key(rng.Intn(keysPer))
				c.ReadModifyWrite(k, func(o uint64, _ bool) uint64 { return o + 1 })
				mine[k]++
			}
			counts[w] = mine
		}(w)
	}
	wg.Wait()

	c := st.Register()
	defer c.Close()
	for w := 0; w < workers; w++ {
		for k, want := range counts[w] {
			v, ok := c.Get(k)
			if !ok || v != want {
				t.Fatalf("key %d (worker %d): got (%d,%v), want %d increments", k, w, v, ok, want)
			}
		}
	}
}
