// Package txntest is the conformance suite for txn.Store, mirroring
// kvtest for the KV layer: the transactional layer is verified the same
// way as the stores and structures it composes.
//
// The suite covers, per lock mode (lock-free, blocking) and shard
// count:
//   - sequential differential testing of MultiGet/MultiPut/MultiCAS/
//     Transfer/Txn against a map model,
//   - the conserved-sum invariant: concurrent Transfers over a fixed
//     account pool while concurrent full-pool MultiGet snapshots assert
//     that every snapshot sums to the initial total — the canonical
//     torn-write detector,
//   - transactional linearizability: recorded multi-key histories must
//     have a sequential witness (lincheck.CheckTx); on scannable stores
//     the history additionally interleaves whole-store Snapshot()
//     iterations, each recorded as one read-only transaction over the
//     entire key universe — a snapshot that observed a torn transaction
//     (or a state no serialization point ever held) has no witness,
//   - an oversubscribed pass (workers >> GOMAXPROCS), with deschedule
//     injection in lock-free mode so most transactions complete via
//     helping.
//
// The ext-txn figures' non-atomic baseline (harness.PerKey) is not a
// store mode, so it is not run here; txn's conformance tests check it
// single-threaded against a lock-free client.
package txntest

import (
	"fmt"
	"math"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"

	"flock/internal/kv"
	"flock/internal/lincheck"
	"flock/internal/txn"
)

// Modes lists the store arms the suite exercises for atomicity.
var Modes = []txn.Mode{txn.LockFree, txn.Blocking}

// Run executes the full suite against the factory.
func Run(t *testing.T, f kv.Factory) {
	t.Helper()
	for _, mode := range Modes {
		for _, shards := range []int{1, 4} {
			mode, shards := mode, shards
			opt := txn.Options{Shards: shards, Mode: mode, KeyRange: 4096}
			t.Run(fmt.Sprintf("%s/shards=%d", mode, shards), func(t *testing.T) {
				t.Run("SequentialModel", func(t *testing.T) { sequentialModel(t, f, opt) })
				t.Run("ConservedSum", func(t *testing.T) { conservedSum(t, f, opt, 0) })
				t.Run("LinTx", func(t *testing.T) { linTx(t, f, opt, 0) })
				t.Run("Oversubscribed", func(t *testing.T) { oversubscribed(t, f, opt) })
				if mode == txn.LockFree {
					t.Run("ConservedSumWithStalls", func(t *testing.T) { conservedSum(t, f, opt, 20) })
					t.Run("LinTxWithStalls", func(t *testing.T) { linTx(t, f, opt, 20) })
				}
			})
		}
	}
}

// sequentialModel drives one client through a scripted mix of every
// transactional operation and compares all return values against a map.
func sequentialModel(t *testing.T, f kv.Factory, opt txn.Options) {
	st := txn.New(f, opt)
	c := st.Register()
	defer c.Close()
	model := map[uint64]uint64{}
	rng := rand.New(rand.NewSource(31))
	const keySpace = 200
	key := func() uint64 { return uint64(rng.Intn(keySpace) + 1) }

	for i := 0; i < 1500; i++ {
		switch rng.Intn(5) {
		case 0: // MultiPut, with occasional in-batch duplicates
			n := rng.Intn(4) + 1
			keys := make([]uint64, n)
			vals := make([]uint64, n)
			for j := range keys {
				keys[j], vals[j] = key(), rng.Uint64()
			}
			wantIns := 0
			seen := map[uint64]bool{}
			for _, k := range keys {
				if _, had := model[k]; !had && !seen[k] {
					wantIns++
				}
				seen[k] = true
			}
			if got := c.MultiPut(keys, vals); got != wantIns {
				t.Fatalf("op %d: MultiPut inserted %d, want %d", i, got, wantIns)
			}
			for j, k := range keys {
				model[k] = vals[j] // input order: later duplicates win
			}
		case 1: // MultiGet
			n := rng.Intn(5) + 1
			keys := make([]uint64, n)
			for j := range keys {
				keys[j] = key()
			}
			vals, oks := c.MultiGet(keys)
			for j, k := range keys {
				want, had := model[k]
				if oks[j] != had || (had && vals[j] != want) {
					t.Fatalf("op %d: MultiGet[%d] key %d = (%d,%v), model (%d,%v)",
						i, j, k, vals[j], oks[j], want, had)
				}
			}
		case 2: // MultiCAS, half with correct expectations
			n := rng.Intn(3) + 1
			keys := make([]uint64, n)
			expect := make([]uint64, n)
			desired := make([]uint64, n)
			for j := range keys {
				keys[j] = key()
				desired[j] = rng.Uint64()
				if v, had := model[keys[j]]; had && rng.Intn(2) == 0 {
					expect[j] = v
				} else {
					expect[j] = rng.Uint64() | 1<<63 // unlikely to match
				}
			}
			// CAS reads all keys at one serialization point, so
			// duplicate keys compare against the same pre-state.
			want := true
			for j, k := range keys {
				v, had := model[k]
				if !had || v != expect[j] {
					want = false
					break
				}
			}
			got := c.MultiCAS(keys, expect, desired)
			if got != want {
				t.Fatalf("op %d: MultiCAS = %v, want %v", i, got, want)
			}
			if got {
				for j, k := range keys {
					model[k] = desired[j]
				}
			}
		case 3: // Transfer
			a, b := key(), key()
			amt := uint64(rng.Intn(50))
			va, hada := model[a]
			vb, hadb := model[b]
			want := a != b && hada && hadb && va >= amt
			if got := c.Transfer(a, b, amt); got != want {
				t.Fatalf("op %d: Transfer(%d,%d,%d) = %v, want %v", i, a, b, amt, got, want)
			}
			if want {
				model[a] = va - amt
				model[b] = vb + amt
			}
		default: // generic Txn: conditional increment of a read set
			n := rng.Intn(3) + 1
			keys := make([]uint64, n)
			for j := range keys {
				keys[j] = key()
			}
			vals, oks, committed := c.Txn(keys, keys, func(vals []uint64, oks []bool) ([]uint64, bool) {
				out := make([]uint64, len(vals))
				for j := range vals {
					out[j] = vals[j] + 1 // upsert: absent becomes 1
				}
				return out, true
			})
			if !committed {
				t.Fatalf("op %d: unconditional Txn did not commit", i)
			}
			// Duplicate keys read one pre-state; later writes win.
			pre := map[uint64]uint64{}
			for j, k := range keys {
				want, had := model[k]
				if oks[j] != had || (had && vals[j] != want) {
					t.Fatalf("op %d: Txn read[%d] key %d = (%d,%v), model (%d,%v)",
						i, j, k, vals[j], oks[j], want, had)
				}
				pre[k] = want
			}
			for _, k := range keys {
				model[k] = pre[k] + 1
			}
		}
	}
	for k := uint64(1); k <= keySpace; k++ {
		want, had := model[k]
		v, ok := c.Get(k)
		if ok != had || (had && v != want) {
			t.Fatalf("final sweep: key %d = (%d,%v), model (%d,%v)", k, v, ok, want, had)
		}
	}
}

// conservedSum is the torn-write detector: a fixed pool of accounts,
// concurrent random Transfers, and concurrent full-pool snapshots that
// must each observe the exact initial total.
func conservedSum(t *testing.T, f kv.Factory, opt txn.Options, stallEvery int) {
	st := txn.New(f, opt)
	const accounts = 12
	const initial = uint64(1000)
	const transferWorkers = 6
	const snapshotWorkers = 2
	const transfers = 400
	const snapshots = 120

	setup := st.Register()
	keys := make([]uint64, accounts)
	vals := make([]uint64, accounts)
	for i := range keys {
		keys[i] = uint64(i + 1)
		vals[i] = initial
	}
	if ins := setup.MultiPut(keys, vals); ins != accounts {
		t.Fatalf("setup inserted %d accounts, want %d", ins, accounts)
	}
	setup.Close()
	st.SetStallInjection(stallEvery)
	const total = accounts * initial

	var wg sync.WaitGroup
	var failed atomic.Bool
	for w := 0; w < transferWorkers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			c := st.Register()
			defer c.Close()
			rng := rand.New(rand.NewSource(int64(w)*131 + 17))
			for i := 0; i < transfers && !failed.Load(); i++ {
				a := uint64(rng.Intn(accounts) + 1)
				b := uint64(rng.Intn(accounts) + 1)
				c.Transfer(a, b, uint64(rng.Intn(200)+1))
			}
		}(w)
	}
	for w := 0; w < snapshotWorkers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			c := st.Register()
			defer c.Close()
			for i := 0; i < snapshots && !failed.Load(); i++ {
				vals, oks := c.MultiGet(keys)
				var sum uint64
				for j := range vals {
					if !oks[j] {
						failed.Store(true)
						t.Errorf("snapshot %d: account %d missing", i, keys[j])
						return
					}
					sum += vals[j]
				}
				if sum != total {
					failed.Store(true)
					t.Errorf("snapshot %d: sum %d, want %d (torn transfer observed)", i, sum, total)
					return
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
	vals2, oks2 := c.MultiGet(keys)
	var sum uint64
	for j := range vals2 {
		if !oks2[j] {
			t.Fatalf("final: account %d missing", keys[j])
		}
		sum += vals2[j]
	}
	if sum != total {
		t.Fatalf("final sum %d, want %d", sum, total)
	}
}

// linTx records a contended multi-worker transactional history and
// verifies a sequential witness exists (lincheck.CheckTx).
func linTx(t *testing.T, f kv.Factory, opt txn.Options, stallEvery int) {
	st := txn.New(f, opt)
	st.SetStallInjection(stallEvery)
	const workers = 5
	const keys = 5
	opsPer := 60
	if stallEvery > 0 {
		opsPer = 30
	}

	var clock atomic.Int64
	hists := make([][]lincheck.TxOp, workers)

	// Snapshot observer: on scannable stores, whole-store Snapshot()
	// iterations run concurrently with the transaction mix and enter the
	// history as read-only transactions over the full key universe
	// (absent keys included, so the snapshot constrains the entire map
	// state at its serialization point). All writers here are
	// transactional — they hold shard locks — which is exactly the class
	// of writers Snapshot() is atomic against.
	var snapHist []lincheck.TxOp
	var snapWG sync.WaitGroup
	workersDone := make(chan struct{})
	if st.KV().Scannable() {
		snapWG.Add(1)
		go func() {
			defer snapWG.Done()
			for i := 0; ; i++ {
				select {
				case <-workersDone:
					if i > 0 {
						return // at least one snapshot overlapped the storm
					}
				default:
				}
				s := clock.Add(1)
				sn := st.KV().Snapshot()
				got := map[uint64]uint64{}
				sn.Iterate(0, math.MaxUint64, func(k, v uint64) bool {
					got[k] = v
					return true
				})
				sn.Close()
				e := clock.Add(1)
				rd := make([]lincheck.KVObs, 0, keys)
				for k := uint64(1); k <= keys; k++ {
					v, ok := got[k]
					rd = append(rd, lincheck.KVObs{Key: k, Val: v, Ok: ok})
				}
				snapHist = append(snapHist, lincheck.TxOp{Reads: rd, Start: s, End: e, Worker: workers})
			}
		}()
	}

	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			c := st.Register()
			defer c.Close()
			rng := rand.New(rand.NewSource(int64(w)*977 + 3))
			rec := func(op lincheck.TxOp) { hists[w] = append(hists[w], op) }
			key := func() uint64 { return uint64(rng.Intn(keys) + 1) }
			for i := 0; i < opsPer; i++ {
				switch rng.Intn(4) {
				case 0: // MultiPut of two keys
					ks := []uint64{key(), key()}
					vs := []uint64{uint64(w)<<32 | uint64(i)<<2, uint64(w)<<32 | uint64(i)<<2 | 1}
					s := clock.Add(1)
					c.MultiPut(ks, vs)
					e := clock.Add(1)
					var wr []lincheck.KVObs
					for j := range ks {
						wr = append(wr, lincheck.KVObs{Key: ks[j], Val: vs[j]})
					}
					rec(lincheck.TxOp{Writes: wr, Start: s, End: e, Worker: w})
				case 1: // MultiGet snapshot of three keys
					ks := []uint64{key(), key(), key()}
					s := clock.Add(1)
					vals, oks := c.MultiGet(ks)
					e := clock.Add(1)
					var rd []lincheck.KVObs
					for j := range ks {
						rd = append(rd, lincheck.KVObs{Key: ks[j], Val: vals[j], Ok: oks[j]})
					}
					rec(lincheck.TxOp{Reads: rd, Start: s, End: e, Worker: w})
				case 2: // MultiCAS guessing current values
					ks := []uint64{key()}
					pre, _ := c.MultiGet(ks) // hint only; may be stale by CAS time
					expect := []uint64{pre[0]}
					desired := []uint64{uint64(w)<<32 | uint64(i)<<2 | 2}
					s := clock.Add(1)
					ok := c.MultiCAS(ks, expect, desired)
					e := clock.Add(1)
					if ok {
						rec(lincheck.TxOp{
							Reads:  []lincheck.KVObs{{Key: ks[0], Val: expect[0], Ok: true}},
							Writes: []lincheck.KVObs{{Key: ks[0], Val: desired[0]}},
							Start:  s, End: e, Worker: w,
						})
					} else {
						rec(lincheck.TxOp{
							Reads:     []lincheck.KVObs{{Key: ks[0], Val: expect[0], Ok: true}},
							FailedCAS: true,
							Start:     s, End: e, Worker: w,
						})
					}
				default: // transfer-shaped generic Txn, recording its reads
					a, b := key(), key()
					if a == b {
						continue
					}
					const amt = 1
					s := clock.Add(1)
					vals, oks, committed := c.Txn([]uint64{a, b}, []uint64{a, b},
						func(vals []uint64, oks []bool) ([]uint64, bool) {
							if !oks[0] || !oks[1] || vals[0] < amt {
								return nil, false
							}
							return []uint64{vals[0] - amt, vals[1] + amt}, true
						})
					e := clock.Add(1)
					rd := []lincheck.KVObs{
						{Key: a, Val: vals[0], Ok: oks[0]},
						{Key: b, Val: vals[1], Ok: oks[1]},
					}
					op := lincheck.TxOp{Reads: rd, Start: s, End: e, Worker: w}
					if committed {
						op.Writes = []lincheck.KVObs{
							{Key: a, Val: vals[0] - amt},
							{Key: b, Val: vals[1] + amt},
						}
					}
					rec(op)
				}
			}
		}(w)
	}
	wg.Wait()
	close(workersDone)
	snapWG.Wait()
	var all []lincheck.TxOp
	for _, h := range hists {
		all = append(all, h...)
	}
	all = append(all, snapHist...)
	if res := lincheck.CheckTx(all); !res.Ok {
		t.Fatalf("history of %d transactions (%d snapshots): %v", len(all), len(snapHist), res)
	}
}

// oversubscribed runs many more clients than GOMAXPROCS doing transfers
// over a shared account pool (plus snapshot readers), with deschedule
// injection in lock-free mode, and checks the conserved sum at the end.
func oversubscribed(t *testing.T, f kv.Factory, opt txn.Options) {
	st := txn.New(f, opt)
	const accounts = 8
	const initial = uint64(500)

	setup := st.Register()
	keys := make([]uint64, accounts)
	vals := make([]uint64, accounts)
	for i := range keys {
		keys[i], vals[i] = uint64(i+1), initial
	}
	setup.MultiPut(keys, vals)
	setup.Close()
	if opt.Mode == txn.LockFree {
		st.SetStallInjection(40)
	}

	const workers = 20
	const ops = 120
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			c := st.Register()
			defer c.Close()
			rng := rand.New(rand.NewSource(int64(w)*59 + 11))
			for i := 0; i < ops; i++ {
				if rng.Intn(5) == 0 {
					c.MultiGet(keys)
					continue
				}
				a := uint64(rng.Intn(accounts) + 1)
				b := uint64(rng.Intn(accounts) + 1)
				c.Transfer(a, b, uint64(rng.Intn(100)+1))
			}
		}(w)
	}
	wg.Wait()

	c := st.Register()
	defer c.Close()
	vals2, oks2 := c.MultiGet(keys)
	var sum uint64
	for j := range vals2 {
		if !oks2[j] {
			t.Fatalf("account %d missing after transfers", keys[j])
		}
		sum += vals2[j]
	}
	if want := accounts * initial; sum != uint64(want) {
		t.Fatalf("sum %d after oversubscribed transfers, want %d", sum, want)
	}
}
