// Golden regression pin for the multi-shard execution paths: a
// deterministic recorded op sequence is driven through kv.Scan,
// kv.MultiGet, kv.Get and the txn commit paths, and every result is
// folded into one FNV-1a digest. The digest was recorded before the
// internal/kv/engine refactor, so the rehosted paths must reproduce the
// pre-refactor results byte for byte.

package engine_test

import (
	"encoding/binary"
	"hash/fnv"
	"testing"

	flock "flock/internal/core"
	"flock/internal/kv"
	"flock/internal/structures/leaftree"
	"flock/internal/structures/set"
	"flock/internal/txn"
	"flock/internal/workload"
)

// goldenDigest is the pre-refactor digest of goldenSequence's results.
// If a change to the execution paths moves this value, scan/txn results
// changed observably — that is a behaviour change, not a refactor.
const goldenDigest = 0x292bc7ac5460e861

func goldenFactory(rt *flock.Runtime, _ uint64) set.Set { return leaftree.New(rt) }

type digest struct {
	h interface{ Write([]byte) (int, error) }
}

func (d digest) u64(v uint64) {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], v)
	d.h.Write(b[:])
}

func (d digest) bool(v bool) {
	if v {
		d.u64(1)
	} else {
		d.u64(0)
	}
}

func (d digest) kvs(pairs []set.KV) {
	d.u64(uint64(len(pairs)))
	for _, kv := range pairs {
		d.u64(kv.Key)
		d.u64(kv.Value)
	}
}

// goldenKV drives one kv.Store configuration through a seeded op mix:
// a store built by kv.NewComposed when composed is set (validated
// reads), by kv.New otherwise (plain reads).
func goldenKV(d digest, shards int, composed bool, seed uint64) {
	opt := kv.Options{Shards: shards, KeyRange: 1 << 10}
	st := kv.New(goldenFactory, opt)
	if composed {
		st = kv.NewComposed(goldenFactory, opt)
	}
	c := st.Register()
	defer c.Close()
	rng := workload.NewSplitMix64(seed)
	key := func() uint64 { return rng.Next()%500 + 1 }
	for i := 0; i < 400; i++ {
		switch rng.Next() % 8 {
		case 0, 1:
			d.bool(c.Put(key(), rng.Next()%1000))
		case 2:
			d.bool(c.Delete(key()))
		case 3, 4:
			v, ok := c.Get(key())
			d.u64(v)
			d.bool(ok)
		case 5:
			lo, hi := key(), key()
			if lo > hi {
				lo, hi = hi, lo
			}
			limits := [4]int{-1, 0, 5, 50}
			d.kvs(c.Scan(lo, hi, limits[rng.Next()%4]))
		case 6:
			keys := make([]uint64, 1+rng.Next()%6)
			for j := range keys {
				keys[j] = key()
			}
			vals, oks := c.MultiGet(keys)
			for j := range keys {
				d.u64(vals[j])
				d.bool(oks[j])
			}
		case 7:
			keys := make([]uint64, 1+rng.Next()%4)
			vals := make([]uint64, len(keys))
			for j := range keys {
				keys[j], vals[j] = key(), rng.Next()%1000
			}
			d.u64(uint64(c.PutBatch(keys, vals)))
		}
	}
	d.kvs(c.Scan(0, ^uint64(0), -1))
}

// goldenTxn drives one txn.Store configuration through a seeded
// transaction mix.
func goldenTxn(d digest, mode txn.Mode, seed uint64) {
	st := txn.New(goldenFactory, txn.Options{Shards: 4, Mode: mode, KeyRange: 1 << 10})
	c := st.Register()
	defer c.Close()
	rng := workload.NewSplitMix64(seed)
	key := func() uint64 { return rng.Next()%64 + 1 }
	for k := uint64(1); k <= 64; k++ {
		c.Put(k, 100)
	}
	for i := 0; i < 300; i++ {
		switch rng.Next() % 6 {
		case 0, 1:
			d.bool(c.Transfer(key(), key(), rng.Next()%40))
		case 2:
			keys := make([]uint64, 1+rng.Next()%5)
			for j := range keys {
				keys[j] = key()
			}
			vals, oks := c.MultiGet(keys)
			for j := range keys {
				d.u64(vals[j])
				d.bool(oks[j])
			}
		case 3:
			keys := make([]uint64, 1+rng.Next()%4)
			vals := make([]uint64, len(keys))
			for j := range keys {
				keys[j], vals[j] = key(), rng.Next()%1000
			}
			d.u64(uint64(c.MultiPut(keys, vals)))
		case 4:
			k := key()
			exp := rng.Next() % 1000
			d.bool(c.MultiCAS([]uint64{k}, []uint64{exp}, []uint64{exp + 1}))
		case 5:
			rk := []uint64{key(), key()}
			wk := []uint64{key()}
			vals, oks, committed := c.Txn(rk, wk, func(vals []uint64, oks []bool) ([]uint64, bool) {
				if !oks[0] {
					return nil, false
				}
				return []uint64{vals[0] + vals[1]}, true
			})
			d.u64(vals[0])
			d.u64(vals[1])
			d.bool(oks[0])
			d.bool(oks[1])
			d.bool(committed)
		}
	}
	kc := st.KV().Register()
	defer kc.Close()
	d.kvs(kc.Scan(0, ^uint64(0), -1))
}

// goldenSequence runs every configuration arm and returns the digest.
func goldenSequence() uint64 {
	h := fnv.New64a()
	d := digest{h}
	goldenKV(d, 1, true, 11)
	goldenKV(d, 4, true, 12)
	goldenKV(d, 4, false, 13)
	goldenKV(d, 4, true, 14)
	goldenKV(d, 4, false, 15)
	goldenTxn(d, txn.LockFree, 21)
	goldenTxn(d, txn.LockFree, 22)
	goldenTxn(d, txn.Blocking, 23)
	goldenTxn(d, txn.LockFree, 24)
	return h.Sum64()
}

func TestGoldenOpSequence(t *testing.T) {
	got := goldenSequence()
	if got != goldenDigest {
		t.Fatalf("recorded op sequence digest = %#x, want %#x (scan/txn results diverged from the pre-refactor recording)", got, goldenDigest)
	}
}
