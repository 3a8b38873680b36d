package kv

import (
	"bytes"
	"encoding/binary"
	"hash/fnv"
	"math"
	"testing"

	flock "flock/internal/core"
	"flock/internal/structures/leaftree"
	"flock/internal/structures/set"
)

// TestSnapshotTransitionReplayCannotLand replays the CAS of every
// registry transition (installSnaps' whole body) after the registry has
// moved on, as a straggling helper of an activation or deactivation
// section does. Every transition must install a value the registry
// never held before, so no replay lands.
//
// When deactivation installed nil, a replayed activation of a closed
// snapshot found nil again and put the closed snapshot back. Landing
// between a later activation's read of the registry and its own CAS, it
// made that CAS fail: the new snapshot was never registered, its overlay
// recorded no pre-images, and its iteration showed writes made after
// activation. That was the rare "NOT linearizable" failure of txntest's
// LinTx snapshot observer on the lock-free hashtable store.
func TestSnapshotTransitionReplayCannotLand(t *testing.T) {
	st := NewComposed(func(rt *flock.Runtime, _ uint64) set.Set { return leaftree.New(rt) },
		Options{Shards: 4})
	type transition struct{ old, next *snapList }
	var done []transition
	step := func(f func()) {
		old := st.snaps.Load()
		f()
		done = append(done, transition{old, st.snaps.Load()})
	}
	var s1, s2 *Snapshot
	step(func() { s1 = st.Snapshot() })
	step(s1.Close)
	step(func() { s2 = st.Snapshot() })
	step(func() { st.Snapshot().Close() })
	step(s2.Close)
	for i, tr := range done {
		if tr.old == tr.next {
			t.Fatalf("transition %d installed the registry it replaced", i)
		}
		if st.snaps.CompareAndSwap(tr.old, tr.next) {
			t.Fatalf("a replay of transition %d landed: registry back to %v", i, tr.next)
		}
	}
	if reg := st.snaps.Load(); reg != nil && len(reg.snaps) > 0 {
		t.Fatalf("registry names %d snapshots after every snapshot closed", len(reg.snaps))
	}
	s3 := st.Snapshot()
	defer s3.Close()
	if reg := st.snaps.Load(); len(reg.snaps) != 1 || reg.snaps[0] != s3 {
		t.Fatalf("registry after a new activation = %v, want exactly the new snapshot", reg.snaps)
	}
}

// TestRestoreRefusesKeysOutsideKeySpace feeds Restore well-formed dump
// streams (valid magic, count and checksum) whose one record carries a
// key outside [1, set.MaxKey]. MaxUint64-1 is leaftree's inner
// sentinel: upserting it would collide with the sentinel leaf. Restore
// reads outside input, so it must refuse the record with an error before
// it reaches a structure, and never panic.
func TestRestoreRefusesKeysOutsideKeySpace(t *testing.T) {
	for _, k := range []uint64{0, set.MaxKey + 1, math.MaxUint64 - 1} {
		h := fnv.New64a()
		var rec [16]byte
		binary.LittleEndian.PutUint64(rec[:8], k)
		binary.LittleEndian.PutUint64(rec[8:], 5)
		h.Write(rec[:])
		stream := append([]byte(dumpMagic), rec[:]...)
		binary.LittleEndian.PutUint64(rec[:8], math.MaxUint64)
		binary.LittleEndian.PutUint64(rec[8:], 1)
		stream = append(stream, rec[:]...)
		stream = binary.LittleEndian.AppendUint64(stream, h.Sum64())

		st := New(func(rt *flock.Runtime, _ uint64) set.Set { return leaftree.New(rt) }, Options{Shards: 2})
		if _, err := st.Restore(bytes.NewReader(stream)); err == nil {
			t.Fatalf("Restore accepted key %#x", k)
		}
		c := st.Register()
		if got := c.Scan(0, math.MaxUint64, -1); len(got) != 0 {
			t.Fatalf("Restore of key %#x left %v behind", k, got)
		}
		c.Close()
	}
	// The top key itself restores.
	var buf bytes.Buffer
	src := New(func(rt *flock.Runtime, _ uint64) set.Set { return leaftree.New(rt) }, Options{Shards: 2})
	c := src.Register()
	c.Put(set.MaxKey, 9)
	c.Close()
	sn := src.Snapshot()
	if err := sn.Dump(&buf); err != nil {
		t.Fatal(err)
	}
	sn.Close()
	dst := New(func(rt *flock.Runtime, _ uint64) set.Set { return leaftree.New(rt) }, Options{Shards: 2})
	if n, err := dst.Restore(&buf); err != nil || n != 1 {
		t.Fatalf("Restore of key MaxKey = (%d, %v), want (1, nil)", n, err)
	}
}
