// Epoch-consistent whole-store snapshots (DESIGN.md S17). A Snapshot is
// a read-only view of the entire store that is atomic with respect to
// every lock-holding writer (transactions) while never holding the
// shard locks for the duration of the iteration. The protocol has three
// parts:
//
//  1. Activation. The registry of live snapshots (Store.snaps) flips
//     inside one brief composed critical section over every shard lock
//     — the only moment a snapshot ever holds them all. Transactions
//     serialize on those locks, so every transactional critical section
//     is strictly before or strictly after the flip: the flip IS the
//     snapshot's logical read point.
//
//  2. Pre-image overlay. After activation, every write path records the
//     overwritten key's current value (or its absence) into the
//     snapshot's per-shard overlay before applying the write, via
//     LoadOrStore — first record wins. Because the first lock-holding
//     writer to touch a key after activation records the key's
//     activation-time state, and later writers' records lose the
//     LoadOrStore, an overlay entry always holds the activation-time
//     state. Inside transactional thunks the registry pointer is read
//     through the thunk log (flock.CommitPtr): a straggling helper
//     replaying a section that committed before activation sees the
//     logged pre-activation registry and records nothing, so stale-era
//     values can never poison the overlay.
//
//  3. Fuzzy iteration with overlay repair. The iterator walks each
//     shard with a resumable chunked cursor (set.Cursor) — each chunk
//     the store kind's read: a validated optimistic scan on a store
//     built by NewComposed, a plain top-level scan on one built by
//     New — and repairs each chunk against the
//     overlay: recorded pre-images replace read values, keys recorded
//     absent-at-activation are dropped, and overlay-only keys in the
//     chunk's interval (deleted since activation) are merged back in.
//     Because overlay entries always hold activation-time state, the
//     repair is correct no matter how the chunk read interleaved with
//     lock-holding writers; validation only narrows the plain-writer
//     caveat below. Per-shard streams are k-way merged by key (hash
//     routing scatters every interval across all shards).
//
// Plain single-key Client writes never take shard locks, so with
// respect to writes racing the activation instant itself the snapshot
// is weakly consistent (the same caveat as Scan): a plain write in
// flight during activation lands entirely inside or entirely outside
// the view, per key. All transactional traffic — and any store where
// writers go through transactions, like the conserved-sum workloads —
// sees an exact atomic cut.
//
// A snapshot holds no epoch state between chunks. Structure nodes and
// value boxes are left to the garbage collector, each chunk read runs in
// its own epoch guard, and the cursor resumes by key, so a consumer that
// stalls between chunks holds nothing back.

package kv

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"io"
	"math"
	"runtime"
	"sort"
	"sync"

	flock "flock/internal/core"
	"flock/internal/kv/engine"
	"flock/internal/structures/set"
)

// snapList is one immutable version of the live-snapshot registry.
// Every transition, deactivation included, installs a freshly allocated
// snapList and never nil or a list used before, so each transition's
// CAS expects a value the registry holds once: a straggling helper
// replaying an old transition's CAS can never succeed against a
// registry that has moved on. (Store.snaps starts nil; no transition
// returns it there.)
type snapList struct {
	snaps []*Snapshot
}

// live reports whether l names any snapshot.
func (l *snapList) live() bool { return l != nil && len(l.snaps) > 0 }

// preImage is one overlay record: key k's state at activation time.
type preImage struct {
	v       uint64
	present bool
}

// Snapshot is a consistent read-only view of the whole store. Iterate,
// Dump and Close must be called from one goroutine at a time; the
// overlay writes from concurrent store writers are synchronized
// internally. Close releases the snapshot's client handle; a closed
// snapshot must not be iterated.
type Snapshot struct {
	st     *Store
	c      *Client    // dedicated handle for iterator reads
	over   []sync.Map // per-shard overlay: uint64 key -> preImage
	vers   []uint64   // best-effort activation version vector
	closed bool
}

// snapRecord records key k's pre-image on shard i into every live
// snapshot's overlay. Write paths call it immediately before applying
// a write; record-before-write plus LoadOrStore first-wins is what
// keeps overlay entries at activation-time state (see the package
// comment's part 2). With no live snapshot the cost is one atomic load
// at top level and one committed log slot inside thunks (the commit is
// unconditional there: all runs of a thunk must consume identical log
// positions, so the branch cannot depend on an unlogged load).
func (st *Store) snapRecord(p *flock.Proc, i int, k uint64) {
	st.snapRecordAt(p, i, set.Position{}, k)
}

// snapRecordAt is snapRecord for a write located at at (ShardPutAt):
// the pre-image is read from the same position.
func (st *Store) snapRecordAt(p *flock.Proc, i int, at set.Position, k uint64) {
	reg := st.snaps.Load()
	if !p.InThunk() {
		if !reg.live() {
			return
		}
		v, ok := st.shards[i].s.Find(p, k)
		reg.record(i, k, v, ok)
		return
	}
	// Transactional writes: all runs of the thunk must agree on which
	// registry they saw, or a straggler replaying a pre-activation
	// section would pair the new registry with old-era logged values.
	creg, _ := flock.CommitPtr(p, reg)
	if !creg.live() {
		return
	}
	// Logged read: every run records the same pre-image, and within the
	// critical section it is the value before this section's write.
	v, ok := st.shards[i].findAt(p, at, k)
	creg.record(i, k, v, ok)
}

func (l *snapList) record(i int, k, v uint64, present bool) {
	for _, sn := range l.snaps {
		sn.over[i].LoadOrStore(k, preImage{v: v, present: present})
	}
}

// Snapshot captures a consistent read-only view of the whole store (see
// the package comment in this file for the protocol and its exact
// consistency contract). It panics if the store's structure does not
// implement set.Scanner. The snapshot holds a registered client until
// Close; creation cost is one brief composed section over every shard
// lock.
func (st *Store) Snapshot() *Snapshot {
	if !st.scan {
		panic(fmt.Sprintf("kv: Snapshot on a store whose structure (%T) does not implement set.Scanner", st.shards[0].s))
	}
	sn := &Snapshot{
		st:   st,
		c:    st.Register(),
		over: make([]sync.Map, len(st.shards)),
	}
	st.snapMu.Lock()
	old := st.snaps.Load()
	var snaps []*Snapshot
	if old != nil {
		snaps = append(snaps, old.snaps...)
	}
	st.installSnaps(sn.c, old, &snapList{snaps: append(snaps, sn)})
	st.snapMu.Unlock()
	sn.vers = st.captureVersions()
	return sn
}

// installSnaps flips the registry from old to next inside one composed
// critical section over every shard lock — the activation cut — retried
// until the chain is acquired once. On a store built by New no writer
// holds those locks, so the section only orders activation against
// other snapshot transitions; the cost is one brief section either way.
// The body's CAS is idempotent across helper runs and replay-safe: only
// the first run can move old to next, and a straggler replaying this
// transition after a later one has installed a different (fresh) list
// fails the CAS.
func (st *Store) installSnaps(c *Client, old, next *snapList) {
	all := st.eng.AllShards()
	for !st.eng.Nest(c.p, all, func(*flock.Proc) { st.snaps.CompareAndSwap(old, next) }) {
		runtime.Gosched() // the failed TryLock already helped the holder
	}
}

// captureVersions samples every shard lock's version just after
// activation, retrying briefly past in-flight critical sections. The
// vector is observability only (Snapshot.Versions) — the iterator's
// correctness never depends on it, because versions cannot be read
// while the activation section itself holds the locks.
func (st *Store) captureVersions() []uint64 {
	out := make([]uint64, len(st.shards))
	for i := range st.shards {
		for a := 0; a < 16; a++ {
			if v, ok := st.shards[i].lck.ReadVersion(); ok {
				out[i] = v
				break
			}
		}
	}
	return out
}

// Versions returns the best-effort per-shard lock version vector
// sampled at activation (a copy; observability only).
func (s *Snapshot) Versions() []uint64 {
	return append([]uint64(nil), s.vers...)
}

// Close deactivates the snapshot: the registry flips past it inside the
// same locked section as activation and its client handle closes.
// Idempotent.
func (s *Snapshot) Close() {
	if s.closed {
		return
	}
	st := s.st
	st.snapMu.Lock()
	old := st.snaps.Load()
	var kept []*Snapshot
	if old != nil {
		for _, sn := range old.snaps {
			if sn != s {
				kept = append(kept, sn)
			}
		}
	}
	st.installSnaps(s.c, old, &snapList{snaps: kept})
	st.snapMu.Unlock()
	s.c.Close()
	s.closed = true
}

// snapChunk is the per-shard cursor chunk size: large enough to
// amortize the per-chunk overlay sweep, small enough that no chunk read
// pins a shard's optimistic window for long.
const snapChunk = 256

// chunk reads up to snapChunk raw pairs from shard i over [pos, hi]
// with the store kind's read: a version-validated scan through the
// engine on a store built by NewComposed, a plain top-level scan on one
// built by New, whose writers hold no shard lock to validate against.
// Overlay repair reconstructs activation-time state whatever the
// interleaving with lock-holding writers; validation merely narrows the
// plain-writer fuzz window.
func (s *Snapshot) chunk(i int, pos, hi uint64) []set.KV {
	st := s.st
	sh := &st.shards[i]
	if !st.composed {
		return sh.sc.Scan(s.c.p, pos, hi, snapChunk)
	}
	var run []set.KV
	st.eng.Optimistic(s.c.p, []int{i}, func(int) {
		run = sh.sc.Scan(s.c.p, pos, hi, snapChunk)
	})
	return run
}

// patch repairs one raw chunk covering [pos, end] against shard i's
// overlay: pre-images replace read values, keys recorded absent at
// activation are dropped, and overlay-only keys inside the interval
// (present at activation, deleted since) are merged back in. raw is
// sorted ascending; the result is too.
func (s *Snapshot) patch(i int, raw []set.KV, pos, end uint64) []set.KV {
	over := &s.over[i]
	out := make([]set.KV, 0, len(raw))
	for _, kv := range raw {
		if e, ok := over.Load(kv.Key); ok {
			pi := e.(preImage)
			if pi.present {
				out = append(out, set.KV{Key: kv.Key, Value: pi.v})
			}
			continue
		}
		out = append(out, kv)
	}
	var extra []set.KV
	over.Range(func(key, val any) bool {
		k := key.(uint64)
		if k < pos || k > end {
			return true
		}
		pi := val.(preImage)
		if !pi.present {
			return true
		}
		j := sort.Search(len(raw), func(n int) bool { return raw[n].Key >= k })
		if j < len(raw) && raw[j].Key == k {
			return true // read by the chunk; already patched above
		}
		extra = append(extra, set.KV{Key: k, Value: pi.v})
		return true
	})
	if len(extra) == 0 {
		return out
	}
	sort.Slice(extra, func(a, b int) bool { return extra[a].Key < extra[b].Key })
	return engine.MergeRuns([][]set.KV{out, extra}, -1)
}

// shardSnapIter streams one shard's repaired pairs: a set.Cursor over
// the raw structure (resumption by key, so nothing is pinned between
// chunks) feeding patched, buffered runs.
type shardSnapIter struct {
	s   *Snapshot
	i   int
	cur *set.Cursor
	buf []set.KV
	pos int
}

// head returns the iterator's next pair without consuming it, refilling
// from the cursor as needed (a patched chunk can be empty even when the
// raw read was not — every key dropped as absent-at-activation).
func (it *shardSnapIter) head() (set.KV, bool) {
	for it.pos >= len(it.buf) && !it.cur.Done() {
		pos := it.cur.Pos()
		raw := it.s.chunk(it.i, pos, it.cur.Hi())
		end := it.cur.Hi()
		if len(raw) == snapChunk {
			end = raw[len(raw)-1].Key
		}
		it.cur.Advance(raw, snapChunk)
		it.buf = it.s.patch(it.i, raw, pos, end)
		it.pos = 0
	}
	if it.pos < len(it.buf) {
		return it.buf[it.pos], true
	}
	return set.KV{}, false
}

// Iterate streams the snapshot's pairs with lo <= key <= hi in
// ascending key order, calling fn for each pair until it returns false
// or the interval is exhausted (0 and math.MaxUint64 are the usual
// open-interval sentinels). Hash routing scatters every interval across
// all shards, so the per-shard streams are k-way merged by key.
func (s *Snapshot) Iterate(lo, hi uint64, fn func(k, v uint64) bool) {
	if s.closed {
		panic("kv: Iterate on a closed Snapshot")
	}
	lo, hi = set.ClampScanBounds(lo, hi)
	if lo > hi {
		return
	}
	its := make([]*shardSnapIter, len(s.st.shards))
	for i := range its {
		its[i] = &shardSnapIter{s: s, i: i, cur: set.NewCursor(s.st.shards[i].sc, lo, hi)}
	}
	for {
		best := -1
		var bk set.KV
		for i := range its {
			kv, ok := its[i].head()
			if ok && (best == -1 || kv.Key < bk.Key) {
				best, bk = i, kv
			}
		}
		if best == -1 {
			return
		}
		its[best].pos++
		if !fn(bk.Key, bk.Value) {
			return
		}
	}
}

// Len counts the snapshot's pairs (a full iteration).
func (s *Snapshot) Len() int {
	n := 0
	s.Iterate(0, math.MaxUint64, func(uint64, uint64) bool { n++; return true })
	return n
}

// dumpMagic identifies the streaming dump format: the magic, then
// 16-byte little-endian (key, value) records in ascending key order,
// then a trailer record whose key is math.MaxUint64 (never a real key)
// and whose value is the record count, then the 8-byte FNV-1a checksum
// of all data records.
const dumpMagic = "FLKSNAP1"

// Dump streams the whole snapshot to w in the dumpMagic format. The
// stream is produced by one Iterate pass — bounded memory, no
// whole-store materialization — and carries a count and checksum
// trailer so Restore can verify integrity end to end.
func (s *Snapshot) Dump(w io.Writer) error {
	bw := bufio.NewWriter(w)
	if _, err := bw.WriteString(dumpMagic); err != nil {
		return err
	}
	h := fnv.New64a()
	var rec [16]byte
	var count uint64
	var werr error
	s.Iterate(0, math.MaxUint64, func(k, v uint64) bool {
		binary.LittleEndian.PutUint64(rec[:8], k)
		binary.LittleEndian.PutUint64(rec[8:], v)
		h.Write(rec[:])
		if _, err := bw.Write(rec[:]); err != nil {
			werr = err
			return false
		}
		count++
		return true
	})
	if werr != nil {
		return werr
	}
	binary.LittleEndian.PutUint64(rec[:8], math.MaxUint64)
	binary.LittleEndian.PutUint64(rec[8:], count)
	if _, err := bw.Write(rec[:]); err != nil {
		return err
	}
	var sum [8]byte
	binary.LittleEndian.PutUint64(sum[:], h.Sum64())
	if _, err := bw.Write(sum[:]); err != nil {
		return err
	}
	return bw.Flush()
}

// Restore loads a Dump stream into the store, upserting every record
// (typically into a fresh store), and returns how many pairs were
// applied. Records stream in batches as they are read, so a stream
// whose trailer fails verification can leave a partial restore behind;
// the error reports exactly which check failed (magic, truncation, a
// key outside the structures' key space [1, set.MaxKey], count or
// checksum). A record with such a key is refused before it reaches a
// structure.
func (st *Store) Restore(r io.Reader) (int, error) {
	br := bufio.NewReader(r)
	magic := make([]byte, len(dumpMagic))
	if _, err := io.ReadFull(br, magic); err != nil {
		return 0, fmt.Errorf("kv: reading dump magic: %w", err)
	}
	if string(magic) != dumpMagic {
		return 0, fmt.Errorf("kv: bad dump magic %q", magic)
	}
	c := st.Register()
	defer c.Close()
	h := fnv.New64a()
	var rec [16]byte
	var count uint64
	keys := make([]uint64, 0, snapChunk)
	vals := make([]uint64, 0, snapChunk)
	flush := func() {
		if len(keys) > 0 {
			c.PutBatch(keys, vals)
			keys, vals = keys[:0], vals[:0]
		}
	}
	for {
		if _, err := io.ReadFull(br, rec[:]); err != nil {
			return int(count), fmt.Errorf("kv: truncated dump after %d records: %w", count, err)
		}
		k := binary.LittleEndian.Uint64(rec[:8])
		if k == math.MaxUint64 { // trailer
			declared := binary.LittleEndian.Uint64(rec[8:])
			if declared != count {
				return int(count), fmt.Errorf("kv: dump record count %d, trailer declares %d", count, declared)
			}
			var sum [8]byte
			if _, err := io.ReadFull(br, sum[:]); err != nil {
				return int(count), fmt.Errorf("kv: truncated dump checksum: %w", err)
			}
			if got := binary.LittleEndian.Uint64(sum[:]); got != h.Sum64() {
				return int(count), fmt.Errorf("kv: dump checksum mismatch: stream %#x, computed %#x", got, h.Sum64())
			}
			flush()
			return int(count), nil
		}
		if k == 0 || k > set.MaxKey {
			return int(count), fmt.Errorf("kv: dump record %d has key %#x outside [1, %#x]", count, k, uint64(set.MaxKey))
		}
		h.Write(rec[:])
		count++
		keys = append(keys, k)
		vals = append(vals, binary.LittleEndian.Uint64(rec[8:]))
		if len(keys) == snapChunk {
			flush()
		}
	}
}
