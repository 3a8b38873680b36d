package flock

import (
	"reflect"
	"runtime"
	"testing"
	"unsafe"
)

// Tests for lock-word version tags (DESIGN.md S1): an unlocked
// lock-free word holds the address of a static tag, not a heap box, and
// the tag cannot ABA a straggler's CAS because a lock's version only
// grows.

// assertNoPooledTag fails if a tag sits in p's pending list or in one of
// its box freelists.
func assertNoPooledTag(t *testing.T, p *Proc) {
	t.Helper()
	for _, r := range p.pending {
		if bx := (*lockWord)(reflect.ValueOf(r.obj).UnsafePointer()); isTag(bx) {
			t.Fatalf("tag %p parked in the pending list", bx)
		}
	}
	for _, tp := range p.pools {
		for _, o := range tp.free {
			if bx := (*lockWord)(reflect.ValueOf(o).UnsafePointer()); isTag(bx) {
				t.Fatalf("tag %p on a freelist", bx)
			}
		}
	}
}

// TestReleasedLockHoldsNoHeapMemory pins that a lock taken and released
// in lock-free mode keeps no heap memory: with one box per released
// lock the growth would be 24 B per lock.
func TestReleasedLockHoldsNoHeapMemory(t *testing.T) {
	const n = 100_000
	p := New().Register()
	defer p.Unregister()
	nop := func(*Proc) bool { return true }
	var warm Lock
	for i := 0; i < 2*maxPoolFree; i++ {
		warm.TryLock(p, nop)
	}
	locks := make([]Lock, n)
	var m0, m1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&m0)
	for i := range locks {
		if !locks[i].TryLock(p, nop) {
			t.Fatalf("TryLock on fresh lock %d failed", i)
		}
	}
	p.Drain()
	runtime.GC()
	runtime.ReadMemStats(&m1)
	runtime.KeepAlive(locks)
	if per := (float64(m1.HeapAlloc) - float64(m0.HeapAlloc)) / n; per > 4 {
		t.Fatalf("heap grew %.1f B per released lock, want <= 4", per)
	}
	for i := range locks {
		if bx := locks[i].w.Load(); !isTag(bx) || locks[i].Held() {
			t.Fatalf("lock %d: word %p is not an unlocked tag", i, bx)
		}
	}
}

// TestStragglerCannotReinstall replays a finished descriptor whose thunk
// took a nested lock, after that lock has cycled on: the straggler's
// committed words are tags of versions the lock has left for good, so
// none of its CASes land.
func TestStragglerCannotReinstall(t *testing.T) {
	for _, opts := range [][]Option{nil, {NoCCAS()}} {
		for _, lost := range []bool{false, true} {
			rt := New(opts...)
			p, q := rt.Register(), rt.Register()
			// q's guard, opened first, keeps every object the run parks
			// from ripening, as a real straggler's announcement does.
			q.Begin()
			var l2 Lock
			var count Mutable[uint64]
			incr := func(hp *Proc) bool {
				count.Store(hp, count.Load(hp)+1)
				return true
			}
			nop := func(*Proc) bool { return true }
			l2.TryLock(p, nop) // the nested load commits a tag, not nil
			d := p.newDescriptor(func(hp *Proc) bool { return l2.TryLock(hp, incr) }, 1)
			if lost {
				// A first run loads l2 free and is descheduled; a holder
				// takes l2 before the run's install CAS.
				p.blk, p.idx = &d.first, 0
				l2.load(p)
				p.blk = nil
				cur := l2.load(p)
				h := p.newDescriptor(incr, cur.ver+1)
				if !l2.cas(p, cur, lockState{d: h, locked: true, ver: cur.ver + 1}) {
					t.Fatal("holder install failed")
				}
			}
			if got := p.run(d); got == lost {
				t.Fatalf("lost=%v: first run returned %v", lost, got)
			}
			for i := 0; i < 5; i++ {
				l2.TryLock(p, nop)
			}
			v, ok := l2.ReadVersion()
			if !ok {
				t.Fatal("l2 held after cycling")
			}
			q.run(d)
			if v2, ok := l2.ReadVersion(); !ok || v2 != v {
				t.Fatalf("lost=%v: after replay ReadVersion=(%d,%v), want (%d,true)", lost, v2, ok, v)
			}
			if c := count.Load(p); c != 1 {
				t.Fatalf("lost=%v: counter=%d after replay, want 1", lost, c)
			}
			q.End()
			q.Unregister()
			p.Unregister()
		}
	}
}

// TestTagRangeBoundary drives a lock from its second-to-last tag to heap
// words past the end of the tag array and back through every kind of
// release, in both modes: each cycle adds exactly 2 to the version,
// optimistic reads validate on both sides, and no tag is ever parked or
// pooled.
func TestTagRangeBoundary(t *testing.T) {
	for _, blocking := range []bool{false, true} {
		var opts []Option
		if blocking {
			opts = append(opts, Blocking())
		}
		rt := New(opts...)
		p := rt.Register()
		const last = 2 * uint64(len(lockTags)) // the last tag's version
		var l, m Lock
		l.w.Store(unlockedWord(last - 2))
		nop := func(*Proc) bool { return true }
		cycles := []func(){
			func() { l.TryLock(p, nop) },
			func() { l.Lock(p, nop) },
			func() {
				l.TryLock(p, func(hp *Proc) bool {
					return m.TryLock(hp, func(hq *Proc) bool {
						l.Unlock(hq)
						return true
					})
				})
			},
			func() { l.TryLock(p, nop) },
		}
		want := last - 2
		for i, cycle := range cycles {
			cycle()
			want += 2
			v, ok := l.ReadVersion()
			if !ok || v != want {
				t.Fatalf("blocking=%v cycle %d: ReadVersion=(%d,%v), want (%d,true)", blocking, i, v, ok, want)
			}
			if tagged := isTag(l.w.Load()); tagged != (want <= last) {
				t.Fatalf("blocking=%v cycle %d: version %d stored as tag=%v", blocking, i, want, tagged)
			}
			if !rt.OptimisticRead(p, &l, nop) {
				t.Fatalf("blocking=%v cycle %d: optimistic read failed", blocking, i)
			}
			if v2, _ := l.ReadVersion(); v2 != v {
				t.Fatalf("blocking=%v cycle %d: optimistic read escalated (version %d -> %d)", blocking, i, v, v2)
			}
			assertNoPooledTag(t, p)
			p.Drain()
			assertNoPooledTag(t, p)
		}
		p.Unregister()
	}
}

// TestLockIsOneWord pins the paper's one-word lock (§3, §6) and the
// descriptor layout decodeWord reads a version through.
func TestLockIsOneWord(t *testing.T) {
	if got, want := unsafe.Sizeof(Lock{}), unsafe.Sizeof(uintptr(0)); got != want {
		t.Fatalf("Lock is %d bytes, want one word (%d)", got, want)
	}
	if off := unsafe.Offsetof(descriptor{}.ver); off != 0 {
		t.Fatalf("descriptor.ver at offset %d, want 0", off)
	}
}

// TestStrictLockReplayKeepsVersion pins that an installed descriptor's
// version never changes. A nested strict Lock fails its first install
// (a holder took the lock after the first run loaded it free) and
// installs on a later attempt. While that attempt's descriptor is
// installed, the slow first run replays its first attempt. The installed
// version must stay the later attempt's, and the release must install
// the tag two above it; a full replay afterwards moves nothing.
func TestStrictLockReplayKeepsVersion(t *testing.T) {
	for _, opts := range [][]Option{nil, {NoCCAS()}} {
		rt := New(opts...)
		p, q := rt.Register(), rt.Register()
		p.Begin() // keeps every parked descriptor from ripening
		var l Lock
		nop := func(*Proc) bool { return true }
		l.TryLock(q, nop)
		const v = 2 // l's version before the outer thunk runs
		var outer *descriptor
		var body Thunk
		body = func(*Proc) bool {
			installed := wordDescriptor(&l)
			if installed != nil && installed.ver == v+3 && p.blk == nil {
				// The slow run p replays the first attempt: its load of
				// l, then the install attempt from the free version.
				p.blk, p.idx = &outer.first, 0
				if ok, _, _ := l.attempt(p, body, l.load(p), 0); ok {
					t.Errorf("opts=%d: the replayed first attempt acquired", len(opts))
				}
				p.blk = nil
				if d := wordDescriptor(&l); d != installed || installed.ver != v+3 {
					t.Errorf("opts=%d: after the replay the word holds %p and the installed descriptor version %d, want %p at %d",
						len(opts), d, installed.ver, installed, v+3)
				}
			}
			return true
		}
		outer = p.newDescriptor(func(hp *Proc) bool { return l.Lock(hp, body) }, 1)
		p.blk, p.idx = &outer.first, 0
		l.load(p) // the first run loads l free and is descheduled
		p.blk = nil
		cur := l.load(q)
		h := q.newDescriptor(nop, cur.ver+1)
		if !l.cas(q, cur, lockState{d: h, locked: true, ver: cur.ver + 1}) {
			t.Fatal("holder install failed")
		}
		if !q.run(outer) {
			t.Fatalf("opts=%d: the nested strict Lock returned false", len(opts))
		}
		for _, run := range []string{"the fast run", "a full replay"} {
			if ver, ok := l.ReadVersion(); !ok || ver != v+4 || !isTag(l.w.Load()) {
				t.Fatalf("opts=%d: after %s ReadVersion=(%d,%v) tag=%v, want (%d,true) as a tag",
					len(opts), run, ver, ok, isTag(l.w.Load()), v+4)
			}
			p.run(outer)
		}
		p.End()
		q.Unregister()
		p.Unregister()
	}
}

// TestModeSwitchWithTags cycles a lock through lock-free, blocking and
// lock-free mode: blocking mode must treat a tag as unlocked, and the
// version carrying on across each switch must still acquire, release
// and validate.
func TestModeSwitchWithTags(t *testing.T) {
	rt := New()
	p := rt.Register()
	defer p.Unregister()
	var l Lock
	ran := 0
	body := func(*Proc) bool { ran++; return true }
	check := func(phase string) {
		t.Helper()
		before := ran
		if !l.TryLock(p, body) || !l.Lock(p, body) || ran != before+2 {
			t.Fatalf("%s: acquisitions failed (ran %d of 2 bodies)", phase, ran-before)
		}
		if l.Held() {
			t.Fatalf("%s: lock held after release", phase)
		}
		v, ok := l.ReadVersion()
		if !ok || !l.Validate(v) {
			t.Fatalf("%s: version (%d,%v) does not validate", phase, v, ok)
		}
		if !rt.OptimisticRead(p, &l, body) || !l.Validate(v) {
			t.Fatalf("%s: optimistic read did not validate", phase)
		}
	}
	check("lock-free")
	if !isTag(l.w.Load()) {
		t.Fatal("lock-free release did not install a tag")
	}
	rt.SetBlocking(true)
	check("blocking")
	rt.SetBlocking(false)
	check("lock-free again")
	l.TryLock(p, func(hp *Proc) bool { l.Unlock(hp); return true })
	if l.Held() || !isTag(l.w.Load()) {
		t.Fatal("hand-over-hand release after the mode switch left no unlocked tag")
	}
	assertNoPooledTag(t, p)
}
