package flock

import (
	"sync"
	"testing"

	"flock/internal/obs"
)

// Allocation regression pins for the zero-allocation commit path
// (DESIGN.md S10). These use testing.AllocsPerRun over steady-state
// loops (the descriptor pool warmed first), so a change that
// reintroduces per-commit wrappers, interface boxing, or fresh
// descriptors or log blocks fails loudly rather than silently
// regressing the hot path. Where a section runs in both modes, the pin
// is that lock-free costs what blocking costs, with the exact count.

// warm runs f enough times for freelists to fill and slice capacities
// to stabilize.
func warm(n int, f func()) {
	for i := 0; i < n; i++ {
		f()
	}
}

// TestAllocsLockFreeCommittedLoad pins the full lock-free read path: a
// TryLock whose thunk performs one committed load. Steady state must
// allocate nothing, as in blocking mode (descriptor from the freelist,
// the box pointer committed directly into the log slot, the lock word
// a static tag). With descriptor pooling off the same loop allocates
// exactly the descriptor — what the pool buys.
func TestAllocsLockFreeCommittedLoad(t *testing.T) {
	measure := func(opts ...Option) float64 {
		rt := New(opts...)
		p := rt.Register()
		defer p.Unregister()
		var l Lock
		var m Mutable[uint64]
		m.Init(7)
		var sink uint64
		f := func(hp *Proc) bool {
			sink = m.Load(hp)
			return true
		}
		op := func() {
			p.Begin()
			l.TryLock(p, f)
			p.End()
		}
		warm(2000, op)
		_ = sink
		return testing.AllocsPerRun(500, op)
	}
	lockfree, blocking, fresh := measure(), measure(Blocking()), measure(noPool())
	if lockfree != blocking || lockfree != 0 {
		t.Errorf("committed load: %v allocs/op lock-free, %v blocking, want 0 in both", lockfree, blocking)
	}
	if fresh != 1 {
		t.Errorf("committed load without descriptor pooling: %v allocs/op, want 1 (the descriptor)", fresh)
	}
}

// TestAllocsUpdateOnceLoad pins an UpdateOnce load inside a thunk at
// zero allocations: it commits the box pointer it read into the log
// slot, as Mutable does, instead of boxing the value in a logEntry. Both
// states of the location are covered, the initial nil box and a stored
// one, and both commit modes.
func TestAllocsUpdateOnceLoad(t *testing.T) {
	for _, opts := range [][]Option{nil, {noCCAS()}} {
		rt := New(opts...)
		p := rt.Register()
		var l Lock
		var u UpdateOnce[bool]
		var sink bool
		f := func(hp *Proc) bool {
			sink = u.Load(hp)
			return true
		}
		op := func() {
			p.Begin()
			l.TryLock(p, f)
			p.End()
		}
		for _, stored := range []bool{false, true} {
			if stored {
				u.Store(p, true)
			}
			warm(2000, op)
			if got := testing.AllocsPerRun(500, op); got != 0 {
				t.Errorf("opts=%d stored=%v: UpdateOnce load in a thunk allocates %v per op, must be 0", len(opts), stored, got)
			}
			if sink != stored {
				t.Errorf("opts=%d: loaded %v, want %v", len(opts), sink, stored)
			}
		}
		p.Unregister()
	}
}

// TestAllocsBlockingRead pins the blocking-mode read at exactly zero:
// no descriptor, no logging, and a lock word that is only ever a tag
// or the static blocked sentinel.
func TestAllocsBlockingRead(t *testing.T) {
	rt := New(Blocking())
	p := rt.Register()
	defer p.Unregister()
	var l Lock
	var m Mutable[uint64]
	m.Init(3)
	var sink uint64
	f := func(hp *Proc) bool {
		sink = m.Load(hp)
		return true
	}
	op := func() {
		p.Begin()
		l.TryLock(p, f)
		p.End()
	}
	warm(200, op)
	_ = sink
	if got := testing.AllocsPerRun(500, op); got != 0 {
		t.Errorf("blocking read allocates %v per op, must stay 0", got)
	}
}

// TestAllocsOptimisticRead pins the optimistic read path at exactly
// zero allocations in steady state: the combinator itself allocates
// nothing (no descriptor, no log, no commit traffic) and the hoisted
// closure is reused across ops. This is the acceptance bar for the
// optimistic arm — a read that validates cleanly must cost no more
// than the loads it performs.
func TestAllocsOptimisticRead(t *testing.T) {
	for _, pool := range []bool{true, false} {
		opts := []Option{}
		if !pool {
			opts = append(opts, noPool())
		}
		rt := New(opts...)
		p := rt.Register()
		defer p.Unregister()
		var l Lock
		var m Mutable[uint64]
		m.Init(9)
		var sink uint64
		f := func(hp *Proc) bool {
			sink = m.Load(hp)
			return true
		}
		op := func() { rt.OptimisticRead(p, &l, f) }
		warm(2000, op)
		_ = sink
		if got := testing.AllocsPerRun(500, op); got != 0 {
			t.Errorf("pooling=%v: optimistic read allocates %v per op, must stay 0", pool, got)
		}
		if r := p.Obs().Load(obs.OptRestarts); r != 0 {
			t.Errorf("pooling=%v: uncontended loop restarted (%d)", pool, r)
		}
	}
}

// TestAllocsMetricsDisabledIsFree pins the observability bargain's cheap
// half (DESIGN.md S14): with the obs flag off — the default — the
// instrumented lock-free commit path stays allocation-free, identical to
// the pre-instrumentation pin above. Counter sites compile to a load of
// one cold bool and a skipped branch; anything heavier (boxing, deferred
// closures, lazily allocated blocks) would show up here as allocs/op.
func TestAllocsMetricsDisabledIsFree(t *testing.T) {
	if obs.Enabled() {
		t.Fatal("obs metrics unexpectedly enabled at test entry")
	}
	rt := New()
	p := rt.Register()
	defer p.Unregister()
	var l Lock
	var m Mutable[uint64]
	m.Init(7)
	var sink uint64
	f := func(hp *Proc) bool {
		sink = m.Load(hp)
		return true
	}
	op := func() {
		p.Begin()
		l.TryLock(p, f)
		p.End()
	}
	s0 := obs.Snapshot()
	warm(2000, op)
	_ = sink
	if got := testing.AllocsPerRun(500, op); got > 0.5 {
		t.Errorf("metrics-disabled lock-free read: %v allocs/op, want ~0", got)
	}
	if n := obs.Snapshot().Sub(s0).Get(obs.AcquiresLF); n != 0 {
		t.Errorf("disabled counters moved: %d lock-free acquires recorded", n)
	}
}

// TestAllocsMetricsEnabled pins the expensive half: with the obs flag
// ON, the committed lock-free read, the blocking read and the optimistic
// read all still allocate nothing in steady state. Every counter write
// lands in the Proc's preallocated padded block, so enabling collection
// costs atomic adds — never heap traffic.
func TestAllocsMetricsEnabled(t *testing.T) {
	prev := obs.Enabled()
	obs.SetEnabled(true)
	defer obs.SetEnabled(prev)

	for _, tc := range []struct {
		name string
		opts []Option
	}{
		{"lockfree", nil},
		{"blocking", []Option{Blocking()}},
	} {
		rt := New(tc.opts...)
		p := rt.Register()
		var l Lock
		var m Mutable[uint64]
		m.Init(7)
		var sink uint64
		f := func(hp *Proc) bool {
			sink = m.Load(hp)
			return true
		}
		op := func() {
			p.Begin()
			l.TryLock(p, f)
			p.End()
		}
		warm(2000, op)
		_ = sink
		if got := testing.AllocsPerRun(500, op); got > 0.5 {
			t.Errorf("%s: metrics-enabled read allocates %v per op, want ~0", tc.name, got)
		}
		opt := func() { rt.OptimisticRead(p, &l, f) }
		warm(2000, opt)
		if got := testing.AllocsPerRun(500, opt); got != 0 {
			t.Errorf("%s: metrics-enabled optimistic read allocates %v per op, must stay 0", tc.name, got)
		}
		wantCounter := obs.AcquiresLF
		if len(tc.opts) > 0 {
			wantCounter = obs.AcquiresBlocking
		}
		if p.Obs().Load(wantCounter) == 0 {
			t.Errorf("%s: enabled run recorded no acquisitions — instrumentation not wired?", tc.name)
		}
		p.Unregister()
	}
}

// TestAllocsTryLockInsert pins an insert-shaped critical section: an
// idempotent Allocate of a fresh node, linked in with a Store, with the
// displaced node and box left to the garbage collector. The section
// allocates its node and the Store's box (2 allocs) in either mode; the
// lock-free machinery adds nothing on top, and with descriptor pooling
// off it adds exactly the descriptor.
func TestAllocsTryLockInsert(t *testing.T) {
	type node struct {
		key  uint64
		next *node
	}
	measure := func(opts ...Option) float64 {
		rt := New(opts...)
		p := rt.Register()
		defer p.Unregister()
		var l Lock
		var head Mutable[*node]
		var k uint64
		f := func(hp *Proc) bool {
			k++
			kk := k
			head.Load(hp)
			n := Allocate(hp, func() *node { return &node{key: kk, next: nil} })
			head.Store(hp, n)
			return true
		}
		op := func() {
			p.Begin()
			l.TryLock(p, f)
			p.End()
		}
		warm(2000, op)
		return testing.AllocsPerRun(500, op)
	}
	lockfree, blocking, fresh := measure(), measure(Blocking()), measure(noPool())
	if lockfree != blocking || lockfree != 2 {
		t.Errorf("TryLock insert: %v allocs/op lock-free, %v blocking, want 2 (node + box) in both", lockfree, blocking)
	}
	if fresh != 3 {
		t.Errorf("TryLock insert without descriptor pooling: %v allocs/op, want 3 (node + box + descriptor)", fresh)
	}
}

// TestAllocsLinkInThunk pins the box-free pointer location (DESIGN.md
// S1): inside a thunk a Link load commits the pointer itself and a store
// is one CAS from it, so neither allocates, in either commit mode.
func TestAllocsLinkInThunk(t *testing.T) {
	for _, opts := range [][]Option{nil, {noCCAS()}} {
		rt := New(opts...)
		p := rt.Register()
		var l Lock
		var link Link[uint64]
		nodes := [2]uint64{1, 2}
		link.Init(&nodes[0])
		f := func(hp *Proc) bool {
			if link.Load(hp) == &nodes[0] {
				link.Store(hp, &nodes[1])
			} else {
				link.Store(hp, &nodes[0])
			}
			return true
		}
		op := func() {
			p.Begin()
			l.TryLock(p, f)
			p.End()
		}
		warm(2000, op)
		if got := testing.AllocsPerRun(500, op); got != 0 {
			t.Errorf("opts=%d: Link load+store in a thunk allocates %v per op, must be 0", len(opts), got)
		}
		p.Unregister()
	}
}

// TestLinkCommittedNilRoundTrips: a nil loaded by the first run is
// committed as nil, so a replay sees nil even after the location was set.
func TestLinkCommittedNilRoundTrips(t *testing.T) {
	rt := New()
	p, q := rt.Register(), rt.Register()
	defer p.Unregister()
	defer q.Unregister()
	var link Link[int]
	head, exitP := enterFakeThunk(p)
	got1 := link.Load(p)
	exitP()
	link.Store(q, new(int))
	exitQ := enterExistingLog(q, head)
	got2 := link.Load(q)
	exitQ()
	if got1 != nil || got2 != nil {
		t.Fatalf("committed nil: run1=%p run2=%p, want nil, nil", got1, got2)
	}
}

// TestLinkStoreLandsOnce: runs of one thunk all CAS from the same
// committed pointer, so exactly one store lands, whether the runs race or
// a straggler replays after the location moved on. The racing runs store
// distinct pointers here only to make the winner observable.
func TestLinkStoreLandsOnce(t *testing.T) {
	for _, opts := range [][]Option{nil, {noCCAS()}} {
		rt := New(opts...)
		var link Link[int]
		old := new(int)
		link.Init(old)
		head := &logBlock{}
		const runs = 4
		vals := make([]*int, runs)
		var wg sync.WaitGroup
		for i := range vals {
			vals[i] = new(int)
			p := rt.Register()
			wg.Add(1)
			go func() {
				defer wg.Done()
				defer p.Unregister()
				exit := enterExistingLog(p, head)
				link.Store(p, vals[i])
				exit()
			}()
		}
		wg.Wait()
		cur := link.p.Load()
		landed := 0
		for _, v := range vals {
			if cur == v {
				landed++
			}
		}
		if landed != 1 {
			t.Fatalf("opts=%d: %d of %d racing stores landed, want exactly 1", len(opts), landed, runs)
		}

		// A straggler after the location moved on changes nothing.
		moved := new(int)
		link.Init(moved)
		p := rt.Register()
		exit := enterExistingLog(p, head)
		link.Store(p, vals[0])
		exit()
		p.Unregister()
		if got := link.p.Load(); got != moved {
			t.Fatalf("opts=%d: straggler store clobbered the location", len(opts))
		}
	}
}
