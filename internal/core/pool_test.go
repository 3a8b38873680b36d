package flock

import (
	"testing"

	"flock/internal/obs"
	"flock/internal/obs/trace"
)

// Tests for the S10 invariant: a descriptor released at epoch e may
// rejoin the freelist only once every guard (or helper lowered to a
// thunk birth) from epoch <= e has finished. While such a guard is open
// the descriptor must sit in the pending list, not the freelist.

func drainHard(p *Proc) {
	for i := 0; i < 6; i++ {
		p.Drain()
	}
}

// holder is one way a worker can still reference a descriptor released
// by run: hold starts holding and returns the matching release. Each
// holder must keep the released descriptor out of the freelist until
// released.
type holder struct {
	name string
	hold func(rt *Runtime, q *Proc, run func()) (release func())
	// advances reports whether the global epoch keeps moving while held.
	advances bool
}

var holders = []holder{
	{name: "concurrent guard", hold: func(rt *Runtime, q *Proc, run func()) func() {
		q.Begin()
		run()
		return q.End
	}},
	{name: "lowered guard", hold: func(rt *Runtime, q *Proc, run func()) func() {
		// A helper that enters after the release, once the descriptor
		// is already ripe, and lowers to the birth epoch of a thunk that
		// could still load it.
		birth := rt.epochs.GlobalEpoch()
		run()
		for i := 0; i < 3; i++ {
			rt.epochs.TryAdvance()
		}
		q.Begin()
		prev := q.slot.Lower(birth)
		return func() {
			q.slot.Restore(prev)
			q.End()
		}
	}},
	{name: "pin", advances: true, hold: func(rt *Runtime, q *Proc, run func()) func() {
		pin := rt.epochs.Pin()
		run()
		return pin.Release
	}},
}

// checkReuseWaits runs setup and then run under each holder, and checks
// that what run releases reaches the freelist (reused reports how much)
// only after the holder releases.
func checkReuseWaits(t *testing.T, setup func(*Proc) func(), reused func(*Proc) int) {
	for _, h := range holders {
		t.Run(h.name, func(t *testing.T) {
			rt := New()
			p := rt.Register()
			q := rt.Register()
			defer p.Unregister()
			defer q.Unregister()

			release := h.hold(rt, q, setup(p))
			g := rt.epochs.GlobalEpoch()
			drainHard(p)
			held, advanced := reused(p), rt.epochs.GlobalEpoch()-g
			release()
			if held != 0 {
				t.Fatalf("recycled %d objects while held", held)
			}
			if h.advances && advanced < 2 {
				t.Fatalf("global epoch advanced %d times while held, want >= 2", advanced)
			}
			drainHard(p)
			if n := reused(p); n == 0 {
				t.Fatal("nothing recycled after release")
			}
			if pending := len(p.pending); pending != 0 {
				t.Fatalf("%d descriptors still pending after release", pending)
			}
		})
	}
}

func TestDescriptorReuseWaitsForGuards(t *testing.T) {
	checkReuseWaits(t, func(p *Proc) func() {
		l := new(Lock)
		if !l.TryLock(p, func(*Proc) bool { return true }) {
			t.Fatal("first acquisition failed")
		}
		// The holder could be a straggler about to replay the old
		// descriptor.
		return func() {
			if !l.TryLock(p, func(*Proc) bool { return true }) {
				t.Fatal("second acquisition failed")
			}
		}
	}, func(p *Proc) int { return len(p.dfree) })
}

// TestBeginCadenceRecyclesWithoutDrain: the Begin cadence alone moves
// ripe pending entries to the freelist — a worker that never calls
// Drain still reuses its descriptors and never saturates its pending
// list.
func TestBeginCadenceRecyclesWithoutDrain(t *testing.T) {
	prev := obs.Enabled()
	obs.SetEnabled(true)
	defer obs.SetEnabled(prev)
	p := New().Register()
	defer p.Unregister()
	var l Lock
	nop := func(*Proc) bool { return true }
	for i := 0; i < 4*reusePendingCap; i++ {
		p.Begin()
		l.TryLock(p, nop)
		p.End()
	}
	if hits := p.metrics.Load(obs.PoolHits); hits == 0 {
		t.Fatal("no descriptor was reused without Drain")
	}
	if spills := p.metrics.Load(obs.PoolSpills); spills != 0 {
		t.Fatalf("pending list saturated without Drain: %d spills", spills)
	}
}

// TestLeakedProcHoldsBackNothing: a Proc registered, used and then
// abandoned outside any guard without Unregister is quiescent, so it
// blocks neither epoch advancement nor another Proc's descriptor reuse.
func TestLeakedProcHoldsBackNothing(t *testing.T) {
	rt := New()
	leaked := rt.Register()
	var l Lock
	nop := func(*Proc) bool { return true }
	leaked.Begin()
	l.TryLock(leaked, nop)
	leaked.End()

	p := rt.Register()
	defer p.Unregister()
	for i := 0; i < 3; i++ {
		if !rt.epochs.TryAdvance() {
			t.Fatalf("TryAdvance %d blocked by a leaked Proc", i)
		}
	}
	l.TryLock(p, nop)
	drainHard(p)
	if dfree, pending := len(p.dfree), len(p.pending); dfree == 0 || pending != 0 {
		t.Fatalf("reuse held back by a leaked Proc: dfree=%d pending=%d", dfree, pending)
	}
}

// TestPooledValuesStayCorrect hammers a counter through recycled
// descriptors and checks nothing leaks across reuse: the committed
// total must match exactly (a double-recycle or premature reuse would
// corrupt it).
func TestPooledValuesStayCorrect(t *testing.T) {
	rt := New()
	p := rt.Register()
	defer p.Unregister()
	var l Lock
	var c Mutable[uint64]
	const n = 5000
	f := func(hp *Proc) bool {
		v := c.Load(hp)
		c.Store(hp, v+1)
		return true
	}
	for i := 0; i < n; i++ {
		p.Begin()
		if !l.TryLock(p, f) {
			t.Fatalf("uncontended tryLock %d failed", i)
		}
		p.End()
	}
	if got := c.Load(p); got != n {
		t.Fatalf("counter %d, want %d (reuse corrupted state)", got, n)
	}
	if d, pend := len(p.dfree), len(p.pending); d == 0 && pend == 0 {
		t.Fatalf("pool never engaged: dfree=%d pending=%d", d, pend)
	}
}

// TestNoPoolRuntimeNeverPools pins the GC-fresh arm the pooled-vs-fresh
// tests measure against: with pooling off, nothing is parked and
// nothing is recycled.
func TestNoPoolRuntimeNeverPools(t *testing.T) {
	rt := New(noPool())
	if rt.pooling {
		t.Fatal("noPool runtime reports pooling enabled")
	}
	p := rt.Register()
	defer p.Unregister()
	var l Lock
	var c Mutable[uint64]
	f := func(hp *Proc) bool {
		v := c.Load(hp)
		c.Store(hp, v+1)
		return true
	}
	for i := 0; i < 500; i++ {
		p.Begin()
		l.TryLock(p, f)
		p.End()
	}
	drainHard(p)
	if d, pend := len(p.dfree), len(p.pending); d != 0 || pend != 0 {
		t.Fatalf("noPool runtime pooled descriptors: dfree=%d pending=%d", d, pend)
	}
}

// TestSpillBlocksRecycled: spill blocks stay linked to their
// descriptor through its pooled life, so a thunk whose log spans more
// than two blocks allocates nothing per op once its descriptors have
// been round the pool, and a scrubbed descriptor still carries its
// chain.
func TestSpillBlocksRecycled(t *testing.T) {
	rt := New()
	p := rt.Register()
	defer p.Unregister()
	var l Lock
	var cells [4]Mutable[uint64]
	const loads = logBlockLen * 3
	f := func(hp *Proc) bool {
		for s := 0; s < loads; s++ {
			cells[s%len(cells)].Load(hp)
		}
		return true
	}
	op := func() {
		p.Begin()
		if !l.TryLock(p, f) {
			t.Fatal("uncontended tryLock failed")
		}
		p.End()
	}
	warm(2000, op)
	if got := testing.AllocsPerRun(500, op); got != 0 {
		t.Errorf("a thunk logging %d slots allocates %v per op, want 0", loads, got)
	}
	drainHard(p)
	if len(p.dfree) == 0 {
		t.Fatal("no descriptor recycled")
	}
	blocks := 0
	for b := p.dfree[len(p.dfree)-1].first.next.Load(); b != nil; b = b.next.Load() {
		for i := range b.entries {
			if b.entries[i].load() != nil {
				t.Fatalf("spill block %d slot %d survived the scrub", blocks, i)
			}
		}
		blocks++
	}
	if blocks < 2 {
		t.Fatalf("recycled descriptor carries %d spill blocks, want >= 2", blocks)
	}
}

// TestFullPendingListDrainsWithoutSpill parks as many descriptors as
// the pending list holds and drains them after the grace period: every
// one must reach the descriptor freelist, none dropped to the GC.
func TestFullPendingListDrainsWithoutSpill(t *testing.T) {
	prev := obs.Enabled()
	obs.SetEnabled(true)
	defer obs.SetEnabled(prev)
	p := New().Register()
	defer p.Unregister()
	for i := 0; i < reusePendingCap; i++ {
		p.retireDescriptor(&descriptor{})
	}
	spills := p.metrics.Load(obs.PoolSpills)
	drainHard(p)
	if got := p.metrics.Load(obs.PoolSpills) - spills; got != 0 {
		t.Fatalf("drain spilled %d descriptors", got)
	}
	if d, pend := len(p.dfree), len(p.pending); d != reusePendingCap || pend != 0 {
		t.Fatalf("after the drain dfree=%d pending=%d, want %d and 0", d, pend, reusePendingCap)
	}
}

// TestFullDescriptorFreelistSpills: a descriptor that finds the
// freelist or the pending list full is dropped to the GC, counted as one
// PoolSpill and traced as one PoolSpill event whose A names the site —
// not dropped silently. Only the pending-list site counts
// PoolPendingFull.
func TestFullDescriptorFreelistSpills(t *testing.T) {
	prev := obs.Enabled()
	obs.SetEnabled(true)
	defer obs.SetEnabled(prev)
	trace.SetEnabled(true)
	defer trace.SetEnabled(false)

	for _, c := range []struct {
		name        string
		fill, spill func(p *Proc)
		site        uint64
		pendingFull uint64
	}{
		{"freelist",
			func(p *Proc) {
				for len(p.dfree) < reusePendingCap {
					p.dfree = append(p.dfree, &descriptor{})
				}
			},
			func(p *Proc) { p.releaseDescriptor(&descriptor{}) },
			spillFreelistFull, 0},
		{"pending",
			func(p *Proc) {
				for len(p.pending) < reusePendingCap {
					p.retireDescriptor(&descriptor{})
				}
			},
			func(p *Proc) { p.retireDescriptor(&descriptor{}) },
			spillPendingFull, 1},
	} {
		trace.Reset()
		p := New().Register()
		c.fill(p)
		c.spill(p)
		if got := p.metrics.Load(obs.PoolSpills); got != 1 {
			t.Errorf("%s: PoolSpills = %d after one overflow, want 1", c.name, got)
		}
		if got := p.metrics.Load(obs.PoolPendingFull); got != c.pendingFull {
			t.Errorf("%s: PoolPendingFull = %d after one overflow, want %d", c.name, got, c.pendingFull)
		}
		var sites []uint64
		for _, e := range trace.Snapshot().Events {
			if e.Proc == p.id && e.Kind == trace.PoolSpill {
				sites = append(sites, e.A)
			}
		}
		if len(sites) != 1 || sites[0] != c.site {
			t.Errorf("%s: PoolSpill events with sites %v, want one with site %d", c.name, sites, c.site)
		}
		if len(p.dfree) > reusePendingCap || len(p.pending) > reusePendingCap {
			t.Errorf("%s: dfree=%d pending=%d grew past the cap %d", c.name, len(p.dfree), len(p.pending), reusePendingCap)
		}
		p.Unregister()
	}
}

// TestProcRNGSeedsDiffer: every registered Proc must get its own
// backoff-jitter stream (a shared constant seed would synchronize
// the backoff of all workers).
func TestProcRNGSeedsDiffer(t *testing.T) {
	rt := New()
	p := rt.Register()
	q := rt.Register()
	r := New().Register()
	defer p.Unregister()
	defer q.Unregister()
	defer r.Unregister()
	a, b, c := p.rand64(), q.rand64(), r.rand64()
	if a == b || a == c || b == c {
		t.Fatalf("procs share a jitter stream: %x %x %x", a, b, c)
	}
	// And the streams must stay distinct, not just the first draw.
	for i := 0; i < 8; i++ {
		if p.rand64() == q.rand64() {
			t.Fatalf("jitter streams collide at step %d", i)
		}
	}
}

// TestStallInjectionClampsNegatives: a negative n must disable
// injection rather than wrapping uint32(n) to a huge period.
func TestStallInjectionClampsNegatives(t *testing.T) {
	rt := New()
	rt.SetStallInjection(-5)
	if got := rt.stallEvery.Load(); got != 0 {
		t.Fatalf("SetStallInjection(-5) stored %d, want 0", got)
	}
	rt.SetStallInjection(7)
	if got := rt.stallEvery.Load(); got != 7 {
		t.Fatalf("SetStallInjection(7) stored %d", got)
	}
	rt.SetStallInjection(-1)
	if got := rt.stallEvery.Load(); got != 0 {
		t.Fatalf("SetStallInjection(-1) stored %d, want 0", got)
	}
}
