package flock

import (
	"testing"

	"flock/internal/obs"
)

// Tests for the S10 invariant: a pooled object unlinked at epoch e may
// rejoin a freelist only once every guard (or helper lowered to a thunk
// birth) from epoch <= e has finished. While such a guard is open the
// object must sit in the pending list, not the pool.

func drainHard(p *Proc) {
	for i := 0; i < 6; i++ {
		p.Drain()
	}
}

func TestBoxReuseWaitsForGuards(t *testing.T) {
	rt := New()
	p := rt.Register()
	q := rt.Register()
	defer p.Unregister()
	defer q.Unregister()

	var m Mutable[int]
	m.Init(1)

	q.Begin() // q can still hold the old box
	m.Store(p, 2)
	drainHard(p)
	if _, _, boxes, pending := p.PoolStats(); boxes != 0 || pending == 0 {
		t.Fatalf("box recycled under an open guard: boxes=%d pending=%d", boxes, pending)
	}
	q.End()
	drainHard(p)
	if _, _, boxes, pending := p.PoolStats(); boxes == 0 || pending != 0 {
		t.Fatalf("box not recycled after guard exit: boxes=%d pending=%d", boxes, pending)
	}
}

func TestDescriptorReuseWaitsForGuards(t *testing.T) {
	rt := New()
	p := rt.Register()
	q := rt.Register()
	defer p.Unregister()
	defer q.Unregister()

	var l Lock
	ok := l.TryLock(p, func(*Proc) bool { return true })
	if !ok {
		t.Fatal("first acquisition failed")
	}
	q.Begin() // q could be a straggler about to replay the old descriptor
	if !l.TryLock(p, func(*Proc) bool { return true }) {
		t.Fatal("second acquisition failed")
	}
	drainHard(p)
	if dfree, _, _, _ := p.PoolStats(); dfree != 0 {
		t.Fatalf("descriptor recycled under an open guard: dfree=%d", dfree)
	}
	q.End()
	drainHard(p)
	if dfree, _, _, _ := p.PoolStats(); dfree == 0 {
		t.Fatalf("descriptor not recycled after guard exit")
	}
}

// TestPooledValuesStayCorrect hammers a counter through recycled boxes
// and descriptors and checks nothing leaks across reuse: the committed
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
	d, b, bx, pend := p.PoolStats()
	if d == 0 && bx == 0 && pend == 0 {
		t.Fatalf("pools never engaged: dfree=%d bfree=%d boxes=%d pending=%d", d, b, bx, pend)
	}
}

// TestNoPoolRuntimeNeverPools pins the GC-fresh ablation arm: with
// NoPool, nothing is parked and nothing is recycled.
func TestNoPoolRuntimeNeverPools(t *testing.T) {
	rt := New(NoPool())
	if rt.Pooling() {
		t.Fatal("NoPool runtime reports pooling enabled")
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
	if d, b, bx, pend := p.PoolStats(); d != 0 || b != 0 || bx != 0 || pend != 0 {
		t.Fatalf("NoPool runtime pooled objects: dfree=%d bfree=%d boxes=%d pending=%d", d, b, bx, pend)
	}
}

// TestSpillBlocksRecycled: a thunk long enough to spill past the
// embedded block feeds the block freelist once its descriptor is
// scrubbed.
func TestSpillBlocksRecycled(t *testing.T) {
	rt := New()
	p := rt.Register()
	defer p.Unregister()
	var l Lock
	var cells [4]Mutable[uint64]
	f := func(hp *Proc) bool {
		for s := 0; s < logBlockLen*3; s++ {
			c := &cells[s%len(cells)]
			c.Store(hp, c.Load(hp)+1)
		}
		return true
	}
	for i := 0; i < 3; i++ {
		p.Begin()
		if !l.TryLock(p, f) {
			t.Fatalf("tryLock %d failed", i)
		}
		p.End()
		drainHard(p)
	}
	if _, bfree, _, _ := p.PoolStats(); bfree == 0 {
		t.Fatal("spill blocks never recycled")
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
	if d, _, _, pend := p.PoolStats(); d != reusePendingCap || pend != 0 {
		t.Fatalf("after the drain dfree=%d pending=%d, want %d and 0", d, pend, reusePendingCap)
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
