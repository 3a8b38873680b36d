package flock

import (
	"testing"

	"flock/internal/obs"
	"flock/internal/obs/trace"
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

// holder is one way a worker can still reference an object unlinked by
// run: hold starts holding and returns the matching release. Each holder
// must keep the unlinked object out of the freelists until released.
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
		// A helper that enters after the unlink, once the object is
		// already ripe, and lowers to the birth epoch of a thunk that
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
// that what run unlinks reaches a freelist (reused reports how much)
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
			if _, _, _, pending := p.PoolStats(); pending != 0 {
				t.Fatalf("%d objects still pending after release", pending)
			}
		})
	}
}

func TestBoxReuseWaitsForGuards(t *testing.T) {
	checkReuseWaits(t, func(p *Proc) func() {
		m := new(Mutable[int])
		m.Init(1)
		return func() { m.Store(p, 2) }
	}, func(p *Proc) int {
		_, _, boxes, _ := p.PoolStats()
		return boxes
	})
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
	}, func(p *Proc) int {
		dfree, _, _, _ := p.PoolStats()
		return dfree
	})
}

// TestBeginCadenceRecyclesWithoutDrain: the Begin cadence alone moves
// ripe pending entries to the freelists — a worker that never calls
// Drain still reuses its boxes and never saturates its pending list.
func TestBeginCadenceRecyclesWithoutDrain(t *testing.T) {
	prev := obs.Enabled()
	obs.SetEnabled(true)
	defer obs.SetEnabled(prev)
	p := New().Register()
	defer p.Unregister()
	var m Mutable[int]
	m.Init(0)
	for i := 0; i < 4*reusePendingCap; i++ {
		p.Begin()
		m.Store(p, i)
		p.End()
	}
	if hits := p.metrics.Load(obs.PoolHits); hits == 0 {
		t.Fatal("no box was reused without Drain")
	}
	if spills := p.metrics.Load(obs.PoolSpills); spills != 0 {
		t.Fatalf("pending list saturated without Drain: %d spills", spills)
	}
}

// TestLeakedProcHoldsBackNothing: a Proc registered, used and then
// abandoned outside any guard without Unregister is quiescent, so it
// blocks neither epoch advancement nor another Proc's pooled reuse.
func TestLeakedProcHoldsBackNothing(t *testing.T) {
	rt := New()
	leaked := rt.Register()
	var m Mutable[int]
	leaked.Begin()
	m.Store(leaked, 1)
	leaked.End()

	p := rt.Register()
	defer p.Unregister()
	for i := 0; i < 3; i++ {
		if !rt.epochs.TryAdvance() {
			t.Fatalf("TryAdvance %d blocked by a leaked Proc", i)
		}
	}
	m.Store(p, 2)
	drainHard(p)
	if _, _, boxes, pending := p.PoolStats(); boxes == 0 || pending != 0 {
		t.Fatalf("reuse held back by a leaked Proc: boxes=%d pending=%d", boxes, pending)
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

// TestFullDescriptorFreelistSpills: a descriptor released into a full
// freelist is dropped to the GC like every other overflow — counted as
// one PoolSpill and traced as one PoolSpill event, not dropped silently.
func TestFullDescriptorFreelistSpills(t *testing.T) {
	prev := obs.Enabled()
	obs.SetEnabled(true)
	defer obs.SetEnabled(prev)
	trace.SetEnabled(true)
	defer trace.SetEnabled(false)
	trace.Reset()

	p := New().Register()
	defer p.Unregister()
	for len(p.dfree) < reusePendingCap {
		p.dfree = append(p.dfree, &descriptor{})
	}
	p.releaseDescriptor(&descriptor{})
	if got := p.metrics.Load(obs.PoolSpills); got != 1 {
		t.Fatalf("PoolSpills = %d after one overflowing release, want 1", got)
	}
	if got := countEvents(p, trace.PoolSpill); got != 1 {
		t.Fatalf("%d PoolSpill events after one overflowing release, want 1", got)
	}
	if len(p.dfree) != reusePendingCap {
		t.Fatalf("dfree grew to %d past its cap %d", len(p.dfree), reusePendingCap)
	}
}

// countEvents counts the trace events of kind k that p recorded.
func countEvents(p *Proc, k trace.Kind) int {
	n := 0
	for _, e := range trace.Snapshot().Events {
		if e.Proc == p.id && e.Kind == k {
			n++
		}
	}
	return n
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
