package flock

import (
	"testing"

	"flock/internal/obs"
	"flock/internal/obs/trace"
)

// Tests for the S10 invariant: a descriptor released at epoch e may be
// handed out again only once every guard (or helper lowered to a thunk
// birth) from epoch <= e has finished. While such a guard is open the
// descriptor must stay parked in its Proc's FIFO.

func advanceHard(rt *Runtime) {
	for i := 0; i < 6; i++ {
		rt.epochs.TryAdvance()
	}
}

// ripe pops every ripe record off p's FIFO for Recycler id and counts
// them.
func ripe(p *Proc, id int) int {
	n := 0
	for p.recycled(id) != nil {
		n++
	}
	return n
}

func ripeDescriptors(p *Proc) int { return ripe(p, descriptors.id) }

// holder is one way a worker can still reference a descriptor released
// by run: hold starts holding and returns the matching release. Each
// holder must keep the released descriptor parked until released.
type holder struct {
	name string
	hold func(rt *Runtime, q *Proc, run func()) (release func())
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
}

// checkReuseWaits runs setup and then run under each holder, and checks
// that what run releases ripens (reused pops and counts it) only after
// the holder releases.
func checkReuseWaits(t *testing.T, setup func(*Proc) func(), reused func(*Proc) int) {
	for _, h := range holders {
		t.Run(h.name, func(t *testing.T) {
			rt := New()
			p := rt.Register()
			q := rt.Register()
			defer p.Unregister()
			defer q.Unregister()

			release := h.hold(rt, q, setup(p))
			advanceHard(rt)
			held := reused(p)
			release()
			if held != 0 {
				t.Fatalf("recycled %d objects while held", held)
			}
			advanceHard(rt)
			if n := reused(p); n == 0 {
				t.Fatal("nothing recycled after release")
			}
			if n := len(parked(p)); n != 0 {
				t.Fatalf("%d descriptors still parked after release", n)
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
	}, ripeDescriptors)
}

// TestBeginCadenceRecyclesWithoutDrain: the epoch advances that guard
// entries and unripe Gets attempt on their own cadences are enough — a
// worker that never advances the epoch itself still reuses its
// descriptors and never fills its FIFO.
func TestBeginCadenceRecyclesWithoutDrain(t *testing.T) {
	prev := obs.Enabled()
	obs.SetEnabled(true)
	defer obs.SetEnabled(prev)
	p := New().Register()
	defer p.Unregister()
	var l Lock
	nop := func(*Proc) bool { return true }
	for i := 0; i < 4*recycleCap; i++ {
		p.Begin()
		l.TryLock(p, nop)
		p.End()
	}
	if hits := p.metrics.Load(obs.PoolHits); hits == 0 {
		t.Fatal("no descriptor was reused without an explicit advance")
	}
	if spills := p.metrics.Load(obs.PoolSpills); spills != 0 {
		t.Fatalf("FIFO filled without an explicit advance: %d spills", spills)
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
	advanceHard(rt)
	if ripe, left := ripeDescriptors(p), len(parked(p)); ripe == 0 || left != 0 {
		t.Fatalf("reuse held back by a leaked Proc: %d ripe, %d still parked", ripe, left)
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
	if len(parked(p)) == 0 {
		t.Fatal("pool never engaged: no descriptor parked")
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
	if n := len(parked(p)); n != 0 || p.spare != nil {
		t.Fatalf("noPool runtime pooled descriptors: %d parked, spare %p", n, p.spare)
	}
}

// TestSpillBlocksRecycled: spill blocks stay linked to their
// descriptor through its pooled life, so a thunk whose log spans more
// than two blocks allocates nothing per op once its descriptors have
// been round the pool, and the descriptor the next allocation hands out
// is scrubbed and still carries its chain.
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
	advanceHard(rt)
	blocks := 0
	for b := &p.allocDescriptor().first; b != nil; b = b.next.Load() {
		for i := range b.entries {
			if b.entries[i].load() != nil {
				t.Fatalf("log block %d slot %d survived the scrub", blocks, i)
			}
		}
		blocks++
	}
	if blocks < 3 {
		t.Fatalf("allocated descriptor carries %d spill blocks, want >= 2 (recycled)", blocks-1)
	}
}

// records is a layer's Recycler, as kv's or txn's are.
var records = NewRecycler(func() *int { return new(int) })

// TestFullPendingListDrainsWithoutSpill parks as many descriptors as
// one Proc's descriptor FIFO (the pending list of retired descriptors
// waiting out their grace period) holds: none is dropped to the GC, and
// once the grace period passes every one is handed out again.
func TestFullPendingListDrainsWithoutSpill(t *testing.T) {
	prev := obs.Enabled()
	obs.SetEnabled(true)
	defer obs.SetEnabled(prev)
	rt := New()
	p := rt.Register()
	defer p.Unregister()
	for i := 0; i < recycleCap; i++ {
		p.retireDescriptor(&descriptor{})
	}
	advanceHard(rt)
	if got := ripeDescriptors(p); got != recycleCap {
		t.Fatalf("%d of %d parked descriptors reused after the grace period", got, recycleCap)
	}
	if got := p.metrics.Load(obs.PoolSpills); got != 0 {
		t.Fatalf("a full FIFO spilled %d descriptors", got)
	}
}

// TestFullDescriptorFreelistSpills fills one FIFO, of descriptors or of
// a layer's records, to its cap and puts one more: that one is dropped
// to the GC, counted as one PoolSpill and traced as one PoolSpill
// event, not dropped silently, and the FIFO does not grow past its cap.
func TestFullDescriptorFreelistSpills(t *testing.T) {
	prev := obs.Enabled()
	obs.SetEnabled(true)
	defer obs.SetEnabled(prev)
	trace.SetEnabled(true)
	defer trace.SetEnabled(false)

	for _, c := range []struct {
		name string
		put  func(p *Proc)
		id   int
	}{
		{"descriptors", func(p *Proc) { p.retireDescriptor(&descriptor{}) }, descriptors.id},
		{"records", func(p *Proc) { records.Put(p, new(int)) }, records.id},
	} {
		trace.Reset()
		rt := New()
		p := rt.Register()
		for i := 0; i < recycleCap; i++ {
			c.put(p)
		}
		if got := p.metrics.Load(obs.PoolSpills); got != 0 {
			t.Errorf("%s: PoolSpills = %d with the FIFO just full, want 0", c.name, got)
		}
		c.put(p)
		if got := p.metrics.Load(obs.PoolSpills); got != 1 {
			t.Errorf("%s: PoolSpills = %d after one overflow, want 1", c.name, got)
		}
		var spills int
		for _, e := range trace.Snapshot().Events {
			if e.Proc == p.id && e.Kind == trace.PoolSpill {
				spills++
			}
		}
		if spills != 1 {
			t.Errorf("%s: %d PoolSpill events after one overflow, want 1", c.name, spills)
		}
		advanceHard(rt)
		if got := ripe(p, c.id); got != recycleCap {
			t.Errorf("%s: %d records reused after the grace period, want the cap %d", c.name, got, recycleCap)
		}
		p.Unregister()
	}
}

// TestSpareDescriptor: a descriptor that was never published is the
// next one allocated, while one retired from a lock word is not handed
// out while a guard that entered before the retire is still open.
func TestSpareDescriptor(t *testing.T) {
	rt := New()
	p, q := rt.Register(), rt.Register()
	defer p.Unregister()
	defer q.Unregister()
	nop := func(*Proc) bool { return true }

	d := p.newDescriptor(nop, 1)
	p.releaseDescriptor(d)
	if got := p.allocDescriptor(); got != d || got.thunk != nil || got.started.Load() != 0 || got.first.entries[0].load() != nil {
		t.Fatalf("after a release allocDescriptor returned %p (thunk set %v), want the scrubbed spare %p", got, got.thunk != nil, d)
	}

	q.Begin()
	p.retireDescriptor(d)
	for i := 0; i < 4*advanceEvery; i++ {
		rt.epochs.TryAdvance()
		if p.allocDescriptor() == d {
			q.End()
			t.Fatalf("allocation %d handed out a retired descriptor inside an older guard", i)
		}
	}
	q.End()
	advanceHard(rt)
	if p.allocDescriptor() != d {
		t.Fatal("the retired descriptor was not reused after the guard closed")
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
