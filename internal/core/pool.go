package flock

import (
	"sync/atomic"
	"unsafe"

	"flock/internal/obs"
	"flock/internal/obs/trace"
)

// Per-Proc descriptor pool (§6 of the paper, DESIGN.md S10).
//
// Descriptors are pooled, one per lock acquisition, with the first log
// block embedded and its spill blocks linked behind it for the
// descriptor's whole pooled life, so a recycled descriptor brings its
// log along and a long thunk allocates no blocks once its descriptor
// has been round the pool. Layers above recycle the records their
// thunks read through a Recycler, on the same grace period. Value boxes
// and structure nodes are left to the garbage collector, which keeps
// their addresses unique while a log or helper still holds them (S1).
//
// Reuse is gated by the epoch manager's grace period: a descriptor
// released from its lock word at global epoch e may be handed back to
// the freelist only once every in-flight operation announces an epoch
// strictly greater than e (epoch.Manager.SafeBefore). Helpers lower
// their announcement to the birth epoch of the descriptor they replay
// (descriptor.run), so a straggler that can still load a recycled
// descriptor from a log always holds an announcement that blocks its
// recycling (DESIGN.md S10).
//
// drainReuse is where descriptor reclamation is measured: each ripe
// batch is counted (obs.EpochReclaimBatches, EpochReclaimLagEpochs) and
// traced (trace.EpochReclaim) on the draining Proc.
//
// A descriptor that lost its publication CAS was never visible to
// another thread and is recycled immediately, with no grace period.

// reuseDrainEvery is the number of guard entries between drain
// attempts. reusePendingCap bounds the pending list and
// the freelist: on an oversubscribed machine a preempted worker can pin
// an old epoch for a whole scheduler quantum, stretching grace periods
// to milliseconds while releases arrive at memory speed — without a cap
// the pending list would grow by the thousands. Overflow is dropped to
// the garbage collector, which is always a correct fallback. The
// freelist has the pending list's capacity, so a drain of a full
// pending list spills nothing.
const (
	reuseDrainEvery = 16
	reusePendingCap = 256
)

// Spill sites, carried as trace.PoolSpill's A argument.
const (
	spillPendingFull = iota // the pending list was full
	spillFreelistFull
)

// parked is a descriptor waiting out its grace period before rejoining
// the freelist. epoch is the global epoch at which it was released.
type parked struct {
	d     *descriptor
	epoch uint64
}

// deferReuse parks d until the epoch grace period passes. Must be called
// by the (unique) run whose CAS released d from its lock word, so each
// descriptor is parked at most once per lifetime. When the pending list
// is saturated (grace periods outpaced by the release rate), d is
// dropped to the GC instead — correct, just not recycled. The Begin
// cadence (reuseTickDrain) keeps attempting drains, so the list
// unsticks as soon as the epoch moves again.
func (p *Proc) deferReuse(d *descriptor) {
	if len(p.pending) >= reusePendingCap {
		p.metrics.Inc(obs.PoolPendingFull)
		p.spill(spillPendingFull)
		return
	}
	p.pending = append(p.pending, parked{d: d, epoch: p.rt.epochs.GlobalEpoch()})
}

// drainReuse moves every ripe pending descriptor onto the freelist. An
// entry parked at epoch e is ripe once SafeBefore() > e: every operation
// (or helper lowered to a thunk birth epoch) that could still reference
// the descriptor has finished. Entries are appended in epoch order, so
// the ripe ones form a prefix of runs of equal epoch. Each run is one
// reclaimed batch: it is counted, with its lag bound−e in epochs, and
// traced as one EpochReclaim event.
func (p *Proc) drainReuse() {
	if len(p.pending) == 0 {
		return
	}
	bound := p.rt.epochs.SafeBefore()
	if p.pending[0].epoch >= bound {
		// Nothing is ripe at the current epoch. Guard entries advance the
		// epoch on their own cadence, but a worker running top-level
		// operations outside guards would otherwise never see progress
		// and its pending list would grow without bound.
		p.rt.epochs.TryAdvance()
		bound = p.rt.epochs.SafeBefore()
	}
	p.ripe = bound
	i := 0
	for i < len(p.pending) && p.pending[i].epoch < bound {
		e, n := p.pending[i].epoch, i
		for ; i < len(p.pending) && p.pending[i].epoch == e; i++ {
			p.scrubDescriptor(p.pending[i].d)
		}
		p.metrics.Inc(obs.EpochReclaimBatches)
		p.metrics.Add(obs.EpochReclaimLagEpochs, bound-e)
		p.traceEmit(trace.EpochReclaim, 0, e, uint64(i-n))
	}
	if i > 0 {
		n := copy(p.pending, p.pending[i:])
		clear(p.pending[n:])
		p.pending = p.pending[:n]
	}
}

// Recycler reuses records of type T: the state a thunk reads through a
// method value bound once, so no critical section builds a closure
// (DESIGN.md S10). A helper may run the thunk after its owner returned,
// so a record put back at global epoch e is reused only once
// SafeBefore() > e, as a parked descriptor is. Records wait on the Proc
// that put them back, in one FIFO of reusePendingCap per Recycler; a
// full FIFO leaves them to the garbage collector.
type Recycler[T any] struct {
	id int
	mk func() *T // makes a fresh record and binds its method values
}

var recyclers atomic.Int32

// NewRecycler returns a handle with a FIFO on every Proc.
func NewRecycler[T any](mk func() *T) Recycler[T] {
	return Recycler[T]{id: int(recyclers.Add(1)) - 1, mk: mk}
}

// Get returns the oldest parked record if it is ripe, else a fresh one,
// counted in obs.RecycleMisses.
func (r Recycler[T]) Get(p *Proc) *T {
	if x := p.recycled(r.id); x != nil {
		return (*T)(x)
	}
	p.metrics.Inc(obs.RecycleMisses)
	return r.mk()
}

// Put parks x, which the calling operation no longer uses. In blocking
// mode no helper can reach x, so its stamp 0 is ripe at once.
func (r Recycler[T]) Put(p *Proc, x *T) {
	for r.id >= len(p.recycle) {
		p.recycle = append(p.recycle, new(recycleFIFO))
	}
	q := p.recycle[r.id]
	if q.n == reusePendingCap {
		return
	}
	e := &q.ring[(q.head+q.n)%reusePendingCap]
	e.x, e.epoch = unsafe.Pointer(x), 0
	if !p.rt.blocking.Load() {
		e.epoch = p.rt.epochs.GlobalEpoch()
	}
	q.n++
}

// recycleFIFO is one Recycler's ring on a Proc, in stamp order.
type recycleFIFO struct {
	ring [reusePendingCap]struct {
		x     unsafe.Pointer
		epoch uint64
	}
	head, n int
}

// recycled pops FIFO id's head if it is ripe under p.ripe, the bound the
// last drain or scan read, or else under a fresh one. A bound covers
// every record stamped below it, since that record was put back before
// the bound was read. It never advances the epoch: a lone Proc would
// then advance it on every operation.
func (p *Proc) recycled(id int) unsafe.Pointer {
	if id >= len(p.recycle) || p.recycle[id].n == 0 {
		return nil
	}
	q := p.recycle[id]
	e := &q.ring[q.head]
	if e.epoch >= p.ripe {
		// While the slot that set the bound still announces it, the bound
		// has not moved: one load instead of a scan, which matters when a
		// descheduled worker pins the epoch and every Get misses.
		if p.ripeBy != nil && p.ripeBy.Announced() == p.ripe {
			return nil
		}
		if p.ripe, p.ripeBy = p.rt.epochs.SafeBeforeBy(); e.epoch >= p.ripe {
			return nil
		}
	}
	q.head, q.n = (q.head+1)%reusePendingCap, q.n-1
	x := e.x
	e.x = nil
	return x
}

// reuseTickDrain is the per-guard-entry cadence hook called from Begin.
func (p *Proc) reuseTickDrain() {
	if len(p.pending) == 0 {
		return
	}
	p.reuseTick++
	if p.reuseTick%reuseDrainEvery == 0 {
		p.drainReuse()
	}
}

// scrubDescriptor resets a retired descriptor past its grace period and
// returns it to the freelist. Every run commits log positions in order,
// so the committed slots form a prefix of the log: the scrub clears
// slots until the first nil one, leaving the spill blocks linked for the
// next life. The thunk reference is dropped (it may pin arbitrary
// captured state). Plain stores are safe here — by the S10 invariant
// nothing can still observe the descriptor.
func (p *Proc) scrubDescriptor(d *descriptor) {
scrub:
	for b := &d.first; b != nil; b = b.next.Load() {
		for i := range b.entries {
			if b.entries[i].v == nil {
				break scrub
			}
			b.entries[i].resetPlain()
		}
	}
	d.thunk = nil
	d.birth = 0
	d.owner = 0
	d.finisher.Store(0)
	d.started.Store(0)
	p.putDescriptor(d)
}

// allocDescriptor pops a clean descriptor or allocates a fresh one.
func (p *Proc) allocDescriptor() *descriptor {
	if n := len(p.dfree); n > 0 {
		d := p.dfree[n-1]
		p.dfree[n-1] = nil
		p.dfree = p.dfree[:n-1]
		p.metrics.Inc(obs.PoolHits)
		return d
	}
	p.metrics.Inc(obs.PoolMisses)
	return &descriptor{}
}

// releaseDescriptor returns a descriptor that was never published (its
// commit lost to another run) straight to the freelist.
func (p *Proc) releaseDescriptor(d *descriptor) {
	if !p.rt.pooling {
		return
	}
	d.thunk = nil
	d.birth = 0
	p.putDescriptor(d)
}

// putDescriptor pushes a clean descriptor onto the freelist (dropping it
// when the list is at capacity).
func (p *Proc) putDescriptor(d *descriptor) {
	if len(p.dfree) < reusePendingCap {
		p.dfree = append(p.dfree, d)
	} else {
		p.spill(spillFreelistFull)
	}
}

// retireDescriptor parks a descriptor that was just unlinked from a lock
// word (the CAS that released its lock succeeded in the calling run).
// Reuse waits out the grace period so stragglers replaying it, and its
// owner still reading it, stay safe (DESIGN.md S7/S10).
func (p *Proc) retireDescriptor(d *descriptor) {
	if d == nil || !p.rt.pooling {
		return
	}
	p.deferReuse(d)
}

// spill counts and traces one descriptor dropped to the garbage
// collector because the pending list or the freelist was at capacity;
// site says which.
func (p *Proc) spill(site uint64) {
	p.metrics.Inc(obs.PoolSpills)
	p.traceEmit(trace.PoolSpill, 0, site, 0)
}
