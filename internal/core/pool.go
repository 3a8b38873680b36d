package flock

import (
	"sync/atomic"
	"unsafe"

	"flock/internal/obs"
	"flock/internal/obs/trace"
)

// Per-Proc grace-period recycling (§6 of the paper, DESIGN.md S10).
//
// Descriptors, and the records layers above core read from their thunks,
// are reused through one mechanism, Recycler. A record put back at
// global epoch e waits in a FIFO on the Proc that put it back and is
// handed out again only once every in-flight operation announces an
// epoch strictly greater than e (epoch.Manager.SafeBefore). Helpers
// lower their announcement to the birth epoch of the descriptor they
// replay (descriptor.run), so a straggler that can still load a
// recycled record from a log always holds an announcement that blocks
// its reuse. A descriptor keeps its first log block embedded and its
// spill blocks linked for its whole pooled life, so a long thunk
// allocates no blocks once its descriptor has been round the pool.
// Value boxes and structure nodes are left to the garbage collector,
// which keeps their addresses unique while a log or helper still holds
// them (S1).
//
// recycleCap bounds each FIFO: on an oversubscribed machine a
// preempted worker can pin an old epoch for a whole scheduler quantum
// while puts arrive at memory speed. A record put to a full FIFO is
// left to the garbage collector, which is always correct, and counted
// (obs.PoolSpills, trace.PoolSpill). advanceEvery is the number of
// Gets that find a FIFO head unripe between epoch advance attempts.
const (
	recycleCap   = 256
	advanceEvery = 16
)

// Recycler reuses records of type T: descriptors, and the state a
// thunk reads through a method value bound once, so no critical section
// builds a closure (DESIGN.md S10). A helper may run the thunk after
// its owner returned, so a record put back at global epoch e is reused
// only once SafeBefore() > e. Records wait on the Proc that put them
// back, in one FIFO of recycleCap per Recycler.
type Recycler[T any] struct {
	id int
	mk func() *T // makes a fresh record and binds its method values
}

var recyclers atomic.Int32

// NewRecycler returns a handle with a FIFO on every Proc.
func NewRecycler[T any](mk func() *T) Recycler[T] {
	return Recycler[T]{id: int(recyclers.Add(1)) - 1, mk: mk}
}

// Get returns the oldest parked record if it is ripe (obs.PoolHits),
// else a fresh one (obs.PoolMisses). A recycled record comes back as it
// was put: the caller resets what it reads.
func (r Recycler[T]) Get(p *Proc) *T {
	if x := p.recycled(r.id); x != nil {
		p.metrics.Inc(obs.PoolHits)
		return (*T)(x)
	}
	p.metrics.Inc(obs.PoolMisses)
	return r.mk()
}

// Put parks x, which the calling operation no longer uses. In blocking
// mode no helper can reach x, so its stamp 0 is ripe at once.
func (r Recycler[T]) Put(p *Proc, x *T) {
	for r.id >= len(p.recycle) {
		p.recycle = append(p.recycle, new(recycleFIFO))
	}
	q := p.recycle[r.id]
	if q.n == recycleCap {
		p.metrics.Inc(obs.PoolSpills)
		p.traceEmit(trace.PoolSpill, 0, 0, 0)
		return
	}
	e := &q.ring[(q.head+q.n)%recycleCap]
	e.x, e.epoch = unsafe.Pointer(x), 0
	if !p.rt.blocking.Load() {
		e.epoch = p.rt.epochs.GlobalEpoch()
	}
	q.n++
}

// recycleFIFO is one Recycler's ring on a Proc, in stamp order. last is
// the stamp of the last record popped, which ends a reclaimed batch.
type recycleFIFO struct {
	ring [recycleCap]struct {
		x     unsafe.Pointer
		epoch uint64
	}
	head, n int
	last    uint64
}

// recycled pops FIFO id's head if it is ripe under p.ripe, the bound
// last read, or else under a fresh one. A bound covers every record
// stamped below it, since that record was put back before the bound was
// read. Every advanceEvery-th unripe head tries to advance the epoch: a
// worker running top-level operations outside guards would otherwise
// wait for another slot's guard entries, and a lone Proc advancing on
// every miss would shrink its FIFO to one record.
//
// The first record of each run of equal nonzero stamps is one reclaimed
// batch, counted with its lag at reuse and traced as EpochReclaim.
func (p *Proc) recycled(id int) unsafe.Pointer {
	if id >= len(p.recycle) || p.recycle[id].n == 0 {
		return nil
	}
	q := p.recycle[id]
	e := &q.ring[q.head]
	if e.epoch >= p.ripe {
		if p.unripe++; p.unripe%advanceEvery == 0 {
			p.rt.epochs.TryAdvance()
		} else if p.ripeBy != nil && p.ripeBy.Announced() == p.ripe {
			// While the slot that set the bound still announces it, the
			// bound has not moved: one load instead of a scan, which
			// matters when a descheduled worker pins the epoch and every
			// Get misses.
			return nil
		}
		if p.ripe, p.ripeBy = p.rt.epochs.SafeBeforeBy(); e.epoch >= p.ripe {
			return nil
		}
	}
	if e.epoch != 0 && e.epoch != q.last {
		q.last = e.epoch
		p.metrics.Inc(obs.EpochReclaimBatches)
		p.metrics.Add(obs.EpochReclaimLagEpochs, p.ripe-e.epoch)
		p.traceEmit(trace.EpochReclaim, 0, e.epoch, p.ripe-e.epoch)
	}
	q.head, q.n = (q.head+1)%recycleCap, q.n-1
	x := e.x
	e.x = nil
	return x
}

var descriptors = NewRecycler(func() *descriptor { return new(descriptor) })

// allocDescriptor takes the spare, else a scrubbed recycled or fresh
// descriptor. The spare counts as a pool hit: every allocation counts
// one hit or one miss.
func (p *Proc) allocDescriptor() *descriptor {
	d := p.spare
	if d == nil {
		return descriptors.Get(p).scrub()
	}
	p.spare = nil
	p.metrics.Inc(obs.PoolHits)
	return d
}

// scrub resets a descriptor for its next life; newDescriptor sets the
// rest. Every run commits log positions in order, so the committed slots
// form a prefix of the log: the scrub clears slots until the first nil
// one, leaving the spill blocks linked. Plain stores are safe here: past
// the grace period nothing can still observe the descriptor (S10).
func (d *descriptor) scrub() *descriptor {
scrub:
	for b := &d.first; b != nil; b = b.next.Load() {
		for i := range b.entries {
			if b.entries[i].v == nil {
				break scrub
			}
			b.entries[i].resetPlain()
		}
	}
	d.finisher.Store(0)
	d.started.Store(0)
	return d
}

// releaseDescriptor keeps a descriptor that was never published (its
// commit or top-level install lost) as the Proc's spare, for the next
// allocDescriptor. No run of it exists, so it needs no grace period and
// no scrub.
func (p *Proc) releaseDescriptor(d *descriptor) {
	if p.rt.pooling {
		d.thunk = nil
		p.spare = d
	}
}

// retireDescriptor parks a descriptor that was just unlinked from a lock
// word (the CAS that released its lock succeeded in the calling run).
// Reuse waits out the grace period so stragglers replaying it, and its
// owner still reading it, stay safe (DESIGN.md S7/S10).
func (p *Proc) retireDescriptor(d *descriptor) {
	if p.rt.pooling {
		descriptors.Put(p, d)
	}
}
