package flock

import (
	"flock/internal/obs"
	"flock/internal/obs/trace"
)

// Per-Proc object pools (§6 of the paper, DESIGN.md S10).
//
// The commit path allocates three kinds of objects per operation in a
// GC-naive port: descriptors (one per lock acquisition, with the first
// log block embedded), spill logBlocks (one per 7 logged steps past the
// first block) and mboxes (one per Store/CAM). All three are recycled
// here through per-Proc freelists instead of being dropped to the
// garbage collector.
//
// Reuse is gated by the epoch manager's grace period: an object CASed
// out of its location at global epoch e may be handed back to a
// freelist only once every in-flight operation announces an epoch
// strictly greater than e (epoch.Manager.SafeBefore). Helpers lower
// their announcement to the birth epoch of the descriptor they replay
// (descriptor.run), so a straggler that can still load a recycled
// address from a log always holds an announcement that blocks its
// recycling — the same ABA-freedom S1 used to buy from GC uniqueness,
// now bought from grace periods (DESIGN.md S10).
//
// The pending list is the only grace-period queue in the repository:
// structure nodes are never pooled, so the garbage collector is the
// paper's free for them, and the epoch package keeps no retire list.
// drainReuse is therefore where reclamation is measured: each ripe
// batch is counted (obs.EpochReclaimBatches, EpochReclaimLagEpochs)
// and traced (trace.EpochReclaim) on the draining Proc.
//
// Objects that lost their publication CAS (a descriptor or mbox whose
// commit lost to another run, a spill block whose link CAS lost) were
// never visible to any other thread and are recycled immediately, with
// no grace period.

// maxPoolFree caps the box and spill-block freelists. Pooled boxes
// still reference whatever they pointed at when unlinked (a pooled box
// pins its old value until reused), so deep freelists mean deep GC mark
// work; overflow is dropped to the GC instead. The descriptor freelist
// is capped at reusePendingCap instead: a scrubbed descriptor pins
// nothing, and a drain of a full pending list must not spill it.
const maxPoolFree = 64

// reuseDrainEvery is how many guard entries (or saturated defers) pass
// between drain attempts. reusePendingCap bounds the pending list: on an
// oversubscribed machine a preempted worker can pin an old epoch for a
// whole scheduler quantum, stretching grace periods to milliseconds
// while retires arrive at memory speed — without a cap the pending list
// (and its GC mark cost) would grow by the thousands. Overflow is
// dropped to the garbage collector, which is always a correct fallback
// (it is exactly the NoPool arm's behaviour).
const (
	reuseDrainEvery = 16
	reusePendingCap = 256
)

// poolKey values identify the object type of a pooled entry. A key is a
// typed nil pointer boxed in an interface: comparing keys compares the
// type words, and boxing a pointer allocates nothing.
type poolKey = any

func boxKey[V comparable]() poolKey { return (*mbox[V])(nil) }

var descriptorKey poolKey = (*descriptor)(nil)

// typedPool is one freelist, keyed by object type. Procs hold a small
// linear-scanned slice of these: the number of distinct Mutable value
// types in a program is a handful, so a scan beats hashing.
type typedPool struct {
	key  poolKey
	free []any
}

// reusable is an object waiting out its grace period before rejoining a
// freelist. epoch is the global epoch at which it was unlinked.
type reusable struct {
	key   poolKey
	obj   any
	epoch uint64
}

// poolGet pops a reusable object of the keyed type, or returns nil.
func (p *Proc) poolGet(key poolKey) any {
	for i := range p.pools {
		tp := &p.pools[i]
		if tp.key == key {
			n := len(tp.free)
			if n == 0 {
				return nil
			}
			o := tp.free[n-1]
			tp.free[n-1] = nil
			tp.free = tp.free[:n-1]
			return o
		}
	}
	return nil
}

// poolPut pushes an object onto the keyed freelist (dropping it when the
// list is at capacity).
func (p *Proc) poolPut(key poolKey, obj any) {
	for i := range p.pools {
		tp := &p.pools[i]
		if tp.key == key {
			if len(tp.free) < maxPoolFree {
				tp.free = append(tp.free, obj)
			} else {
				p.spill()
			}
			return
		}
	}
	p.pools = append(p.pools, typedPool{key: key, free: append(make([]any, 0, 16), obj)})
}

// deferReuse parks obj until the epoch grace period passes. Must be
// called by the (unique) thread whose CAS unlinked obj from its
// location, so each address is parked at most once per lifetime. When
// the pending list is saturated (grace periods outpaced by the retire
// rate), the object is dropped to the GC instead — correct, just not
// recycled.
func (p *Proc) deferReuse(key poolKey, obj any) {
	if len(p.pending) >= reusePendingCap {
		// Saturated: drop to the GC. The Begin cadence (reuseTickDrain)
		// keeps attempting drains, so the list unsticks as soon as the
		// epoch moves again.
		p.spill()
		return
	}
	p.pending = append(p.pending, reusable{key: key, obj: obj, epoch: p.rt.epochs.GlobalEpoch()})
}

// drainReuse moves every ripe pending entry onto its freelist. An entry
// parked at epoch e is ripe once SafeBefore() > e: every operation (or
// helper lowered to a thunk birth epoch) that could still reference the
// address has finished. Entries are appended in epoch order, so the ripe
// ones form a prefix of runs of equal epoch. Each run is one reclaimed
// batch: it is counted, with its lag bound−e in epochs, and traced as
// one EpochReclaim event.
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
	i := 0
	for i < len(p.pending) && p.pending[i].epoch < bound {
		e, n := p.pending[i].epoch, i
		for ; i < len(p.pending) && p.pending[i].epoch == e; i++ {
			p.recycle(p.pending[i])
		}
		p.metrics.Inc(obs.EpochReclaimBatches)
		p.metrics.Add(obs.EpochReclaimLagEpochs, bound-e)
		p.traceEmit(trace.EpochReclaim, 0, e, uint64(i-n))
	}
	if i > 0 {
		n := copy(p.pending, p.pending[i:])
		for j := n; j < len(p.pending); j++ {
			p.pending[j] = reusable{}
		}
		p.pending = p.pending[:n]
	}
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

// recycle cleans one ripe object and returns it to its freelist.
func (p *Proc) recycle(r reusable) {
	if r.key == descriptorKey {
		p.scrubDescriptor(r.obj.(*descriptor))
		return
	}
	p.poolPut(r.key, r.obj)
}

// scrubDescriptor resets a retired descriptor past its grace period:
// the spill chain is harvested into the block freelist, the embedded
// first block and flags are cleared, and the thunk reference is dropped
// (it may pin arbitrary captured state). Plain stores are safe here —
// by the S10 invariant nothing can still observe the descriptor.
func (p *Proc) scrubDescriptor(d *descriptor) {
	for b := d.first.next.Load(); b != nil; {
		nb := b.next.Load()
		p.freeBlock(b)
		b = nb
	}
	d.first.next.Store(nil)
	d.first.resetPlain()
	d.thunk = nil
	d.birth = 0
	d.owner = 0
	d.finisher.Store(0)
	d.started.Store(0)
	p.putDescriptor(d)
}

// allocDescriptor pops a clean descriptor or allocates a fresh one.
func (p *Proc) allocDescriptor() *descriptor {
	if p.rt.pooling {
		if n := len(p.dfree); n > 0 {
			d := p.dfree[n-1]
			p.dfree[n-1] = nil
			p.dfree = p.dfree[:n-1]
			p.metrics.Inc(obs.PoolHits)
			return d
		}
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
		p.spill()
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
	p.deferReuse(descriptorKey, d)
}

// allocBlock pops a clean spill block or allocates a fresh one.
func (p *Proc) allocBlock() *logBlock {
	if p.rt.pooling {
		if n := len(p.bfree); n > 0 {
			b := p.bfree[n-1]
			p.bfree[n-1] = nil
			p.bfree = p.bfree[:n-1]
			p.metrics.Inc(obs.PoolHits)
			return b
		}
	}
	p.metrics.Inc(obs.PoolMisses)
	return &logBlock{}
}

// freeBlock returns a block to the freelist. Callers either lost the
// link CAS (block never published, still clean) or are scrubbing a
// descriptor past its grace period; both make plain resets safe.
func (p *Proc) freeBlock(b *logBlock) {
	if !p.rt.pooling {
		return
	}
	b.next.Store(nil)
	b.resetPlain()
	if len(p.bfree) < maxPoolFree {
		p.bfree = append(p.bfree, b)
	} else {
		p.spill()
	}
}

// spill counts and traces one pooled object dropped to the garbage
// collector because its freelist or the pending list was at capacity.
func (p *Proc) spill() {
	p.metrics.Inc(obs.PoolSpills)
	p.traceEmit(trace.PoolSpill, 0, 0, 0)
}

// allocBox pops (or allocates) an mbox and sets its value.
func allocBox[V comparable](p *Proc, v V) *mbox[V] {
	if p.rt.pooling {
		if o := p.poolGet(boxKey[V]()); o != nil {
			bx := o.(*mbox[V])
			bx.v = v
			p.metrics.Inc(obs.PoolHits)
			return bx
		}
	}
	p.metrics.Inc(obs.PoolMisses)
	return &mbox[V]{v: v}
}

// freeBox returns a box that was never published (its install CAS lost)
// straight to the freelist.
func freeBox[V comparable](p *Proc, b *mbox[V]) {
	if b == nil || !p.rt.pooling {
		return
	}
	var zero V
	b.v = zero
	p.poolPut(boxKey[V](), b)
}

// retireBox parks a box that was just CASed out of its location; it
// rejoins the freelist after the grace period.
func retireBox[V comparable](p *Proc, b *mbox[V]) {
	if b == nil || !p.rt.pooling {
		return
	}
	p.deferReuse(boxKey[V](), b)
}

// PoolStats reports the current freelist and pending-reuse sizes (tests
// and diagnostics only).
func (p *Proc) PoolStats() (descriptors, blocks, boxes, pending int) {
	descriptors = len(p.dfree)
	blocks = len(p.bfree)
	for i := range p.pools {
		boxes += len(p.pools[i].free)
	}
	return descriptors, blocks, boxes, len(p.pending)
}
