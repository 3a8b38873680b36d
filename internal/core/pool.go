package flock

import (
	"flock/internal/obs"
	"flock/internal/obs/trace"
)

// Per-Proc descriptor pool (§6 of the paper, DESIGN.md S10).
//
// Descriptors are the only pooled objects: one per lock acquisition,
// with the first log block embedded and its spill blocks linked behind
// it for the descriptor's whole pooled life, so a recycled descriptor
// brings its log along and a long thunk allocates no blocks once its
// descriptor has been round the pool. Value boxes and structure nodes
// are left to the garbage collector, which keeps their addresses unique
// while a log or helper still holds them (S1).
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
// The pending list is the only grace-period queue in the repository,
// so drainReuse is where reclamation is measured: each ripe batch is
// counted (obs.EpochReclaimBatches, EpochReclaimLagEpochs) and traced
// (trace.EpochReclaim) on the draining Proc.
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

// Epoch returns the runtime's global epoch. A layer above the core that
// recycles objects its thunks capture stamps each one with Epoch when it
// stops using it and reuses it only once Ripe(stamp) holds (DESIGN.md
// S10).
func (p *Proc) Epoch() uint64 { return p.rt.epochs.GlobalEpoch() }

// Ripe reports whether an object stamped with Epoch at e has passed its
// grace period: every operation, and every helper lowered to the birth
// epoch of a descriptor it replays, that could still reference the
// object has finished. Like drainReuse, it tries to advance the epoch
// once when e is not yet ripe.
func (p *Proc) Ripe(e uint64) bool {
	m := p.rt.epochs
	if e < m.SafeBefore() {
		return true
	}
	m.TryAdvance()
	return e < m.SafeBefore()
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
