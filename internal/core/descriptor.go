package flock

import "sync/atomic"

// Thunk is the paper's thunk: a critical section taking no arguments
// beyond the executing Proc and returning a boolean (typically: did the
// protected operation succeed, or should the caller retry). A Thunk must
// follow the determinism rules in the package documentation.
type Thunk func(*Proc) bool

// descriptor carries everything a helper needs to complete a critical
// section: the lock version it holds, the thunk, its shared log, a started
// flag, and the epoch at which the owning operation was running (helpers
// lower themselves to it, §6).
// The first log block is embedded so descriptor creation is a single
// allocation — or none: descriptors come from the per-Proc freelist and
// are recycled after an epoch grace period once the CAS that releases
// their lock unlinks them from the lock word (an unlocked word never
// holds a descriptor). A straggling helper that re-runs a
// completed (but not yet recycled) descriptor replays against a full log
// and already-installed boxes, so every one of its effects is discarded;
// its epoch announcement is what delays the recycling (DESIGN.md S7 and
// S10).
type descriptor struct {
	// ver is the odd version of the lock word while it holds this
	// descriptor (DESIGN.md S1). It is written before the descriptor is
	// committed or installed and never while installed. It is the first
	// field: decodeWord reads it through a *uint64 before it knows
	// whether a word is a descriptor.
	ver   uint64
	thunk Thunk
	birth uint64
	// started is an update-once boolean set by every run of the thunk
	// before it executes (runAndUnlock): set means the descriptor was
	// installed in its lock word. It is what an acquisition checks when
	// the word no longer holds its descriptor (loadStarted).
	started atomic.Uint32
	// owner is the id of the Proc whose acquisition this descriptor
	// represents; finisher is claimed (CAS from zero) by exactly one run
	// when metrics are enabled, giving the obs layer exact helping
	// attribution: claimer == owner is an own-completion, anything else
	// is a help given, and losing the claim is a replay. Both are scrub
	// state only — correctness never reads them.
	owner    uint64
	finisher atomic.Uint64
	first    logBlock
}

// newDescriptor creates (idempotently, when nested inside another thunk)
// the descriptor for a lock acquisition at version ver. The descriptor
// pointer itself is committed directly into the log slot — no wrapper
// allocation — and a descriptor whose commit lost to another run was
// never published, so it returns to the freelist immediately.
func (p *Proc) newDescriptor(f Thunk, ver uint64) *descriptor {
	d := p.allocDescriptor()
	d.ver = ver
	d.thunk = f
	d.birth = p.currentEpoch()
	d.owner = p.id
	if p.blk == nil {
		return d
	}
	c, first := commitPtr(p, d)
	if !first {
		p.releaseDescriptor(d)
	}
	return c
}

func (p *Proc) currentEpoch() uint64 {
	if e := p.slot.Announced(); e != ^uint64(0) {
		return e
	}
	return p.rt.epochs.GlobalEpoch()
}

// loadStarted reads the descriptor's started flag with update-once
// semantics: committed inside thunks (via the boolean sentinel encoding,
// no allocation) so all helpers agree.
func (d *descriptor) loadStarted(p *Proc) bool {
	v := d.started.Load() != 0
	c, _ := p.commitBool(v)
	return c
}

// run executes the descriptor's thunk under its shared log (Algorithm 2,
// run): it installs the descriptor's log, runs the thunk from position 0,
// and restores the previous log and position, so nested thunks and
// helping compose. While running, the Proc announces the minimum of its
// epoch and the descriptor's birth epoch so that memory the thunk
// committed references to stays unreclaimed — and unrecycled — for
// stragglers (§6, DESIGN.md S10).
func (p *Proc) run(d *descriptor) bool {
	prev := p.slot.Lower(d.birth)
	res := p.runLowered(d)
	p.slot.Restore(prev)
	return res
}

// runLowered is run for a caller that has already lowered its
// announcement to d's birth epoch (Lock.runAndUnlock's helping path).
func (p *Proc) runLowered(d *descriptor) bool {
	oblk, oidx := p.blk, p.idx
	p.blk, p.idx = &d.first, 0
	res := d.thunk(p)
	p.blk, p.idx = oblk, oidx
	return res
}
