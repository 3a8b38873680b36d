package flock

import "sync/atomic"

// mbox is the immutable-while-installed heap box holding one version of
// a mutable value. Every Store/CAM installs a box that is not referenced
// by any location or log, so a box address can never recur in a location
// while a log or helper still references it: box identity is ABA-free.
// This plays the role of the paper's version tags (§6 "ABA"); lock
// words use the version tags themselves when unlocked (lock.go). Boxes
// are never pooled: the garbage collector frees a replaced box only
// once no log or helper references it, so the address cannot recur
// before then (DESIGN.md S1).
type mbox[V comparable] struct {
	v V
}

// Mutable is a shared location that may be mutated inside locks, with the
// interface of the paper's mutable<V> (Algorithm 2): Load, Store and CAM.
// Inside a thunk, loads commit the observed box pointer directly to the
// thunk's shared log (no wrapper, no interface box) so all helpers
// agree; stores and CAMs turn into a single CAS against the committed
// box, of which exactly one run's attempt can succeed. Outside any thunk
// (including all of blocking mode) the operations compile down to plain
// atomic loads and stores with no logging.
//
// The zero value holds the zero value of V.
type Mutable[V comparable] struct {
	b atomic.Pointer[mbox[V]]
}

// Init sets an initial value without synchronization requirements beyond
// publication of the enclosing object. It must not race with other
// accesses (use it in constructors, before the location is shared).
func (m *Mutable[V]) Init(v V) { m.b.Store(&mbox[V]{v: v}) }

// loadBox reads the current box and, inside a thunk, commits it so all
// runs observe the same box (and therefore the same value).
func (m *Mutable[V]) loadBox(p *Proc) *mbox[V] {
	bx := m.b.Load()
	if p.blk == nil {
		return bx
	}
	c, _ := commitPtr(p, bx)
	return c
}

// Load returns the current value (Algorithm 2, load).
func (m *Mutable[V]) Load(p *Proc) V {
	bx := m.loadBox(p)
	if bx == nil {
		var zero V
		return zero
	}
	return bx.v
}

// Store writes v (Algorithm 2, store). Inside a thunk it first performs a
// logged load, then a CAS from the committed old box, so only the first
// run's store takes effect. Stores must not race with other Stores or
// CAMs on the same location (they are protected by the enclosing lock).
// The replaced box, and a box that lost the install CAS, are left to
// the garbage collector.
func (m *Mutable[V]) Store(p *Proc, v V) {
	if p.blk == nil {
		m.b.Store(&mbox[V]{v: v})
		return
	}
	old := m.loadBox(p)
	if p.rt.avoidCAS && m.b.Load() != old {
		return // someone already moved it past old; our CAS would fail
	}
	m.b.CompareAndSwap(old, &mbox[V]{v: v})
}

// CAM is a compare-and-modify: if the current value equals old, replace it
// with new; it deliberately returns nothing, since different runs of the
// same thunk could observe different CAS outcomes (Algorithm 2, CAM).
func (m *Mutable[V]) CAM(p *Proc, old, new V) {
	bx := m.loadBox(p)
	var cur V
	if bx != nil {
		cur = bx.v
	}
	if cur != old {
		return
	}
	if p.blk != nil && p.rt.avoidCAS && m.b.Load() != bx {
		return
	}
	m.b.CompareAndSwap(bx, &mbox[V]{v: new})
}

// Link is a pointer location that needs no box because its pointers are
// their own ABA tags (DESIGN.md S1). It holds the *T inline: inside a
// thunk, Load commits the pointer itself to the log and Store is one CAS
// from the committed pointer to the new one, of which exactly one run's
// attempt can succeed. Outside any thunk (including all of blocking
// mode) Load and Store are plain atomics. No box is allocated, so a hop
// through a Link is one dependent load, not two.
//
// Contract: a pointer stored in a Link never recurs in that Link, and
// its pointees are never pooled, so the garbage collector keeps any
// pointer a log holds unique. A structure whose updates can set a
// location back to an earlier value (an A→B→A sequence) must use
// Mutable instead.
//
// The zero value holds nil.
type Link[T any] struct {
	p atomic.Pointer[T]
}

// Init sets an initial pointer; same contract as Mutable.Init.
func (l *Link[T]) Init(v *T) { l.p.Store(v) }

// Load returns the current pointer, committing it when inside a thunk.
func (l *Link[T]) Load(p *Proc) *T {
	v := l.p.Load()
	if p.blk == nil {
		return v
	}
	c, _ := commitPtr(p, v)
	return c
}

// Store writes v. Inside a thunk it first performs a logged load, then a
// CAS from the committed pointer, so only the first run's store takes
// effect. As with Mutable.Store, stores must not race with other stores
// to the same location.
func (l *Link[T]) Store(p *Proc, v *T) {
	if p.blk == nil {
		l.p.Store(v)
		return
	}
	old := l.Load(p)
	if p.rt.avoidCAS && l.p.Load() != old {
		return // someone already moved it past old; our CAS would fail
	}
	l.p.CompareAndSwap(old, v)
}

// UpdateOnce is a shared location with an initial value that is updated at
// most once (the paper's "update-once locations", §6): reads may happen
// before or after the update. Such locations are naturally ABA-free, so a
// store is a plain write (every run writes the same value) and a load
// commits the box pointer it read, like Mutable, with no wrapper entry.
//
// As with Mutable, every box is fresh from the heap, so a committed box
// pointer names one value for good: every run reads the same value
// from it.
//
// The zero value holds the zero value of V.
type UpdateOnce[V comparable] struct {
	b atomic.Pointer[mbox[V]]
}

// Init sets the initial value; same contract as Mutable.Init.
func (u *UpdateOnce[V]) Init(v V) { u.b.Store(&mbox[V]{v: v}) }

// Load returns the current value, committing its box when inside a thunk.
func (u *UpdateOnce[V]) Load(p *Proc) V {
	bx, _ := commitPtr(p, u.b.Load())
	if bx == nil {
		var zero V
		return zero
	}
	return bx.v
}

// Store performs the (at most one) update. All runs of a thunk write the
// same value, so a plain write is idempotent here.
func (u *UpdateOnce[V]) Store(p *Proc, v V) {
	_ = p
	u.b.Store(&mbox[V]{v: v})
}
