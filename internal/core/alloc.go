package flock

// Allocate constructs an object idempotently inside a thunk (Algorithm 2,
// allocate): the first run to commit wins and all runs return the
// winner's object. The winning pointer is committed directly into the
// log slot, so the commit itself allocates nothing. Under the default
// read-first commit (compare-and-compare-and-swap, §6) a run that finds
// the slot already committed returns the committed object without
// calling mk, so a replay builds nothing; a run that races the first
// commit, or any run under NoCCAS, calls mk and drops its object if it
// loses (the paper's sysFree becomes garbage collection). mk must have
// no side effects other than building the object. Outside a thunk it is
// just mk().
func Allocate[T any](p *Proc, mk func() *T) *T {
	if p.blk == nil {
		return mk()
	}
	var obj *T
	if !p.rt.avoidCAS || p.peek() == nil {
		obj = mk()
	}
	// A committed slot is immutable, so when peek saw one, the commit
	// below returns it and never installs obj.
	c, _ := commitPtr(p, obj)
	return c
}

// Retire schedules obj for reclamation once no concurrent operation can
// still reference it (Algorithm 2, retire, backed by the epoch manager of
// §6). Inside a thunk the runs of the thunk compete for ownership through
// the log so the object is retired exactly once. free may be nil, in which
// case reclamation is left entirely to the garbage collector and Retire
// only provides the idempotence bookkeeping; a non-nil free runs after the
// grace period (e.g. to return the object to a pool or update statistics).
func Retire[T any](p *Proc, obj *T, free func(*T)) {
	if p.blk == nil {
		if free != nil {
			f := free
			o := obj
			p.slot.Retire(func() { f(o) })
		}
		return
	}
	// All runs must commit (to stay position-synchronized) even when
	// there is nothing to do afterwards; the boolean sentinel encoding
	// keeps this allocation-free.
	_, first := p.commitBool(true)
	if first && free != nil {
		f := free
		o := obj
		p.slot.Retire(func() { f(o) })
	}
}
