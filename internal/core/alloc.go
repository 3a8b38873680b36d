package flock

// Allocate constructs an object idempotently inside a thunk (Algorithm 2,
// allocate): the first run to commit wins and all runs return the
// winner's object. The winning pointer is committed directly into the
// log slot, so the commit itself allocates nothing. Under the default
// read-first commit (compare-and-compare-and-swap, §6) a run that finds
// the slot already committed returns the committed object without
// calling mk, so a replay builds nothing; a run that races the first
// commit (or, with the read-first commit off, any run) calls mk and
// drops its object if it loses (the paper's sysFree becomes garbage
// collection). mk must have no side effects other than building the
// object. Outside a thunk it is just mk().
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
