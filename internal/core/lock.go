package flock

import (
	"runtime"
	"sync/atomic"
	"unsafe"

	"flock/internal/obs"
	"flock/internal/obs/trace"
)

// lockState is the value held by a lock word: a descriptor pointer, a
// locked bit (the paper packs these into one word by stealing a pointer
// bit; a locked word is a box, giving the same single-CAS atomicity, and
// an unlocked one a version tag, below), and a version counter bumped on
// every acquire and release. Embedding the version in the lock word
// makes its transitions atomic with the lock transitions — the single install CAS both takes (or releases) the
// lock and advances the version, so an optimistic reader can never
// observe a lock/version combination that did not exist (optimistic.go).
// The zero value is "unlocked, no descriptor, version 0".
type lockState struct {
	d      *descriptor
	locked bool
	ver    uint64
}

// lockTags backs the version tags of unlocked lock-free words (the
// paper's §6 ABA tags, DESIGN.md S1). An unlocked word of even version
// v >= 2 holds no heap box but the address of lockTags[v/2-1]; the
// version of a lock only grows, so a tag never returns to a word a
// straggler could still CAS from. The array is pointer-free and never
// written, so it sits in .noptrbss: the GC never scans it and no page of
// it is ever touched. Elements are the size and alignment of an
// mbox[lockState], keeping the pointer conversion valid. A version past
// the end gets a heap box, as a locked word does.
var lockTags [1 << 19][unsafe.Sizeof(mbox[lockState]{}) / unsafe.Sizeof(uintptr(0))]uintptr

// tagIndex returns the lockTags index bx addresses, or a value
// >= len(lockTags) when bx is a heap box or nil.
func tagIndex(bx *mbox[lockState]) uintptr {
	return (uintptr(unsafe.Pointer(bx)) - uintptr(unsafe.Pointer(&lockTags))) / unsafe.Sizeof(lockTags[0])
}

func isTag(bx *mbox[lockState]) bool { return tagIndex(bx) < uintptr(len(lockTags)) }

// tag returns the version tag encoding ls, or nil when ls is locked,
// holds a descriptor, has an odd version or is past the last tag.
func tag(ls lockState) *mbox[lockState] {
	i := ls.ver/2 - 1 // wraps for version 0
	if ls != (lockState{ver: ls.ver}) || ls.ver&1 != 0 || i >= uint64(len(lockTags)) {
		return nil
	}
	return (*mbox[lockState])(unsafe.Pointer(&lockTags[i]))
}

// decodeWord returns the state a lock word holds. A tag is decoded from
// its address and never dereferenced.
func decodeWord(bx *mbox[lockState]) lockState {
	if i := tagIndex(bx); i < uintptr(len(lockTags)) {
		return lockState{ver: 2*uint64(i) + 2}
	}
	if bx == nil {
		return lockState{}
	}
	return bx.v
}

// load reads the lock word (committed inside a thunk, like Mutable.Load).
func (l *Lock) load(p *Proc) lockState { return decodeWord(l.state.loadBox(p)) }

// cas is the lock word's CAM (Algorithm 2) plus a report of whether this
// call's own CAS installed new: exactly one run of a thunk can succeed,
// and only that run retires the old box and parks the released
// descriptor. An unlocked new state is installed as its tag when in
// range; tags never enter a freelist or the pending list.
func (l *Lock) cas(p *Proc, old, new lockState) bool {
	bx := l.state.loadBox(p)
	if decodeWord(bx) != old {
		return false
	}
	if p.blk != nil && p.rt.avoidCAS && l.state.b.Load() != bx {
		return false
	}
	nb := tag(new)
	if nb == nil {
		nb = allocBox(p, new)
	}
	if l.state.b.CompareAndSwap(bx, nb) {
		if !isTag(bx) {
			retireBox(p, bx)
		}
		return true
	}
	if !isTag(nb) {
		freeBox(p, nb)
	}
	return false
}

// Lock is a lock-free try-lock (Algorithm 3). The zero value is an
// unlocked lock. In lock-free mode a taken lock holds a descriptor that
// any thread may help complete; in blocking mode it degenerates to a
// test-and-test-and-set lock with no logging. The mode is taken from the
// Runtime of the Proc performing each operation.
type Lock struct {
	state Mutable[lockState]
	// bver is the blocking-mode version seqlock. Blocking acquisitions
	// share two static boxes (below), which cannot carry a per-lock
	// version, so blocking mode bumps this separate counter to odd after
	// winning the acquisition CAS and to even before the releasing
	// store. ReadVersion folds bver into the reported version so one
	// validation protocol covers both modes.
	bver atomic.Uint64
}

// lockID names a lock in flight-recorder events: its address, which is
// stable for the lock's lifetime and cheap to obtain. (A recycled
// address can in principle denote two locks within one trace window;
// generations disambiguate critical-section instances regardless.)
func lockID(l *Lock) uint64 { return uint64(uintptr(unsafe.Pointer(l))) }

// blockHeld is one entry of a Proc's blocking-mode held-lock stack:
// the acquired lock, and whether the critical section already released
// it early via Unlock (in which case the scope exit must not release
// it again — another thread may hold it by then).
type blockHeld struct {
	l        *Lock
	released bool
}

// Shared boxes for blocking mode: blocking acquisitions never dereference
// the descriptor, so all blocking locks can share one locked and one
// unlocked box. (An ABA "reacquire across a full lock/unlock cycle" on
// these boxes is harmless: the CAS still only succeeds on an unlocked
// lock, which is the entire TTAS contract.)
var (
	blockedBox   = &mbox[lockState]{v: lockState{locked: true}}
	unblockedBox = &mbox[lockState]{v: lockState{locked: false}}
)

// TryLock attempts to acquire the lock and run thunk f inside it. It
// returns false if the lock was held (after helping the holder finish, in
// lock-free mode) or if f returned false; it returns true only when the
// lock was acquired and f returned true. Locks taken inside f must be
// acquired through nested TryLock calls (the paper's "simply nested"
// discipline keeps the construction lock-free).
func (l *Lock) TryLock(p *Proc, f Thunk) bool {
	p.traceEmit(trace.AcqStart, lockID(l), 0, 0)
	if p.rt.blocking.Load() {
		return l.tryLockBlocking(p, f)
	}
	if p.blk == nil {
		// A top-level acquisition holds its own epoch guard from the
		// descriptor's creation until it stops reading it (a no-op depth
		// increment under a structure's Begin): a helper may release and
		// park my while we still read loadStarted and finisher (DESIGN.md
		// S7).
		p.slot.Enter()
		defer p.slot.Exit()
	}
	result := false
	cur := l.load(p)
	if !cur.locked {
		my := p.newDescriptor(f)
		myLS := lockState{d: my, locked: true, ver: cur.ver + 1}
		// cur is unlocked, so it carries no descriptor: the releasing
		// CAS of the previous acquisition already unlinked and parked
		// it (runAndUnlock). cas reports whether our own CAS installed
		// myLS, for the install-failure and trace accounting.
		swapped := l.cas(p, cur, myLS)
		if !swapped && obs.On() {
			p.metrics.Inc(obs.InstallCASFails)
		}
		if swapped && p.blk == nil {
			// A top-level physical install always commits (once in the
			// lock word, the descriptor is helped to completion), so
			// this event count equals obs.AcquiresLF, timestamped
			// before the critical section runs.
			p.traceEmit(trace.AcqInstalled, lockID(l), p.id, myLS.ver)
		}
		cur2 := l.load(p)
		// The started check (the paper's done check, Algorithm 3, line
		// 20) is essential: our CAM may have succeeded and the word
		// already left myLS — released by a helper, or freed by the
		// thunk's own hand-over-hand Unlock while it still runs — in
		// which case cur2 != myLS but the acquisition did happen and we
		// must return its result. Every run sets started before running
		// the thunk, so before either release; done would come too late
		// for the second (DESIGN.md S7).
		if my.loadStarted(p) || cur2 == myLS {
			if p.blk == nil {
				p.maybeStall() // injected descheduling while holding the lock
			}
			result = l.runAndUnlock(p, myLS, false) // run own critical section
			if p.blk == nil && obs.On() {
				p.metrics.Inc(obs.AcquiresLF)
				// runAndUnlock attempted the completion claim, so by here
				// the finisher is resolved: if it is not us, a helper
				// carried our critical section to completion.
				if my.finisher.Load() != p.id {
					p.metrics.Inc(obs.HelpsReceived)
				}
			}
		} else {
			if cur2.locked {
				l.runAndUnlock(p, cur2, true) // lost the race: help the winner
			}
			// else: the lock was acquired and released between our
			// loads; nothing to help. Either way our tryLock failed.
			if !swapped && p.blk == nil {
				// Top level with a failed install: no other run of this
				// acquisition exists, so my was never published and goes
				// straight back to the freelist.
				p.releaseDescriptor(my)
			}
		}
	} else {
		l.runAndUnlock(p, cur, true) // help the current holder, then report failure
	}
	return result
}

// Lock is the strict lock variant: it loops, helping any holder, until it
// acquires the lock, then runs f and returns f's result. Strict locks are
// not simply nested (§4), but remain useful for comparison with try-locks
// (Figure 4) and for code that cannot restart.
func (l *Lock) Lock(p *Proc, f Thunk) bool {
	p.traceEmit(trace.AcqStart, lockID(l), 0, 0)
	if p.rt.blocking.Load() {
		return l.lockBlocking(p, f)
	}
	if p.blk == nil {
		p.slot.Enter() // own guard, as in TryLock
		defer p.slot.Exit()
	}
	my := p.newDescriptor(f)
	var spins uint64 // helping rounds while waiting (obs.StrictSpins)
	for {
		cur := l.load(p)
		if cur.locked {
			spins++
			l.runAndUnlock(p, cur, true) // help, then try again
			continue
		}
		// ver is derived from the committed cur, so every run of an
		// enclosing thunk computes the same myLS (replay-deterministic).
		myLS := lockState{d: my, locked: true, ver: cur.ver + 1}
		swapped := l.cas(p, cur, myLS)
		if !swapped && obs.On() {
			p.metrics.Inc(obs.InstallCASFails)
		}
		if swapped && p.blk == nil {
			p.traceEmit(trace.AcqInstalled, lockID(l), p.id, myLS.ver)
			if spins > 0 {
				p.traceEmit(trace.SpinEpisode, lockID(l), 0, spins)
			}
		}
		cur2 := l.load(p)
		if my.loadStarted(p) || cur2 == myLS { // see TryLock
			if p.blk == nil {
				p.maybeStall()
			}
			res := l.runAndUnlock(p, myLS, false)
			if p.blk == nil && obs.On() {
				p.metrics.Inc(obs.AcquiresLF)
				p.metrics.Add(obs.StrictSpins, spins)
				if my.finisher.Load() != p.id {
					p.metrics.Inc(obs.HelpsReceived)
				}
			}
			return res
		}
	}
}

// Unlock releases a lock currently held by the running thunk before the
// thunk's scope ends (Algorithm 3, lines 29-31). It enables hand-over-hand
// locking. Behaviour is undefined if the calling thunk's lock acquisition
// does not hold the lock.
func (l *Lock) Unlock(p *Proc) {
	if p.rt.blocking.Load() {
		// Mark the matching acquisition released so its scope exit
		// (tryLockBlocking/lockBlocking) skips the second release.
		for i := len(p.bheld) - 1; i >= 0; i-- {
			if p.bheld[i].l == l && !p.bheld[i].released {
				p.bheld[i].released = true
				break
			}
		}
		l.bver.Add(1) // odd -> even: release precedes the unlocking store
		l.state.b.Store(unblockedBox)
		p.traceEmit(trace.Release, lockID(l), p.id, 0)
		return
	}
	cur := l.load(p)
	// Only the run whose CAS physically released unlinks the descriptor,
	// so it alone parks it and records the hand-over-hand release event.
	// The scope exit's runAndUnlock then finds the word moved on and
	// releases nothing. (A locked lock-free word always carries its
	// descriptor.)
	if l.cas(p, cur, lockState{ver: cur.ver + 1}) && cur.d != nil {
		p.traceEmit(trace.Release, lockID(l), cur.d.owner, cur.ver)
		p.retireDescriptor(cur.d)
	}
}

// Held reports whether the lock is currently held (a racy snapshot; for
// tests, assertions and monitoring).
func (l *Lock) Held() bool {
	return decodeWord(l.state.b.Load()).locked
}

// runAndUnlock completes the critical section of ls.d (running it for the
// first time, or helping, or harmlessly replaying a finished thunk) after
// setting its started flag, and releases the lock if it still holds this
// descriptor. The releasing CAS installs a version tag (no descriptor,
// no heap box), so an unlocked lock never pins its last critical
// section's descriptor and thunk; the one run whose CAS released parks
// ls.d and the locked box for pooled reuse after the epoch grace period
// (DESIGN.md S1/S7/S10).
//
// help marks a caller that read ls from the word to help someone else's
// acquisition. Its guard may have been announced after boxes that ls.d's
// log commits were retired, so lowering the announcement to ls.d's birth
// epoch can come too late to keep them from being recycled. So a helper
// lowers first and then runs the thunk only if the word still holds ls:
// while it does, the acquisition's owner is still inside its own guard,
// which has kept those boxes from recycling since before they were
// retired, and from then on the lowered announcement does. A word that
// moved on means the critical section was completed or released early,
// and there is nothing left to help. The owner (help false) always
// runs: it needs the thunk's result, and its own guard, or the enclosing
// run's lowered one, has covered the log since the descriptor was made.
func (l *Lock) runAndUnlock(p *Proc, ls lockState, help bool) bool {
	tr := trace.On()
	if tr && ls.d.owner != p.id {
		p.traceEmit(trace.HelpBegin, lockID(l), ls.d.owner, ls.ver)
	}
	ls.d.started.Store(1) // update-once: every run stores the same value
	var res bool
	if help {
		prev := p.slot.Lower(ls.d.birth)
		if decodeWord(l.state.b.Load()) == ls {
			res = p.runLowered(ls.d)
		}
		p.slot.Restore(prev)
	} else {
		res = p.run(ls.d)
	}
	if obs.On() || tr {
		// Exactly one run wins the completion claim, making helping
		// attribution exact: claims partition committed thunks into
		// own-completions and helps-given, and every losing run is a
		// replay. The owner reads finisher only after its own run's
		// claim attempt, so by then the claim is resolved. The
		// trace events mirror the obs counters one-for-one (the
		// conservation law internal/core's trace test pins).
		if ls.d.finisher.CompareAndSwap(0, p.id) {
			if ls.d.owner == p.id {
				p.metrics.Inc(obs.OwnCompletions)
			} else {
				p.metrics.Inc(obs.HelpsGiven)
				if tr {
					p.traceEmit(trace.HelpEnd, lockID(l), ls.d.owner, ls.ver)
				}
			}
		} else {
			p.metrics.Inc(obs.ThunkReplays)
			if tr {
				p.traceEmit(trace.Replay, lockID(l), ls.d.owner, ls.ver)
			}
		}
	}
	// Exactly one run physically releases, and that run (alone) emits
	// the Release event for this generation and parks ls.d.
	if l.cas(p, ls, lockState{ver: ls.ver + 1}) {
		if tr {
			p.traceEmit(trace.Release, lockID(l), ls.d.owner, ls.ver)
		}
		p.retireDescriptor(ls.d)
	}
	return res
}

// tryLockBlocking is the traditional mode: a single CAS attempt, no
// descriptor, no logging; the thunk runs directly.
func (l *Lock) tryLockBlocking(p *Proc, f Thunk) bool {
	bx := l.state.b.Load()
	if decodeWord(bx).locked {
		return false
	}
	if !l.state.b.CompareAndSwap(bx, blockedBox) {
		p.metrics.Inc(obs.InstallCASFails)
		return false
	}
	l.bver.Add(1) // even -> odd: writes of f follow the acquire bump
	p.bdepth++
	p.bheld = append(p.bheld, blockHeld{l: l})
	if p.bdepth == 1 {
		p.metrics.Inc(obs.AcquiresBlocking) // outermost only, as lock-free
		p.traceEmit(trace.AcqBlocking, lockID(l), p.id, 0)
		p.maybeStall() // outermost acquisition only, as in lock-free mode
	}
	res := f(p)
	released := p.bheld[len(p.bheld)-1].released
	p.bheld = p.bheld[:len(p.bheld)-1]
	p.bdepth--
	if !released {
		l.bver.Add(1) // odd -> even: writes of f precede the release bump
		l.state.b.Store(unblockedBox)
		p.traceEmit(trace.Release, lockID(l), p.id, 0)
	}
	return res
}

// lockBlocking is a TTAS spin lock with yielding backoff. On an
// oversubscribed machine the holder may be descheduled, in which case
// waiters burn their timeslices spinning and yielding — exactly the
// behaviour the paper measures for blocking strict locks.
func (l *Lock) lockBlocking(p *Proc, f Thunk) bool {
	spins := 0
	for {
		bx := l.state.b.Load()
		if !decodeWord(bx).locked {
			if l.state.b.CompareAndSwap(bx, blockedBox) {
				l.bver.Add(1) // even -> odd, as in tryLockBlocking
				p.bdepth++
				p.bheld = append(p.bheld, blockHeld{l: l})
				if p.bdepth == 1 {
					p.metrics.Inc(obs.AcquiresBlocking)
					p.metrics.Add(obs.StrictSpins, uint64(spins))
					p.traceEmit(trace.AcqBlocking, lockID(l), p.id, 0)
					if spins > 0 {
						p.traceEmit(trace.SpinEpisode, lockID(l), 0, uint64(spins))
					}
					p.maybeStall() // outermost acquisition only
				}
				res := f(p)
				released := p.bheld[len(p.bheld)-1].released
				p.bheld = p.bheld[:len(p.bheld)-1]
				p.bdepth--
				if !released {
					l.bver.Add(1) // odd -> even
					l.state.b.Store(unblockedBox)
					p.traceEmit(trace.Release, lockID(l), p.id, 0)
				}
				return res
			}
		}
		spins++
		if spins&3 == 0 {
			runtime.Gosched()
		} else {
			for i := uint64(0); i < p.rand64()%64; i++ {
				_ = i
			}
		}
	}
}
