package flock

import (
	"runtime"
	"sync/atomic"
	"unsafe"

	"flock/internal/obs"
	"flock/internal/obs/trace"
)

// lockState is the decoded value of a lock word (decodeWord): the
// holder's descriptor, a locked bit, and a version bumped on every
// acquire and release, so unlocked versions are even and locked ones
// odd. The zero value is "unlocked, no descriptor, version 0".
type lockState struct {
	d      *descriptor
	locked bool
	ver    uint64
}

// lockWord is what a lock word points at, typed as one byte: a tag, the
// blocked sentinel, a descriptor or a heap version word, told apart by
// decodeWord. A one-byte type keeps every conversion to it valid.
type lockWord byte

// lockTags backs the version tags of unlocked lock words (the paper's §6
// ABA tags, DESIGN.md S1). Unlocked version v >= 2 is the address of
// lockTags[v/2-1]; the version of a lock only grows, so a tag never
// returns to a word a straggler could still CAS from. The array is
// pointer-free and never read or written, so it sits in .noptrbss: the
// GC never scans it and no page of it is ever touched. A tag is decoded
// from its address and never converted to a larger type.
var lockTags [1 << 23]lockWord

// blockedWord is the word of a lock held in blocking mode. The holder's
// Proc keeps the version it took (blockHeld.ver).
var blockedWord lockWord

func isTag(w *lockWord) bool {
	return uintptr(unsafe.Pointer(w))-uintptr(unsafe.Pointer(&lockTags)) < uintptr(len(lockTags))
}

// unlockedWord encodes unlocked version ver: its tag, or past the last
// tag a fresh heap word holding ver. Heap words are never pooled, so the
// garbage collector keeps each one unique while a log or helper holds it.
func unlockedWord(ver uint64) *lockWord {
	if i := ver/2 - 1; i < uint64(len(lockTags)) { // wraps for version 0
		return &lockTags[i]
	}
	v := new(uint64)
	*v = ver
	return (*lockWord)(unsafe.Pointer(v))
}

// decodeWord returns the state a lock word holds. A descriptor and a
// heap version word both begin with their version (descriptor.ver is the
// first field), which is read through a *uint64; only an odd, locked
// version makes the word a descriptor.
func decodeWord(w *lockWord) lockState {
	switch {
	case isTag(w):
		return lockState{ver: 2*uint64(uintptr(unsafe.Pointer(w))-uintptr(unsafe.Pointer(&lockTags))) + 2}
	case w == nil:
		return lockState{}
	case w == &blockedWord:
		return lockState{locked: true}
	}
	ver := *(*uint64)(unsafe.Pointer(w))
	if ver&1 == 0 {
		return lockState{ver: ver}
	}
	return lockState{d: (*descriptor)(unsafe.Pointer(w)), locked: true, ver: ver}
}

// loadWord reads the lock word, committing it inside a thunk (like
// Mutable.Load).
func (l *Lock) loadWord(p *Proc) *lockWord {
	c, _ := commitPtr(p, l.w.Load())
	return c
}

func (l *Lock) load(p *Proc) lockState { return decodeWord(l.loadWord(p)) }

// cas is the lock word's CAM (Algorithm 2) plus a report of whether this
// call's own CAS installed new: exactly one run of a thunk can succeed,
// and only that run parks the released descriptor. A locked new state is
// installed as its descriptor, an unlocked one as unlockedWord; neither
// enters a freelist or the pending list.
func (l *Lock) cas(p *Proc, old, new lockState) bool {
	w := l.loadWord(p)
	if decodeWord(w) != old {
		return false
	}
	if p.blk != nil && p.rt.avoidCAS && l.w.Load() != w {
		return false
	}
	nw := (*lockWord)(unsafe.Pointer(new.d))
	if !new.locked {
		nw = unlockedWord(new.ver)
	}
	return l.w.CompareAndSwap(w, nw)
}

// Lock is a lock-free try-lock (Algorithm 3). The zero value is an
// unlocked lock. In lock-free mode a taken lock holds a descriptor that
// any thread may help complete; in blocking mode it degenerates to a
// test-and-test-and-set lock with no logging. The mode is taken from the
// Runtime of the Proc performing each operation.
//
// A lock is one word, as in the paper (§3, §6). It holds nil or a tag
// when unlocked, the installed descriptor when locked in lock-free mode,
// blockedWord when locked in blocking mode, and past the last tag a heap
// word with the unlocked version. Every transition installs a new word,
// so one CAS both takes (or releases) the lock and advances its version,
// and an optimistic reader can never observe a lock/version combination
// that did not exist (optimistic.go).
type Lock struct {
	w atomic.Pointer[lockWord]
}

// lockID names a lock in flight-recorder events: its address, which is
// stable for the lock's lifetime and cheap to obtain. (A recycled
// address can in principle denote two locks within one trace window;
// generations disambiguate critical-section instances regardless.)
func lockID(l *Lock) uint64 { return uint64(uintptr(unsafe.Pointer(l))) }

// blockHeld is one entry of a Proc's blocking-mode held-lock stack: the
// acquired lock, the version it was taken at (its release installs
// ver+2), and whether the critical section already released it early
// via Unlock (in which case the scope exit must not release it again —
// another thread may hold it by then).
type blockHeld struct {
	l        *Lock
	ver      uint64
	released bool
}

// TryLock attempts to acquire the lock and run thunk f inside it. It
// returns false if the lock was held (after helping the holder finish, in
// lock-free mode) or if f returned false; it returns true only when the
// lock was acquired and f returned true. Locks taken inside f must be
// acquired through nested TryLock calls (the paper's "simply nested"
// discipline keeps the construction lock-free).
func (l *Lock) TryLock(p *Proc, f Thunk) bool {
	p.traceEmit(trace.AcqStart, lockID(l), 0, 0)
	if p.rt.blocking.Load() {
		return l.lockBlocking(p, f, true)
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
	cur := l.load(p)
	if !cur.locked {
		ok, res, cur2 := l.attempt(p, f, cur, 0)
		if ok {
			return res
		}
		// Lost the race: help the winner. An unlocked cur2 means the
		// lock was acquired and released between our loads; nothing to
		// help. Either way our tryLock failed.
		cur = cur2
	}
	if cur.locked {
		l.runAndUnlock(p, cur, true) // help the current holder, then report failure
	}
	return false
}

// Help helps the lock's current lock-free holder run its critical section
// and release the lock, without acquiring it: what a failed TryLock does
// before it reports failure. A free lock needs no help. In blocking mode
// the holder cannot be helped, so Help yields once instead. Optimistic
// readers (DESIGN.md S13) call it when they find the lock held, so that
// their next ReadVersion finds it free.
func (l *Lock) Help(p *Proc) {
	if p.rt.blocking.Load() {
		runtime.Gosched()
		return
	}
	if p.blk == nil {
		p.slot.Enter() // own guard, as in TryLock
		defer p.slot.Exit()
	}
	if cur := l.load(p); cur.d != nil {
		l.runAndUnlock(p, cur, true)
	}
}

// Lock is the strict lock variant: it loops, helping any holder, until it
// acquires the lock, then runs f and returns f's result. Strict locks are
// not simply nested (§4), but remain useful for comparison with try-locks
// (Figure 4) and for code that cannot restart.
func (l *Lock) Lock(p *Proc, f Thunk) bool {
	p.traceEmit(trace.AcqStart, lockID(l), 0, 0)
	if p.rt.blocking.Load() {
		return l.lockBlocking(p, f, false)
	}
	if p.blk == nil {
		p.slot.Enter() // own guard, as in TryLock
		defer p.slot.Exit()
	}
	var spins uint64 // helping rounds while waiting (obs.StrictSpins)
	for {
		cur := l.load(p)
		if cur.locked {
			spins++
			l.runAndUnlock(p, cur, true) // help, then try again
			continue
		}
		if ok, res, _ := l.attempt(p, f, cur, spins); ok {
			return res
		}
	}
}

// attempt makes one install attempt over the unlocked state cur and runs
// the critical section if the acquisition happened. It returns whether
// it did, f's result, and the word read after the install CAS. spins is
// the strict Lock's helping rounds so far, for its metrics.
//
// Every attempt has its own descriptor, with version cur.ver+1 written
// before the descriptor is committed and never after. cur is committed,
// so every run of an enclosing thunk that reaches this attempt finds the
// same descriptor at the same version, and an installed descriptor's
// version never changes: a slow run replaying an earlier attempt of a
// strict Lock writes nothing to the descriptor a later attempt installed
// (TestStrictLockReplayKeepsVersion).
func (l *Lock) attempt(p *Proc, f Thunk, cur lockState, spins uint64) (bool, bool, lockState) {
	my := p.newDescriptor(f, cur.ver+1)
	myLS := lockState{d: my, locked: true, ver: cur.ver + 1}
	// cur is unlocked, so it carries no descriptor: the releasing CAS of
	// the previous acquisition already unlinked and parked it
	// (runAndUnlock). cas reports whether our own CAS installed myLS, for
	// the install-failure and trace accounting.
	swapped := l.cas(p, cur, myLS)
	if !swapped && obs.On() {
		p.metrics.Inc(obs.InstallCASFails)
	}
	if swapped && p.blk == nil {
		// A top-level physical install always commits (once in the lock
		// word, the descriptor is helped to completion), so this event
		// count equals obs.AcquiresLF, timestamped before the critical
		// section runs.
		p.traceEmit(trace.AcqInstalled, lockID(l), p.id, myLS.ver)
		if spins > 0 {
			p.traceEmit(trace.SpinEpisode, lockID(l), 0, spins)
		}
	}
	cur2 := l.load(p)
	// The started check (the paper's done check, Algorithm 3, line 20)
	// is essential: our CAM may have succeeded and the word already left
	// myLS — released by a helper, or freed by the thunk's own
	// hand-over-hand Unlock while it still runs — in which case cur2 !=
	// myLS but the acquisition did happen and we must return its result.
	// Every run sets started before running the thunk, so before either
	// release; done would come too late for the second (DESIGN.md S7).
	if !my.loadStarted(p) && cur2 != myLS {
		if !swapped && p.blk == nil {
			// Top level with a failed install: no other run of this
			// acquisition exists, so my was never published and goes
			// straight back to the freelist.
			p.releaseDescriptor(my)
		}
		return false, false, cur2
	}
	if p.blk == nil {
		p.maybeStall() // injected descheduling while holding the lock
	}
	res := l.runAndUnlock(p, myLS, false) // run own critical section
	if p.blk == nil && obs.On() {
		p.metrics.Inc(obs.AcquiresLF)
		p.metrics.Add(obs.StrictSpins, spins)
		// runAndUnlock attempted the completion claim, so by here the
		// finisher is resolved: if it is not us, a helper carried our
		// critical section to completion.
		if my.finisher.Load() != p.id {
			p.metrics.Inc(obs.HelpsReceived)
		}
	}
	return true, res, cur2
}

// Unlock releases a lock currently held by the running thunk before the
// thunk's scope ends (Algorithm 3, lines 29-31). It enables hand-over-hand
// locking. Misuse has these outcomes:
//   - in lock-free mode, Unlock of a lock that is not locked does
//     nothing, so an Unlock without a Lock or a second Unlock leaves the
//     lock as it is;
//   - in blocking mode, Unlock releases only the calling Proc's own
//     unreleased acquisition of the lock and otherwise does nothing, so
//     it also cannot release a lock another Proc holds.
//
// In lock-free mode, Unlock of a lock held by another acquisition is
// undefined: the word holds a descriptor but cannot tell whether it is
// the calling thunk's.
func (l *Lock) Unlock(p *Proc) {
	if p.rt.blocking.Load() {
		// Mark the matching acquisition released so its scope exit
		// (lockBlocking) skips the second release.
		for i := len(p.bheld) - 1; i >= 0; i-- {
			if h := &p.bheld[i]; h.l == l && !h.released {
				h.released = true
				l.releaseBlocking(p, h.ver)
				return
			}
		}
		return
	}
	cur := l.load(p)
	// Only the run whose CAS physically released unlinks the descriptor,
	// so it alone parks it and records the hand-over-hand release event.
	// The scope exit's runAndUnlock then finds the word moved on and
	// releases nothing.
	if cur.d != nil && l.cas(p, cur, lockState{ver: cur.ver + 1}) {
		p.traceEmit(trace.Release, lockID(l), cur.d.owner, cur.ver)
		p.retireDescriptor(cur.d)
	}
}

// Held reports whether the lock is currently held (a racy snapshot; for
// tests, assertions and monitoring).
func (l *Lock) Held() bool {
	return decodeWord(l.w.Load()).locked
}

// runAndUnlock completes the critical section of ls.d (running it for the
// first time, or helping, or harmlessly replaying a finished thunk) after
// setting its started flag, and releases the lock if it still holds this
// descriptor. The releasing CAS installs a version tag (past the tags,
// a heap version word), so an unlocked lock never pins its last critical
// section's descriptor and thunk; the one run whose CAS released parks
// ls.d for pooled reuse after the epoch grace period (DESIGN.md
// S1/S7/S10).
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
		if l.w.Load() == (*lockWord)(unsafe.Pointer(ls.d)) {
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

// lockBlocking is the traditional mode: no descriptor, no logging; the
// thunk runs directly. A try-lock makes a single CAS attempt. A strict
// lock is a TTAS spin lock with yielding backoff: on an oversubscribed
// machine the holder may be descheduled, in which case waiters burn
// their timeslices spinning and yielding — exactly the behaviour the
// paper measures for blocking strict locks.
func (l *Lock) lockBlocking(p *Proc, f Thunk, try bool) bool {
	var cur lockState
	var spins uint64
	for ; ; spins++ {
		w := l.w.Load()
		if cur = decodeWord(w); !cur.locked && l.w.CompareAndSwap(w, &blockedWord) {
			break
		}
		if try {
			if !cur.locked {
				p.metrics.Inc(obs.InstallCASFails)
			}
			return false
		}
		if spins&3 == 3 {
			runtime.Gosched()
		} else {
			for i := uint64(0); i < p.rand64()%64; i++ {
				_ = i
			}
		}
	}
	p.bheld = append(p.bheld, blockHeld{l: l, ver: cur.ver})
	if len(p.bheld) == 1 {
		// Outermost acquisition only, as in lock-free mode.
		p.metrics.Inc(obs.AcquiresBlocking)
		p.metrics.Add(obs.StrictSpins, spins)
		p.traceEmit(trace.AcqBlocking, lockID(l), p.id, 0)
		if spins > 0 {
			p.traceEmit(trace.SpinEpisode, lockID(l), 0, spins)
		}
		p.maybeStall()
	}
	res := f(p)
	released := p.bheld[len(p.bheld)-1].released
	p.bheld = p.bheld[:len(p.bheld)-1]
	if !released {
		l.releaseBlocking(p, cur.ver)
	}
	return res
}

// releaseBlocking releases a lock taken in blocking mode at version ver.
// The store of version ver+2 follows every write of the critical section.
func (l *Lock) releaseBlocking(p *Proc, ver uint64) {
	l.w.Store(unlockedWord(ver + 2))
	p.traceEmit(trace.Release, lockID(l), p.id, 0)
}
