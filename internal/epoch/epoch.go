// Package epoch implements the epoch-based grace periods of the Flock
// library ("Lock-Free Locks Revisited", PPoPP 2022, §6).
//
// Every operation on a concurrent structure runs inside a guard
// (Enter/Exit). Epochs advance when all active guards have caught up
// with the global epoch, and SafeBefore reports the bound below which
// an object unlinked at some epoch can no longer be reached by any
// guard. This package keeps no retire queue of its own: in Go the
// garbage collector frees unlinked structure nodes (the paper's free),
// and the only objects whose reuse waits out a grace period are the
// pooled descriptors of internal/core, whose per-worker pending lists
// consult SafeBefore (DESIGN.md S10).
//
// Two Flock-specific requirements shape the API:
//
//   - Helper epoch lowering. When a process helps a thunk that was started
//     by another process it must take on the minimum of its own epoch and
//     the thunk's birth epoch, so that anything the thunk read when it
//     began stays unreused while the helper replays it. Lower and
//     Restore implement this.
//
//   - Quiescence. A registered process that is between operations announces
//     a sentinel so it never holds back advancement or reuse.
package epoch

import (
	"sync"
	"sync/atomic"

	"flock/internal/obs"
	"flock/internal/obs/trace"
)

// Quiescent is announced by slots that are not inside any guard.
const Quiescent = ^uint64(0)

// advanceEvery controls how many guard entries a slot performs between
// attempts to advance the global epoch.
const advanceEvery = 64

// Manager coordinates a set of registered slots (one per worker).
type Manager struct {
	global atomic.Uint64

	// slots is a copy-on-write snapshot of all registered slots, so that
	// scans during TryAdvance are lock-free. Registration is rare.
	slots atomic.Pointer[[]*Slot]

	mu sync.Mutex // serializes Register/Unregister
}

// Slot is a single worker's announcement record. A Slot must only be
// used by the goroutine that registered it.
type Slot struct {
	announced atomic.Uint64
	mgr       *Manager

	// Goroutine-local state (no synchronization needed).
	entries uint64
	depth   int // nested guard depth

	_ [40]byte // keep hot fields of adjacent slots off one cache line
}

// NewManager returns an empty manager with the global epoch at 2 so that
// "epoch-2" arithmetic never underflows.
func NewManager() *Manager {
	m := &Manager{}
	m.global.Store(2)
	empty := make([]*Slot, 0)
	m.slots.Store(&empty)
	return m
}

// GlobalEpoch returns the current global epoch.
func (m *Manager) GlobalEpoch() uint64 { return m.global.Load() }

// Register adds a new slot for the calling worker. The slot starts
// quiescent.
func (m *Manager) Register() *Slot {
	s := &Slot{mgr: m}
	s.announced.Store(Quiescent)
	m.mu.Lock()
	old := *m.slots.Load()
	next := make([]*Slot, len(old), len(old)+1)
	copy(next, old)
	next = append(next, s)
	m.slots.Store(&next)
	m.mu.Unlock()
	return s
}

// Unregister removes the slot from epoch scans. The slot must be
// quiescent.
func (s *Slot) Unregister() {
	if s.depth != 0 {
		panic("epoch: Unregister inside a guard")
	}
	m := s.mgr
	s.announced.Store(Quiescent)
	m.mu.Lock()
	old := *m.slots.Load()
	next := make([]*Slot, 0, len(old))
	for _, o := range old {
		if o != s {
			next = append(next, o)
		}
	}
	m.slots.Store(&next)
	m.mu.Unlock()
}

// Enter begins a guard: the slot announces the current global epoch.
// Guards nest; only the outermost Enter announces.
func (s *Slot) Enter() {
	if s.depth == 0 {
		// Announce-then-recheck: if the global epoch moved between the
		// load and the store we may announce a stale epoch, which is
		// safe (merely conservative), so a single announcement suffices.
		s.announced.Store(s.mgr.global.Load())
		s.entries++
		if s.entries%advanceEvery == 0 {
			s.mgr.TryAdvance()
		}
	}
	s.depth++
}

// Exit ends a guard. The outermost Exit returns the slot to quiescence.
func (s *Slot) Exit() {
	s.depth--
	if s.depth < 0 {
		panic("epoch: Exit without matching Enter")
	}
	if s.depth == 0 {
		s.announced.Store(Quiescent)
	}
}

// Depth reports the current guard nesting depth (for assertions in tests).
func (s *Slot) Depth() int { return s.depth }

// Announced returns the slot's announced epoch (Quiescent if outside).
func (s *Slot) Announced() uint64 { return s.announced.Load() }

// Lower moves the slot's announcement down to e if e is lower, returning
// the previous announcement so the caller can Restore it. It implements
// the paper's rule that a helper takes on the minimum of its epoch and the
// epoch of the thunk it is helping. Must be called inside a guard.
func (s *Slot) Lower(e uint64) (prev uint64) {
	prev = s.announced.Load()
	if e < prev {
		s.announced.Store(e)
	}
	return prev
}

// Restore resets the announcement after a Lower.
func (s *Slot) Restore(prev uint64) { s.announced.Store(prev) }

// minAnnounced scans all slots and returns the minimum announced epoch.
func (m *Manager) minAnnounced() uint64 {
	min := Quiescent
	for _, s := range *m.slots.Load() {
		if a := s.announced.Load(); a < min {
			min = a
		}
	}
	return min
}

// TryAdvance bumps the global epoch if every registered slot is either
// quiescent or has caught up with it. Returns whether it advanced.
// Attempts and successes are counted on the shared obs block: advancement
// is a global event with no per-worker owner, and it fires orders of
// magnitude less often than lock events (advanceEvery, pool drains).
func (m *Manager) TryAdvance() bool {
	track := obs.On()
	if track {
		obs.Global().Inc(obs.EpochAdvanceTries)
	}
	g := m.global.Load()
	for _, s := range *m.slots.Load() {
		if a := s.announced.Load(); a < g {
			return false
		}
	}
	ok := m.global.CompareAndSwap(g, g+1)
	if ok {
		if track {
			obs.Global().Inc(obs.EpochAdvances)
		}
		if trace.On() {
			trace.Global().Emit(trace.EpochAdvance, 0, g+1, 0)
		}
	}
	return ok
}

// SafeBefore returns the epoch bound below which unlinked objects may be
// reused. An object unlinked in epoch r is safe once every active guard
// announced an epoch strictly greater than r: such guards entered after
// the global epoch passed r, hence after the unlink, so they can never
// have found the object. With no active guards, everything unlinked
// before the current epoch is safe. The flock core gates pooled object
// reuse on it (its DESIGN.md S10 invariant).
func (m *Manager) SafeBefore() uint64 {
	if min := m.minAnnounced(); min != Quiescent {
		return min
	}
	return m.global.Load()
}
