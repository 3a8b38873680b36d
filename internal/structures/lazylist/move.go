package lazylist

import flock "flock/internal/core"

// Move atomically transfers key k from src to dst: at no instant is k in
// both lists or in neither. It reports false without effect if k is
// absent from src or already present in dst.
//
// This is the operation the paper's introduction singles out ("if one
// needs to atomically move data among structures, lock-free algorithms
// become particularly tricky"): with lock-free locks it is three nested
// try-locks — the source predecessor, the source victim and the
// destination predecessor — and two splices inside the innermost
// critical section. Run in lock-free mode the whole transfer is helped
// to completion if its owner stalls.
//
// Lock-order discipline (essential): lock-free progress requires every
// nested acquisition sequence to descend one global partial order
// (paper, Theorem 4.2) — otherwise two movers running in opposite
// directions between the same lists would help each other's thunks in a
// cycle. Lists carry a global creation id, and Move nests its three
// locks in (list id, key) order, so all movers agree.
func Move(p *flock.Proc, src, dst *List, k uint64) bool {
	if src == dst {
		_, ok := src.Find(p, k)
		return ok // self-move: report presence, no effect
	}
	p.Begin()
	defer p.End()
	for {
		sPred, sCurr := src.locate(p, k)
		if sCurr.k != k {
			return false // not in src
		}
		dPred, dCurr := dst.locate(p, k)
		if dCurr.k == k {
			if dCurr.removed.Load(p) {
				continue // dst occupant is being deleted; re-examine
			}
			return false // already in dst
		}

		// The innermost critical section: all three locks held.
		body := func(hp *flock.Proc) bool {
			if sPred.removed.Load(hp) || sPred.next.Load(hp) != sCurr {
				return false // source neighborhood changed
			}
			if dPred.removed.Load(hp) || dPred.next.Load(hp) != dCurr {
				return false // destination neighborhood changed
			}
			sNext := sCurr.next.Load(hp)
			sCurr.removed.Store(hp, true)
			sPred.next.Store(hp, sNext) // splice out of src
			moved := flock.Allocate(hp, func() *node {
				nn := &node{k: sCurr.k, v: sCurr.v}
				nn.next.Init(dCurr)
				return nn
			})
			dPred.next.Store(hp, moved) // splice into dst
			return true
		}

		// Nest the three locks in global (list id, key) order. Within
		// src, sPred precedes sCurr by key; dPred slots before or after
		// the pair depending on list ids.
		var ok bool
		if src.id < dst.id {
			ok = sPred.lck.TryLock(p, func(h1 *flock.Proc) bool {
				return sCurr.lck.TryLock(h1, func(h2 *flock.Proc) bool {
					return dPred.lck.TryLock(h2, body)
				})
			})
		} else {
			ok = dPred.lck.TryLock(p, func(h1 *flock.Proc) bool {
				return sPred.lck.TryLock(h1, func(h2 *flock.Proc) bool {
					return sCurr.lck.TryLock(h2, body)
				})
			})
		}
		if ok {
			return true
		}
	}
}
