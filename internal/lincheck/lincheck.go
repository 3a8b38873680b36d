// Package lincheck is a linearizability checker for set histories,
// used to validate the repository's concurrent structures end to end:
// operations are recorded with invocation/response timestamps from a
// global atomic counter, and the checker searches for a legal sequential
// witness (Wing & Gong's algorithm with memoization).
//
// Set semantics decompose per key: insert/delete/find on different keys
// operate on independent sub-objects, so a history is linearizable iff
// each per-key sub-history is linearizable against a single-cell model
// (present?, value). That keeps the search space tiny even for long
// recorded histories.
package lincheck

import (
	"fmt"
	"sort"
	"sync/atomic"

	flock "flock/internal/core"
	"flock/internal/structures/set"
)

// Kind is the operation type of a recorded event.
type Kind uint8

// Operation kinds. The two upsert kinds serve the KV layer
// (internal/kv): KUpsert is an atomic upsert that also observed the
// prior state (Ok = was present, Val = prior value, Arg = value
// written) — the shape of both native Upsert and ReadModifyWrite; KPut
// is a blind upsert that observed only prior presence (Ok), as returned
// by kv's Put. KScan is a range-scan observation (set.Scanner): its
// result rides in Op.Scan and is checked against interval snapshots —
// see Check.
const (
	KInsert Kind = iota
	KDelete
	KFind
	KUpsert
	KPut
	KScan
)

func (k Kind) String() string {
	switch k {
	case KInsert:
		return "insert"
	case KDelete:
		return "delete"
	case KUpsert:
		return "upsert"
	case KPut:
		return "put"
	case KScan:
		return "scan"
	default:
		return "find"
	}
}

// Op is one completed operation with its observation window: Start is
// taken just before the call, End just after, from one global counter,
// so End_a < Start_b proves a completed before b began. A KScan op uses
// Lo/Hi/Limit/Scan instead of the single-key fields.
type Op struct {
	Kind   Kind
	Key    uint64
	Arg    uint64 // inserted value
	Ok     bool   // returned presence/success
	Val    uint64 // value returned by find
	Start  int64
	End    int64
	Worker int

	Lo, Hi uint64   // KScan: requested bounds (sentinels allowed)
	Limit  int      // KScan: requested limit (< 0 unbounded, 0 empty)
	Scan   []set.KV // KScan: the returned pairs
}

// Recorder wraps a set.Set and records every completed operation.
// Each worker must use its own slot (WorkerHandle) so recording is
// contention-free; timestamps come from one shared atomic counter.
type Recorder struct {
	s     set.Set
	clock atomic.Int64
	hists []([]Op)
}

// NewRecorder wraps s for nWorkers recording workers.
func NewRecorder(s set.Set, nWorkers int) *Recorder {
	return &Recorder{s: s, hists: make([][]Op, nWorkers)}
}

// Handle is one worker's recording facade over the wrapped set.
type Handle struct {
	r *Recorder
	w int
}

// Worker returns worker w's handle.
func (r *Recorder) Worker(w int) *Handle { return &Handle{r: r, w: w} }

// Insert records an insert.
func (h *Handle) Insert(p *flock.Proc, k, v uint64) bool {
	start := h.r.clock.Add(1)
	ok := h.r.s.Insert(p, k, v)
	end := h.r.clock.Add(1)
	h.r.hists[h.w] = append(h.r.hists[h.w], Op{
		Kind: KInsert, Key: k, Arg: v, Ok: ok, Start: start, End: end, Worker: h.w,
	})
	return ok
}

// Delete records a delete.
func (h *Handle) Delete(p *flock.Proc, k uint64) bool {
	start := h.r.clock.Add(1)
	ok := h.r.s.Delete(p, k)
	end := h.r.clock.Add(1)
	h.r.hists[h.w] = append(h.r.hists[h.w], Op{
		Kind: KDelete, Key: k, Ok: ok, Start: start, End: end, Worker: h.w,
	})
	return ok
}

// Upsert records a native atomic upsert storing v; it panics if the
// wrapped set does not implement set.Upserter.
func (h *Handle) Upsert(p *flock.Proc, k, v uint64) (uint64, bool) {
	up, ok := h.r.s.(set.Upserter)
	if !ok {
		panic("lincheck: wrapped set does not implement set.Upserter")
	}
	start := h.r.clock.Add(1)
	old, present := up.Upsert(p, k, func(uint64, bool) uint64 { return v })
	end := h.r.clock.Add(1)
	h.r.hists[h.w] = append(h.r.hists[h.w], Op{
		Kind: KUpsert, Key: k, Arg: v, Ok: present, Val: old, Start: start, End: end, Worker: h.w,
	})
	return old, present
}

// Scan records a range-scan observation; it panics if the wrapped set
// does not implement set.Scanner.
func (h *Handle) Scan(p *flock.Proc, lo, hi uint64, limit int) []set.KV {
	sc, ok := h.r.s.(set.Scanner)
	if !ok {
		panic("lincheck: wrapped set does not implement set.Scanner")
	}
	start := h.r.clock.Add(1)
	res := sc.Scan(p, lo, hi, limit)
	end := h.r.clock.Add(1)
	h.r.hists[h.w] = append(h.r.hists[h.w], Op{
		Kind: KScan, Lo: lo, Hi: hi, Limit: limit, Scan: res,
		Start: start, End: end, Worker: h.w,
	})
	return res
}

// Find records a find.
func (h *Handle) Find(p *flock.Proc, k uint64) (uint64, bool) {
	start := h.r.clock.Add(1)
	v, ok := h.r.s.Find(p, k)
	end := h.r.clock.Add(1)
	h.r.hists[h.w] = append(h.r.hists[h.w], Op{
		Kind: KFind, Key: k, Ok: ok, Val: v, Start: start, End: end, Worker: h.w,
	})
	return v, ok
}

// History returns all recorded operations (call after workers finish).
func (r *Recorder) History() []Op {
	var all []Op
	for _, h := range r.hists {
		all = append(all, h...)
	}
	return all
}

// cell is the per-key sequential model: a single optional value.
type cell struct {
	present bool
	val     uint64
}

// step applies op to the model; reports whether the recorded result is
// legal from this state, and the successor state.
func (c cell) step(op Op) (cell, bool) {
	switch op.Kind {
	case KInsert:
		if op.Ok {
			if c.present {
				return c, false
			}
			return cell{present: true, val: op.Arg}, true
		}
		return c, c.present
	case KDelete:
		if op.Ok {
			if !c.present {
				return c, false
			}
			return cell{}, true
		}
		return c, !c.present
	case KUpsert:
		// Observed prior presence (Ok) and prior value (Val); wrote Arg.
		if op.Ok != c.present || (op.Ok && c.val != op.Val) {
			return c, false
		}
		return cell{present: true, val: op.Arg}, true
	case KPut:
		// Observed only prior presence (Ok); wrote Arg.
		if op.Ok != c.present {
			return c, false
		}
		return cell{present: true, val: op.Arg}, true
	default: // KFind
		if op.Ok {
			return c, c.present && c.val == op.Val
		}
		return c, !c.present
	}
}

// CheckResult reports the verdict and, on failure, the offending key
// (or, for a structurally invalid scan result, a Reason).
type CheckResult struct {
	Ok       bool
	BadKey   uint64
	BadCount int    // ops on the failing key
	Reason   string // non-empty for structural scan violations
}

func (cr CheckResult) String() string {
	if cr.Ok {
		return "linearizable"
	}
	if cr.Reason != "" {
		return "NOT linearizable: " + cr.Reason
	}
	return fmt.Sprintf("NOT linearizable: key %d (%d ops)", cr.BadKey, cr.BadCount)
}

// Check verifies the history is linearizable with respect to set
// semantics starting from the empty set.
//
// KScan operations are checked against interval snapshots, the
// consistency contract of set.Scanner: a scan's result must be sorted,
// in bounds and within its limit (structural checks), and then each
// per-key observation it makes — key k reported with value v, or an
// in-range key missing from the result — must hold at some
// linearization point inside the scan's own invocation window, chosen
// independently per key. That is exactly the per-key decomposition the
// checker already uses, so each scan expands into one synthesized find
// observation per key of the scanned interval (keys past the
// limit-truncation point claim nothing). A scan that would only be
// explicable by an atomic multi-key snapshot is deliberately not
// required — no structure here provides one (DESIGN.md S12).
func Check(history []Op) CheckResult {
	perKey := map[uint64][]Op{}
	var scans []Op
	for _, op := range history {
		if op.Kind == KScan {
			scans = append(scans, op)
			continue
		}
		perKey[op.Key] = append(perKey[op.Key], op)
	}
	if len(scans) > 0 {
		// The observable key universe: every key any operation or scan
		// result touched. A never-touched key is trivially absent and
		// adds no constraint.
		keys := map[uint64]bool{}
		for k := range perKey {
			keys[k] = true
		}
		for _, s := range scans {
			for _, kv := range s.Scan {
				keys[kv.Key] = true
			}
		}
		for _, s := range scans {
			lo, hi := set.ClampScanBounds(s.Lo, s.Hi)
			prev := uint64(0) // real keys are >= 1
			for _, kv := range s.Scan {
				if kv.Key < lo || kv.Key > hi {
					return CheckResult{Reason: fmt.Sprintf("scan [%d,%d] returned out-of-bounds key %d", s.Lo, s.Hi, kv.Key)}
				}
				if kv.Key <= prev {
					return CheckResult{Reason: fmt.Sprintf("scan result not strictly ascending at key %d", kv.Key)}
				}
				prev = kv.Key
			}
			if s.Limit > 0 && len(s.Scan) > s.Limit {
				return CheckResult{Reason: fmt.Sprintf("scan returned %d pairs over limit %d", len(s.Scan), s.Limit)}
			}
			// Limit 0 pins the empty result (set.Scanner's contract) and
			// observes nothing: no key was ever reached.
			if s.Limit == 0 {
				if len(s.Scan) != 0 {
					return CheckResult{Reason: fmt.Sprintf("limit-0 scan returned %d pairs, want none", len(s.Scan))}
				}
				continue
			}
			// A limit-truncated scan observes nothing past its last
			// returned key: those keys were simply never reached.
			effHi := hi
			if s.Limit > 0 && len(s.Scan) == s.Limit {
				effHi = s.Scan[len(s.Scan)-1].Key
			}
			res := map[uint64]uint64{}
			for _, kv := range s.Scan {
				res[kv.Key] = kv.Value
			}
			for k := range keys {
				if k < lo || k > effHi {
					continue
				}
				v, ok := res[k]
				perKey[k] = append(perKey[k], Op{
					Kind: KFind, Key: k, Ok: ok, Val: v,
					Start: s.Start, End: s.End, Worker: s.Worker,
				})
			}
		}
	}
	for k, ops := range perKey {
		if !checkKey(ops) {
			return CheckResult{Ok: false, BadKey: k, BadCount: len(ops)}
		}
	}
	return CheckResult{Ok: true}
}

// bitset is an arbitrary-width done-set over the ops of one key. The
// reachable done-sets of Wing-Gong search are "order ideals" of the
// precedence order, so with w workers (plus any stalled operations) only
// a modest number of distinct sets arise and memoization over the bitset
// is effective regardless of history length.
type bitset []uint64

func newBitset(n int) bitset { return make(bitset, (n+63)/64) }

func (b bitset) get(i int) bool { return b[i/64]&(1<<(i%64)) != 0 }

func (b bitset) with(i int) bitset {
	nb := make(bitset, len(b))
	copy(nb, b)
	nb[i/64] |= 1 << (i % 64)
	return nb
}

func (b bitset) key() string {
	buf := make([]byte, 0, len(b)*8)
	for _, w := range b {
		for s := 0; s < 64; s += 8 {
			buf = append(buf, byte(w>>s))
		}
	}
	return string(buf)
}

// checkKey runs Wing-Gong DFS with memoization over one key's ops. The
// done-set is an arbitrary-width bitset: a stalled operation can overlap
// hundreds of later ones (its window covers them all), so a fixed 64-op
// window is not enough.
func checkKey(ops []Op) bool {
	sort.Slice(ops, func(i, j int) bool { return ops[i].Start < ops[j].Start })
	n := len(ops)
	if n == 0 {
		return true
	}
	type memoKey struct {
		done string
		c    cell
	}
	seen := map[memoKey]bool{}
	var dfs func(done bitset, nDone int, c cell) bool
	dfs = func(done bitset, nDone int, c cell) bool {
		if nDone == n {
			return true
		}
		mk := memoKey{done.key(), c}
		if seen[mk] {
			return false
		}
		seen[mk] = true
		// Only ops invoked before every pending response may linearize
		// next; and since ops are Start-sorted, once Start exceeds
		// minEnd no later op qualifies either.
		minEnd := int64(1) << 62
		for i := 0; i < n; i++ {
			if !done.get(i) && ops[i].End < minEnd {
				minEnd = ops[i].End
			}
		}
		for i := 0; i < n; i++ {
			if done.get(i) {
				continue
			}
			if ops[i].Start > minEnd {
				break
			}
			if next, ok := c.step(ops[i]); ok {
				if dfs(done.with(i), nDone+1, next) {
					return true
				}
			}
		}
		return false
	}
	return dfs(newBitset(n), 0, cell{})
}
