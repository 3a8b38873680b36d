package engine_test

import (
	"sync/atomic"
	"testing"

	flock "flock/internal/core"
	"flock/internal/kv/engine"
)

// optEngine is a bare engine over n shard locks on one shared runtime,
// with its restart and escalation counters, the reader's procs and a
// second Proc that moves shard versions from inside a read.
type optEngine struct {
	eng                   *engine.Engine
	locks                 []*flock.Lock
	procs                 []*flock.Proc
	writer                *flock.Proc
	restarts, escalations atomic.Uint64
}

func newOptEngine(t *testing.T, n int) *optEngine {
	rt := flock.New()
	o := &optEngine{locks: make([]*flock.Lock, n), procs: make([]*flock.Proc, n)}
	rts := make([]*flock.Runtime, n)
	p := rt.Register()
	for i := range o.locks {
		o.locks[i], rts[i], o.procs[i] = new(flock.Lock), rt, p
	}
	o.writer = rt.Register()
	t.Cleanup(func() { p.Unregister(); o.writer.Unregister() })
	o.eng = engine.New(engine.Config{
		Locks: o.locks, Runtimes: rts, Shared: rt,
		Route:    func(k uint64) int { return int(k % uint64(n)) },
		Restarts: &o.restarts, Escalations: &o.escalations,
	})
	return o
}

// move runs an empty critical section on shard s, advancing its version.
func (o *optEngine) move(s int) {
	o.locks[s].TryLock(o.writer, func(*flock.Proc) bool { return true })
}

func (o *optEngine) counters(t *testing.T, restarts, escalations uint64) {
	t.Helper()
	if r, e := o.restarts.Load(), o.escalations.Load(); r != restarts || e != escalations {
		t.Fatalf("restarts=%d escalations=%d, want %d/%d", r, e, restarts, escalations)
	}
}

func equalReads(got, want []int) bool {
	for i := range got {
		if got[i] != want[i] {
			return false
		}
	}
	return true
}

// TestOptimisticRereadsOnlyMovedShards pins the loop's per-shard retry: a
// shard whose version moved during its read is read again alone, and the
// other shards' first reads stand.
func TestOptimisticRereadsOnlyMovedShards(t *testing.T) {
	o := newOptEngine(t, 3)
	reads := make([]int, 3)
	ok := o.eng.Optimistic(o.procs, []int{0, 1, 2}, func(s int) {
		reads[s]++
		if s == 1 && reads[s] == 1 {
			o.move(1)
		}
	})
	if !ok {
		t.Fatal("one moved shard escalated")
	}
	if want := []int{1, 2, 1}; !equalReads(reads, want) {
		t.Fatalf("per-shard reads = %v, want %v", reads, want)
	}
	o.counters(t, 1, 0)
}

// TestOptimisticValidatesWholeVector pins that every round validates
// every shard, not only the ones it re-read: shard 0, read and
// validated in the first round, moves while shard 1 is re-read in the
// second, so it must be read again. A loop that validates only the
// re-read shards returns after two rounds with shard 0's first read,
// which no longer belongs to the cut.
func TestOptimisticValidatesWholeVector(t *testing.T) {
	o := newOptEngine(t, 3)
	reads := make([]int, 3)
	ok := o.eng.Optimistic(o.procs, []int{0, 1, 2}, func(s int) {
		reads[s]++
		if s == 1 {
			switch reads[s] {
			case 1:
				o.move(1)
			case 2:
				o.move(0)
			}
		}
	})
	if !ok {
		t.Fatal("two moves on different shards escalated")
	}
	if want := []int{2, 2, 1}; !equalReads(reads, want) {
		t.Fatalf("per-shard reads = %v, want %v", reads, want)
	}
	o.counters(t, 2, 0)
}

// TestOptimisticEscalatesPerShardBudget pins the escalation bound: a
// shard that moves under each of its MaxOptimistic reads escalates the
// group exactly once, with one restart per discarded read, and the
// other shards are read once.
func TestOptimisticEscalatesPerShardBudget(t *testing.T) {
	o := newOptEngine(t, 3)
	reads := make([]int, 3)
	ok := o.eng.Optimistic(o.procs, []int{0, 1, 2}, func(s int) {
		reads[s]++
		if s == 2 {
			o.move(2)
		}
	})
	if ok {
		t.Fatal("a shard that moved under every read validated")
	}
	max := o.procs[0].Runtime().MaxOptimistic()
	if want := []int{1, 1, max}; !equalReads(reads, want) {
		t.Fatalf("per-shard reads = %v, want %v", reads, want)
	}
	o.counters(t, uint64(max), 1)
}

// TestOptimisticGroupRereadsWhole pins OptimisticGroup's whole-vector
// meaning: read covers every shard, so a round with any moved shard runs
// it again whole, and it escalates after MaxOptimistic rounds.
func TestOptimisticGroupRereadsWhole(t *testing.T) {
	o := newOptEngine(t, 3)
	rounds := 0
	if !o.eng.OptimisticGroup(o.procs, []int{0, 1, 2}, func() {
		rounds++
		if rounds == 1 {
			o.move(1)
		}
	}) {
		t.Fatal("one moved shard escalated")
	}
	if rounds != 2 {
		t.Fatalf("read ran %d times, want 2", rounds)
	}
	o.counters(t, 1, 0)

	rounds = 0
	if o.eng.OptimisticGroup(o.procs, []int{0, 1, 2}, func() { rounds++; o.move(0) }) {
		t.Fatal("a group that moved under every read validated")
	}
	if max := o.procs[0].Runtime().MaxOptimistic(); rounds != max {
		t.Fatalf("read ran %d times, want MaxOptimistic=%d", rounds, max)
	}
}
