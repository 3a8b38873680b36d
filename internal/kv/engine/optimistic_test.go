package engine_test

import (
	"sync/atomic"
	"testing"

	flock "flock/internal/core"
	"flock/internal/kv/engine"
)

// optEngine is a bare engine over n shard locks on one runtime, with its
// restart counter, the reader's Proc and a second Proc that moves shard
// versions from inside a read.
type optEngine struct {
	eng      *engine.Engine
	locks    []*flock.Lock
	p        *flock.Proc
	writer   *flock.Proc
	restarts atomic.Uint64
}

func newOptEngine(t *testing.T, n int) *optEngine {
	rt := flock.New()
	o := &optEngine{locks: make([]*flock.Lock, n), p: rt.Register(), writer: rt.Register()}
	for i := range o.locks {
		o.locks[i] = new(flock.Lock)
	}
	t.Cleanup(func() { o.p.Unregister(); o.writer.Unregister() })
	o.eng = engine.New(engine.Config{
		Locks: o.locks, Shared: rt,
		Route:    func(k uint64) int { return int(k % uint64(n)) },
		Restarts: &o.restarts,
	})
	return o
}

// move runs an empty critical section on shard s, advancing its version.
func (o *optEngine) move(s int) {
	o.locks[s].TryLock(o.writer, func(*flock.Proc) bool { return true })
}

func (o *optEngine) counters(t *testing.T, restarts uint64) {
	t.Helper()
	if r := o.restarts.Load(); r != restarts {
		t.Fatalf("restarts=%d, want %d", r, restarts)
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
	o.eng.Optimistic(o.p, []int{0, 1, 2}, func(s int) {
		reads[s]++
		if s == 1 && reads[s] == 1 {
			o.move(1)
		}
	})
	if want := []int{1, 2, 1}; !equalReads(reads, want) {
		t.Fatalf("per-shard reads = %v, want %v", reads, want)
	}
	o.counters(t, 1)
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
	o.eng.Optimistic(o.p, []int{0, 1, 2}, func(s int) {
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
	if want := []int{2, 2, 1}; !equalReads(reads, want) {
		t.Fatalf("per-shard reads = %v, want %v", reads, want)
	}
	o.counters(t, 2)
}

// TestOptimisticLoopsUntilValidated pins that the loop has no read
// budget: a shard that moves under each of its first five reads (more
// than a per-shard budget of three would allow) is read a sixth time,
// which validates, with one restart per discarded read; the other
// shards are read once. OptimisticGroup re-reads its whole group just as long.
func TestOptimisticLoopsUntilValidated(t *testing.T) {
	const moves = 5
	o := newOptEngine(t, 3)
	reads := make([]int, 3)
	o.eng.Optimistic(o.p, []int{0, 1, 2}, func(s int) {
		reads[s]++
		if s == 2 && reads[s] <= moves {
			o.move(2)
		}
	})
	if want := []int{1, 1, moves + 1}; !equalReads(reads, want) {
		t.Fatalf("per-shard reads = %v, want %v", reads, want)
	}
	o.counters(t, moves)

	rounds := 0
	procs := []*flock.Proc{o.p, o.p, o.p}
	o.eng.OptimisticGroup(procs, []int{0, 1, 2}, func() {
		rounds++
		if rounds <= moves {
			o.move(0)
		}
	})
	if rounds != moves+1 {
		t.Fatalf("group read ran %d times, want %d", rounds, moves+1)
	}
	o.counters(t, 2*moves)
}

// TestOptimisticGroupRereadsWhole pins OptimisticGroup's whole-vector
// meaning: read covers every shard, so a round with any moved shard runs
// it again whole.
func TestOptimisticGroupRereadsWhole(t *testing.T) {
	o := newOptEngine(t, 3)
	procs := []*flock.Proc{o.p, o.p, o.p}
	rounds := 0
	o.eng.OptimisticGroup(procs, []int{0, 1, 2}, func() {
		rounds++
		if rounds == 1 {
			o.move(1)
		}
	})
	if rounds != 2 {
		t.Fatalf("read ran %d times, want 2", rounds)
	}
	o.counters(t, 1)
}
