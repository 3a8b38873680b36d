package flock

import (
	"sync"
	"testing"
)

// enterFakeThunk installs a fresh standalone log on the Proc so tests can
// exercise commit without going through a Lock. Returns the log head and a
// function restoring the previous state.
func enterFakeThunk(p *Proc) (*logBlock, func()) {
	oblk, oidx := p.blk, p.idx
	head := &logBlock{}
	p.blk, p.idx = head, 0
	return head, func() { p.blk, p.idx = oblk, oidx }
}

// enterExistingLog points the Proc at an existing log head (as a helper
// replaying the same thunk would).
func enterExistingLog(p *Proc, head *logBlock) func() {
	oblk, oidx := p.blk, p.idx
	p.blk, p.idx = head, 0
	return func() { p.blk, p.idx = oblk, oidx }
}

func TestCommitPassthroughOutsideThunk(t *testing.T) {
	rt := New()
	p := rt.Register()
	defer p.Unregister()
	v, first := p.Commit(42)
	if v != 42 || !first {
		t.Fatalf("Commit outside thunk = (%v, %v), want (42, true)", v, first)
	}
	if p.InThunk() {
		t.Fatalf("InThunk true outside thunk")
	}
}

func TestCommitFirstWins(t *testing.T) {
	rt := New()
	p := rt.Register()
	q := rt.Register()
	defer p.Unregister()
	defer q.Unregister()

	head, exitP := enterFakeThunk(p)
	v, first := p.Commit("p-value")
	if v != "p-value" || !first {
		t.Fatalf("first commit = (%v,%v)", v, first)
	}
	exitP()

	exitQ := enterExistingLog(q, head)
	v2, first2 := q.Commit("q-value")
	exitQ()
	if first2 {
		t.Fatalf("replaying commit claims to be first")
	}
	if v2 != "p-value" {
		t.Fatalf("replaying commit got %v, want p-value", v2)
	}
}

func TestCommitPositionsAdvanceIndependently(t *testing.T) {
	rt := New()
	p := rt.Register()
	defer p.Unregister()

	_, exit := enterFakeThunk(p)
	for i := 0; i < 5; i++ {
		v, first := p.Commit(i)
		if v != i || !first {
			t.Fatalf("commit %d = (%v,%v)", i, v, first)
		}
	}
	exit()
}

func TestLogGrowsAcrossBlocks(t *testing.T) {
	rt := New()
	p := rt.Register()
	q := rt.Register()
	defer p.Unregister()
	defer q.Unregister()

	const n = logBlockLen*3 + 2
	head, exitP := enterFakeThunk(p)
	for i := 0; i < n; i++ {
		if v, _ := p.Commit(i); v != i {
			t.Fatalf("commit %d returned %v", i, v)
		}
	}
	exitP()

	// A replay over the same chain must see every committed value.
	exitQ := enterExistingLog(q, head)
	for i := 0; i < n; i++ {
		v, first := q.Commit(-1)
		if first {
			t.Fatalf("replay commit %d claims first", i)
		}
		if v != i {
			t.Fatalf("replay commit %d = %v", i, v)
		}
	}
	exitQ()
}

func TestLogGrowthIsIdempotent(t *testing.T) {
	// Two procs racing past the end of a block must adopt the same next
	// block and therefore agree on all values committed there.
	rt := New()
	const workers = 4
	const n = logBlockLen * 8

	head := &logBlock{}
	var wg sync.WaitGroup
	results := make([][]int, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			p := rt.Register()
			defer p.Unregister()
			exit := enterExistingLog(p, head)
			vals := make([]int, n)
			for i := 0; i < n; i++ {
				v, _ := p.Commit(w*1000 + i)
				vals[i] = v.(int)
			}
			exit()
			results[w] = vals
		}(w)
	}
	wg.Wait()

	for w := 1; w < workers; w++ {
		for i := 0; i < n; i++ {
			if results[w][i] != results[0][i] {
				t.Fatalf("worker %d position %d saw %d, worker 0 saw %d",
					w, i, results[w][i], results[0][i])
			}
		}
	}
}

func TestCommitValueTyped(t *testing.T) {
	rt := New()
	p := rt.Register()
	defer p.Unregister()
	_, exit := enterFakeThunk(p)
	defer exit()
	v, first := CommitValue(p, uint64(7))
	if v != 7 || !first {
		t.Fatalf("CommitValue = (%v,%v)", v, first)
	}
}

func TestCommitNilValue(t *testing.T) {
	rt := New()
	p := rt.Register()
	q := rt.Register()
	defer p.Unregister()
	defer q.Unregister()

	head, exitP := enterFakeThunk(p)
	var nilPtr *int
	v, first := p.Commit(nilPtr)
	if !first || v.(*int) != nil {
		t.Fatalf("committing nil pointer = (%v,%v)", v, first)
	}
	exitP()

	exitQ := enterExistingLog(q, head)
	v2, first2 := q.Commit(new(int))
	exitQ()
	if first2 {
		t.Fatalf("replay of nil commit claims first")
	}
	if v2.(*int) != nil {
		t.Fatalf("replay of nil commit returned %v", v2)
	}
}

func TestNoCCASOptionStillCorrect(t *testing.T) {
	rt := New(noCCAS())
	p := rt.Register()
	q := rt.Register()
	defer p.Unregister()
	defer q.Unregister()

	head, exitP := enterFakeThunk(p)
	p.Commit("x")
	exitP()
	exitQ := enterExistingLog(q, head)
	v, first := q.Commit("y")
	exitQ()
	if first || v != "x" {
		t.Fatalf("noCCAS replay = (%v,%v)", v, first)
	}
}
