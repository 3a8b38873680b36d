package flock

import (
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"testing/quick"
)

// replayConcurrently builds one descriptor for f and runs it from k procs
// at once — the exact situation helping creates — returning each run's
// result. This is the test harness for Definition 1 (idempotence): after
// it returns, f must appear to have executed exactly once.
func replayConcurrently(rt *Runtime, k int, f Thunk) []bool {
	owner := rt.Register()
	defer owner.Unregister()
	d := owner.newDescriptor(f, 1)

	results := make([]bool, k)
	var start, wg sync.WaitGroup
	start.Add(1)
	for i := 0; i < k; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			p := rt.Register()
			defer p.Unregister()
			start.Wait()
			p.Begin()
			results[i] = p.run(d)
			p.End()
		}(i)
	}
	start.Done()
	wg.Wait()
	return results
}

func TestCounterIncrementsOnceUnderReplay(t *testing.T) {
	for _, k := range []int{1, 2, 4, 8, 16} {
		rt := New()
		var c Mutable[uint64]
		c.Init(0)
		f := func(p *Proc) bool {
			v := c.Load(p)
			c.Store(p, v+1)
			return true
		}
		replayConcurrently(rt, k, f)
		probe := rt.Register()
		if got := c.Load(probe); got != 1 {
			t.Fatalf("k=%d: counter = %d after concurrent replays, want 1", k, got)
		}
		probe.Unregister()
	}
}

func TestSequentialReplayHasNoFurtherEffect(t *testing.T) {
	rt := New()
	p := rt.Register()
	q := rt.Register()
	defer p.Unregister()
	defer q.Unregister()

	var c Mutable[uint64]
	c.Init(10)
	d := p.newDescriptor(func(hp *Proc) bool {
		v := c.Load(hp)
		c.Store(hp, v*2)
		return v == 10
	}, 1)
	r1 := p.run(d)
	// Interfering operation between runs.
	c.Store(p, 999)
	r2 := q.run(d)
	r3 := p.run(d)
	if !r1 || !r2 || !r3 {
		t.Fatalf("replays returned different results: %v %v %v", r1, r2, r3)
	}
	if got := c.Load(p); got != 999 {
		t.Fatalf("replay re-applied effects: %d, want 999", got)
	}
}

// TestReplayDoesNotRebuildAllocation: under the default read-first
// commit, a replay that finds Allocate's slot committed returns the
// committed object without calling mk, so across an owner run and a
// replay mk runs exactly once. NoCCAS commits blindly, so every run
// builds its object (and the loser's is dropped).
func TestReplayDoesNotRebuildAllocation(t *testing.T) {
	for _, tc := range []struct {
		name      string
		opts      []Option
		wantCalls int64
	}{{"ccas", nil, 1}, {"noccas", []Option{NoCCAS()}, 2}} {
		t.Run(tc.name, func(t *testing.T) {
			rt := New(tc.opts...)
			p := rt.Register()
			q := rt.Register()
			defer p.Unregister()
			defer q.Unregister()
			type obj struct{ tag uint64 }
			// fill = logBlockLen puts the allocation first in a spill
			// block, so the replay's look-ahead must follow the link.
			for _, fill := range []int{0, 3, logBlockLen} {
				var mkCalls atomic.Int64
				var got [2]*obj
				run := 0
				d := p.newDescriptor(func(hp *Proc) bool {
					for i := 0; i < fill; i++ {
						hp.commitBool(true)
					}
					got[run] = Allocate(hp, func() *obj {
						mkCalls.Add(1)
						return &obj{tag: 7}
					})
					return true
				}, 1)
				p.run(d)
				run = 1
				q.run(d)
				if n := mkCalls.Load(); n != tc.wantCalls {
					t.Fatalf("fill %d: mk ran %d times across an owner run and a replay, want %d", fill, n, tc.wantCalls)
				}
				if got[0] == nil || got[0] != got[1] || got[0].tag != 7 {
					t.Fatalf("fill %d: runs returned different objects: %p vs %p", fill, got[0], got[1])
				}
			}
		})
	}
}

func TestAllRunsReturnSameValue(t *testing.T) {
	rt := New()
	var c Mutable[uint64]
	c.Init(7)
	results := replayConcurrently(rt, 8, func(p *Proc) bool {
		return c.Load(p)%2 == 1
	})
	for i, r := range results {
		if r != results[0] {
			t.Fatalf("run %d returned %v, run 0 returned %v", i, r, results[0])
		}
	}
}

func TestAllocateAgreesAcrossRuns(t *testing.T) {
	rt := New()
	type obj struct{ tag uint64 }
	var slot Mutable[*obj]
	var mkCalls atomic.Int64
	f := func(p *Proc) bool {
		o := Allocate(p, func() *obj {
			mkCalls.Add(1)
			return &obj{tag: 1}
		})
		slot.Store(p, o)
		return true
	}
	replayConcurrently(rt, 8, f)
	probe := rt.Register()
	defer probe.Unregister()
	got := slot.Load(probe)
	if got == nil || got.tag != 1 {
		t.Fatalf("allocated object lost: %+v", got)
	}
	if mkCalls.Load() < 1 {
		t.Fatalf("constructor never ran")
	}
	// Several constructors may run (losers are discarded), but the
	// externally visible object is unique: re-running the descriptor
	// once more must still yield the same pointer.
	d := probe.newDescriptor(f, 1)
	_ = d // separate descriptor would allocate separately; instead check stability:
	if slot.Load(probe) != got {
		t.Fatalf("allocation not stable")
	}
}

func TestRetireFiresExactlyOnce(t *testing.T) {
	for _, k := range []int{1, 2, 8} {
		rt := New()
		var freed atomic.Int64
		victim := new(int)
		f := func(p *Proc) bool {
			Retire(p, victim, func(*int) { freed.Add(1) })
			return true
		}
		replayConcurrently(rt, k, f)
		probe := rt.Register()
		probe.Drain()
		probe.Unregister()
		if got := freed.Load(); got != 1 {
			t.Fatalf("k=%d: retire callback ran %d times, want 1", k, got)
		}
	}
}

func TestCommitAgreesOnNondeterminism(t *testing.T) {
	// Each run proposes a different value; the committed value must be
	// adopted by every run, and the stored result must equal it.
	rt := New()
	var out Mutable[uint64]
	var next atomic.Uint64
	f := func(p *Proc) bool {
		proposal := next.Add(1) * 1000 // differs per run: nondeterministic
		v, _ := CommitValue(p, proposal)
		out.Store(p, v)
		return true
	}
	replayConcurrently(rt, 8, f)
	probe := rt.Register()
	defer probe.Unregister()
	got := out.Load(probe)
	if got == 0 || got%1000 != 0 {
		t.Fatalf("committed nondeterministic value corrupt: %d", got)
	}
}

// --- Property test: random straight-line programs over mutables ---

type vmInstr struct {
	Op      uint8
	Target  uint8
	Operand uint8
}

const vmCells = 4

// runProgram executes a deterministic straight-line program against cells,
// following the thunk determinism rules. Returns a checksum.
func runProgram(p *Proc, prog []vmInstr, cells *[vmCells]Mutable[uint64]) bool {
	var acc uint64
	for _, in := range prog {
		t := int(in.Target) % vmCells
		switch in.Op % 5 {
		case 0: // load-accumulate
			acc += cells[t].Load(p)
		case 1: // store derived value
			cells[t].Store(p, acc+uint64(in.Operand))
		case 2: // CAM with constant expectation
			cells[t].CAM(p, uint64(in.Operand), acc+1)
		case 3: // allocate and fold in
			o := Allocate(p, func() *uint64 { v := uint64(in.Operand); return &v })
			acc += *o
		case 4: // conditional on committed state
			if cells[t].Load(p)&1 == 0 {
				cells[t].Store(p, acc)
			} else {
				acc++
			}
		}
	}
	return acc&1 == 0
}

func TestQuickIdempotentReplayEquivalence(t *testing.T) {
	cfg := &quick.Config{
		MaxCount: 60,
		Rand:     rand.New(rand.NewSource(12345)),
	}
	property := func(prog []vmInstr, seeds [vmCells]uint8) bool {
		if len(prog) > 40 {
			prog = prog[:40]
		}
		// Spec: one run, single-threaded.
		specRT := New()
		var spec [vmCells]Mutable[uint64]
		for i := range spec {
			spec[i].Init(uint64(seeds[i]))
		}
		sp := specRT.Register()
		sd := sp.newDescriptor(func(p *Proc) bool { return runProgram(p, prog, &spec) }, 1)
		specRet := sp.run(sd)
		specVals := [vmCells]uint64{}
		for i := range spec {
			specVals[i] = spec[i].Load(sp)
		}
		sp.Unregister()

		// Replay: same program, fresh state, 6 concurrent runs.
		rt := New()
		var cells [vmCells]Mutable[uint64]
		for i := range cells {
			cells[i].Init(uint64(seeds[i]))
		}
		results := replayConcurrently(rt, 6, func(p *Proc) bool {
			return runProgram(p, prog, &cells)
		})
		probe := rt.Register()
		defer probe.Unregister()
		for i := range cells {
			if cells[i].Load(probe) != specVals[i] {
				t.Logf("cell %d: replay=%d spec=%d", i, cells[i].Load(probe), specVals[i])
				return false
			}
		}
		for _, r := range results {
			if r != specRet {
				t.Logf("return mismatch: %v vs spec %v", r, specRet)
				return false
			}
		}
		return true
	}
	if err := quick.Check(property, cfg); err != nil {
		t.Fatal(err)
	}
}

func TestLongThunkManyBlocks(t *testing.T) {
	// A thunk committing far more entries than one block holds, replayed
	// concurrently: exercises idempotent log growth under contention.
	rt := New()
	const steps = logBlockLen*10 + 3
	var cells [8]Mutable[uint64]
	f := func(p *Proc) bool {
		var acc uint64
		for i := 0; i < steps; i++ {
			c := &cells[i%len(cells)]
			acc += c.Load(p)
			c.Store(p, acc+uint64(i))
		}
		return true
	}
	replayConcurrently(rt, 8, f)

	// Spec run on fresh cells.
	spec := New()
	var specCells [8]Mutable[uint64]
	sp := spec.Register()
	defer sp.Unregister()
	sd := sp.newDescriptor(func(p *Proc) bool {
		var acc uint64
		for i := 0; i < steps; i++ {
			c := &specCells[i%len(specCells)]
			acc += c.Load(p)
			c.Store(p, acc+uint64(i))
		}
		return true
	}, 1)
	sp.run(sd)

	probe := rt.Register()
	defer probe.Unregister()
	for i := range cells {
		if got, want := cells[i].Load(probe), specCells[i].Load(sp); got != want {
			t.Fatalf("cell %d: %d, want %d", i, got, want)
		}
	}
}
