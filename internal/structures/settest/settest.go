// Package settest provides the shared correctness suite run against every
// set implementation in this repository (the seven Flock structures and
// the lock-free baselines), in both lock-free and blocking modes.
//
// The suite covers:
//   - sequential differential testing against a map model,
//   - property-based random programs (testing/quick),
//   - disjoint-partition concurrency (workers own disjoint key sets, so
//     the final state is exactly predictable despite structural
//     interference on shared nodes/parents),
//   - contended stress on a small hot range with residual-state checks,
//   - oversubscribed stress (workers >> GOMAXPROCS).
package settest

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"testing"
	"testing/quick"

	flock "flock/internal/core"
	"flock/internal/lincheck"
	"flock/internal/obs"
	"flock/internal/structures/set"
)

// Factory builds a fresh set instance bound to rt.
type Factory func(rt *flock.Runtime) set.Set

// Modes lists the runtime modes the suite exercises.
var Modes = []struct {
	Name     string
	Blocking bool
}{
	{"lockfree", false},
	{"blocking", true},
}

// Run executes the full suite against the factory. Structures that
// implement set.Upserter additionally get upsert model and upsert
// linearizability passes; structures that implement set.Scanner (the
// ordered structures) additionally get the scan conformance passes:
// sequential model scans, the sentinel-bounds pin, the limit-0 pin, the
// append-form pin, the concurrent-mutation differential against a
// mutex-protected map, and scan linearizability (interval semantics)
// through lincheck.
// Structures that implement set.Locator get a located-operation model
// pass. Every structure gets the key-bounds pass.
func Run(t *testing.T, f Factory) { run(t, f, false) }

// RunComposable is Run for a structure the transactional layer composes
// (the harness's txn-capable set). A composed kv store reads such a
// structure optimistically: its top-level Find and Scan, validated
// against shard locks that writers hold around their structure updates
// (DESIGN.md S13). So the structure additionally gets the optimistic
// passes: sequential models that pin Find and Scan as lock-free reads —
// no lock acquired, no descriptor taken — and lincheck and
// concurrent-differential passes in which top-level reads race writers
// whose updates run nested inside outer critical sections, helped and
// replayed, as a composed store's transactions run them.
func RunComposable(t *testing.T, f Factory) { run(t, f, true) }

func run(t *testing.T, f Factory, composable bool) {
	t.Helper()
	probe, _ := newSet(f, false)
	_, upsertable := probe.(set.Upserter)
	_, scannable := probe.(set.Scanner)
	_, locator := probe.(set.Locator)
	for _, m := range Modes {
		t.Run(m.Name, func(t *testing.T) {
			t.Run("SequentialModel", func(t *testing.T) { sequentialModel(t, f, m.Blocking) })
			t.Run("QuickRandomProgram", func(t *testing.T) { quickRandom(t, f, m.Blocking) })
			t.Run("DisjointPartitions", func(t *testing.T) { disjointPartitions(t, f, m.Blocking) })
			t.Run("ContendedStress", func(t *testing.T) { contendedStress(t, f, m.Blocking) })
			t.Run("Oversubscribed", func(t *testing.T) { oversubscribed(t, f, m.Blocking) })
			t.Run("NodeGrowthSweep", func(t *testing.T) { nodeGrowth(t, f, m.Blocking) })
			t.Run("KeyBounds", func(t *testing.T) { keyBounds(t, f, m.Blocking) })
			t.Run("Linearizable", func(t *testing.T) { linearizable(t, f, m.Blocking, 0) })
			if !m.Blocking {
				// Descheduling injection exercises helping on every
				// code path; only meaningful in lock-free mode.
				t.Run("LinearizableWithStalls", func(t *testing.T) { linearizable(t, f, false, 25) })
			}
			if upsertable {
				t.Run("UpsertModel", func(t *testing.T) { upsertModel(t, f, m.Blocking) })
				t.Run("UpsertLinearizable", func(t *testing.T) { upsertLinearizable(t, f, m.Blocking) })
				t.Run("UpsertCounter", func(t *testing.T) { upsertCounter(t, f, m.Blocking) })
			}
			if locator {
				t.Run("LocatedModel", func(t *testing.T) { locatedModel(t, f, m.Blocking) })
			}
			if scannable {
				t.Run("ScanModel", func(t *testing.T) { scanModel(t, f, m.Blocking) })
				t.Run("ScanSentinelBounds", func(t *testing.T) { scanSentinelBounds(t, f, m.Blocking) })
				t.Run("ScanLimitZero", func(t *testing.T) { scanLimitZero(t, f, m.Blocking) })
				t.Run("ScanAppend", func(t *testing.T) { scanAppend(t, f, m.Blocking) })
				t.Run("CursorEquivalence", func(t *testing.T) { cursorEquivalence(t, f, m.Blocking) })
				t.Run("ScanConcurrentDifferential", func(t *testing.T) { scanConcurrentDifferential(t, f, m.Blocking) })
				t.Run("ScanLinearizable", func(t *testing.T) { scanLinearizable(t, f, m.Blocking) })
			}
			if !composable {
				return
			}
			stalls := 0
			if !m.Blocking {
				stalls = 25 // descheduled holders: helpers replay the nested updates
			}
			t.Run("OptimisticFindModel", func(t *testing.T) { optimisticFindModel(t, f, m.Blocking) })
			t.Run("OptimisticLinearizable", func(t *testing.T) { linearizable(t, nestedWriters(f), m.Blocking, stalls) })
			if scannable {
				t.Run("OptimisticScanModel", func(t *testing.T) { optimisticScanModel(t, f, m.Blocking) })
				t.Run("OptimisticScanDifferential", func(t *testing.T) { scanConcurrentDifferential(t, nestedWriters(f), m.Blocking) })
				t.Run("OptimisticScanLinearizable", func(t *testing.T) { scanLinearizable(t, nestedWriters(f), m.Blocking) })
			}
		})
	}
}

func newSet(f Factory, blocking bool) (set.Set, *flock.Runtime) {
	rt := flock.New()
	rt.SetBlocking(blocking)
	return f(rt), rt
}

// sequentialModel drives one worker through a scripted mix and compares
// every return value and lookup against a map.
func sequentialModel(t *testing.T, f Factory, blocking bool) {
	s, rt := newSet(f, blocking)
	p := rt.Register()
	defer p.Unregister()
	model := map[uint64]uint64{}
	rng := rand.New(rand.NewSource(42))

	const ops = 4000
	const keySpace = 200
	for i := 0; i < ops; i++ {
		k := uint64(rng.Intn(keySpace) + 1)
		switch rng.Intn(3) {
		case 0:
			v := rng.Uint64()
			_, had := model[k]
			got := s.Insert(p, k, v)
			if got == had {
				t.Fatalf("op %d: Insert(%d) = %v, model had=%v", i, k, got, had)
			}
			if !had {
				model[k] = v
			}
		case 1:
			_, had := model[k]
			got := s.Delete(p, k)
			if got != had {
				t.Fatalf("op %d: Delete(%d) = %v, model had=%v", i, k, got, had)
			}
			delete(model, k)
		case 2:
			want, had := model[k]
			v, got := s.Find(p, k)
			if got != had || (had && v != want) {
				t.Fatalf("op %d: Find(%d) = (%d,%v), model (%d,%v)", i, k, v, got, want, had)
			}
		}
	}
	// Full sweep at the end.
	for k := uint64(1); k <= keySpace; k++ {
		want, had := model[k]
		v, got := s.Find(p, k)
		if got != had || (had && v != want) {
			t.Fatalf("final sweep: Find(%d) = (%d,%v), model (%d,%v)", k, v, got, want, had)
		}
	}
}

// quickRandom uses testing/quick to generate random op sequences.
func quickRandom(t *testing.T, f Factory, blocking bool) {
	cfg := &quick.Config{MaxCount: 25, Rand: rand.New(rand.NewSource(7))}
	prop := func(ops []uint16) bool {
		if len(ops) > 300 {
			ops = ops[:300]
		}
		s, rt := newSet(f, blocking)
		p := rt.Register()
		defer p.Unregister()
		model := map[uint64]uint64{}
		for _, code := range ops {
			k := uint64(code%37) + 1
			switch (code >> 6) % 3 {
			case 0:
				_, had := model[k]
				if s.Insert(p, k, uint64(code)) == had {
					return false
				}
				if !had {
					model[k] = uint64(code)
				}
			case 1:
				_, had := model[k]
				if s.Delete(p, k) != had {
					return false
				}
				delete(model, k)
			case 2:
				want, had := model[k]
				v, got := s.Find(p, k)
				if got != had || (had && v != want) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(prop, cfg); err != nil {
		t.Fatal(err)
	}
}

// disjointPartitions: workers mutate disjoint key sets concurrently.
// Structural contention (shared parents, splits, merges, helping) is real,
// but each key's final state is exactly determined by its owner's script.
func disjointPartitions(t *testing.T, f Factory, blocking bool) {
	s, rt := newSet(f, blocking)
	const workers = 8
	const keysPer = 120
	const rounds = 4

	finals := make([]map[uint64]uint64, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			p := rt.Register()
			defer p.Unregister()
			rng := rand.New(rand.NewSource(int64(w) * 911))
			model := map[uint64]uint64{}
			// Worker w owns keys w+1, w+1+workers, w+1+2*workers, ...
			key := func(i int) uint64 { return uint64(w + 1 + i*workers) }
			for r := 0; r < rounds; r++ {
				for i := 0; i < keysPer; i++ {
					k := key(rng.Intn(keysPer))
					switch rng.Intn(3) {
					case 0:
						v := rng.Uint64()
						_, had := model[k]
						if s.Insert(p, k, v) == had {
							t.Errorf("w%d: Insert(%d) inconsistent with model", w, k)
							return
						}
						if !had {
							model[k] = v
						}
					case 1:
						_, had := model[k]
						if s.Delete(p, k) != had {
							t.Errorf("w%d: Delete(%d) inconsistent with model", w, k)
							return
						}
						delete(model, k)
					case 2:
						want, had := model[k]
						v, got := s.Find(p, k)
						if got != had || (had && v != want) {
							t.Errorf("w%d: Find(%d)=(%d,%v) model (%d,%v)", w, k, v, got, want, had)
							return
						}
					}
				}
			}
			finals[w] = model
		}(w)
	}
	wg.Wait()
	if t.Failed() {
		return
	}

	p := rt.Register()
	defer p.Unregister()
	for w := 0; w < workers; w++ {
		for i := 0; i < keysPer; i++ {
			k := uint64(w + 1 + i*workers)
			want, had := finals[w][k]
			v, got := s.Find(p, k)
			if got != had || (had && v != want) {
				t.Fatalf("final: key %d (worker %d) = (%d,%v), want (%d,%v)", k, w, v, got, want, had)
			}
		}
	}
}

// contendedStress hammers a tiny hot key range from many workers and then
// verifies the surviving keys are exactly resolvable: every key either
// present with a value some worker wrote, or absent; and single-worker
// re-verification still behaves like a set.
func contendedStress(t *testing.T, f Factory, blocking bool) {
	s, rt := newSet(f, blocking)
	const workers = 8
	const hotKeys = 8
	const opsPer = 1500

	type tally struct{ ins, del [hotKeys + 1]int64 }
	tallies := make([]tally, workers)

	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			p := rt.Register()
			defer p.Unregister()
			rng := rand.New(rand.NewSource(int64(w)*131 + 7))
			for i := 0; i < opsPer; i++ {
				k := uint64(rng.Intn(hotKeys) + 1)
				switch rng.Intn(3) {
				case 0:
					if s.Insert(p, k, uint64(w)+1) {
						tallies[w].ins[k]++
					}
				case 1:
					if s.Delete(p, k) {
						tallies[w].del[k]++
					}
				case 2:
					s.Find(p, k)
				}
			}
		}(w)
	}
	wg.Wait()

	// Set algebra: per key, successful inserts - successful deletes must be
	// 0 (absent) or 1 (present) — inserts fail when present, deletes fail
	// when absent, so the difference tracks presence exactly.
	p := rt.Register()
	defer p.Unregister()
	for k := uint64(1); k <= hotKeys; k++ {
		var ins, del int64
		for w := 0; w < workers; w++ {
			ins += tallies[w].ins[k]
			del += tallies[w].del[k]
		}
		diff := ins - del
		_, present := s.Find(p, k)
		switch diff {
		case 0:
			if present {
				t.Fatalf("key %d: ins-del=0 but present", k)
			}
		case 1:
			if !present {
				t.Fatalf("key %d: ins-del=1 but absent", k)
			}
		default:
			t.Fatalf("key %d: ins=%d del=%d (diff %d): set semantics violated", k, ins, del, diff)
		}
	}
	// The structure must still work after the storm.
	if !s.Insert(p, hotKeys+100, 5) {
		t.Fatalf("post-stress insert failed")
	}
	if v, ok := s.Find(p, hotKeys+100); !ok || v != 5 {
		t.Fatalf("post-stress find = (%d,%v)", v, ok)
	}
	if !s.Delete(p, hotKeys+100) {
		t.Fatalf("post-stress delete failed")
	}
}

// linearizable records a contended multi-worker history through the
// lincheck recorder and verifies a legal sequential witness exists —
// the direct form of the paper's correctness claim (Theorems 3.1/4.1
// compose to linearizability of the optimistic lock-based operations).
// stallEvery > 0 additionally forces descheduling inside critical
// sections so that most operations complete via helping.
func linearizable(t *testing.T, f Factory, blocking bool, stallEvery int) {
	s, rt := newSet(f, blocking)
	rt.SetStallInjection(stallEvery)
	const workers = 6
	const keys = 5
	opsPer := 250
	if stallEvery > 0 {
		opsPer = 80 // stalled blocking-free runs are slower; keep CI fast
	}
	rec := lincheck.NewRecorder(s, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			h := rec.Worker(w)
			p := rt.Register()
			defer p.Unregister()
			rng := rand.New(rand.NewSource(int64(w)*1543 + 11))
			for i := 0; i < opsPer; i++ {
				k := uint64(rng.Intn(keys) + 1)
				switch rng.Intn(3) {
				case 0:
					h.Insert(p, k, uint64(w)*1000+uint64(i))
				case 1:
					h.Delete(p, k)
				default:
					h.Find(p, k)
				}
			}
		}(w)
	}
	wg.Wait()
	hist := rec.History()
	if res := lincheck.Check(hist); !res.Ok {
		t.Fatalf("history of %d ops: %v", len(hist), res)
	}
}

// upsertModel drives one worker through a scripted mix of all four
// operations (including atomic upserts) and compares every return value
// against a map model.
func upsertModel(t *testing.T, f Factory, blocking bool) {
	s, rt := newSet(f, blocking)
	up := s.(set.Upserter)
	p := rt.Register()
	defer p.Unregister()
	model := map[uint64]uint64{}
	rng := rand.New(rand.NewSource(19))

	const ops = 4000
	const keySpace = 150
	for i := 0; i < ops; i++ {
		k := uint64(rng.Intn(keySpace) + 1)
		switch rng.Intn(4) {
		case 0:
			v := rng.Uint64()
			_, had := model[k]
			if s.Insert(p, k, v) == had {
				t.Fatalf("op %d: Insert(%d) inconsistent", i, k)
			}
			if !had {
				model[k] = v
			}
		case 1:
			_, had := model[k]
			if s.Delete(p, k) != had {
				t.Fatalf("op %d: Delete(%d) inconsistent", i, k)
			}
			delete(model, k)
		case 2:
			want, had := model[k]
			v, got := s.Find(p, k)
			if got != had || (had && v != want) {
				t.Fatalf("op %d: Find(%d)=(%d,%v), model (%d,%v)", i, k, v, got, want, had)
			}
		case 3:
			delta := rng.Uint64()%1000 + 1
			want, had := model[k]
			old, present := up.Upsert(p, k, func(o uint64, _ bool) uint64 { return o + delta })
			if present != had || (had && old != want) {
				t.Fatalf("op %d: Upsert(%d)=(%d,%v), model (%d,%v)", i, k, old, present, want, had)
			}
			model[k] = want + delta
		}
	}
	for k := uint64(1); k <= keySpace; k++ {
		want, had := model[k]
		v, got := s.Find(p, k)
		if got != had || (had && v != want) {
			t.Fatalf("final sweep: Find(%d)=(%d,%v), model (%d,%v)", k, v, got, want, had)
		}
	}
}

// locatedModel checks set.Locator against a map model. Each round
// locates a batch of keys (duplicates included), applies a batch of
// interleaved inserts, deletes and upserts that leave many of the
// positions stale, and then reads or upserts every batch key from its
// position inside a thunk, as a composed transaction does.
func locatedModel(t *testing.T, f Factory, blocking bool) {
	s, rt := newSet(f, blocking)
	loc := s.(set.Locator)
	up, _ := s.(set.Upserter)
	p := rt.Register()
	defer p.Unregister()
	model := map[uint64]uint64{}
	rng := rand.New(rand.NewSource(23))
	var l flock.Lock
	inThunk := func(f func(hp *flock.Proc)) {
		l.TryLock(p, func(hp *flock.Proc) bool { f(hp); return true })
	}

	const rounds = 400
	const keySpace = 48
	const batch = 6
	key := func() uint64 { return uint64(rng.Intn(keySpace) + 1) }
	for r := 0; r < rounds; r++ {
		keys := make([]uint64, batch)
		ats := make([]set.Position, batch)
		for j := range keys {
			keys[j] = key()
			ats[j] = loc.Locate(p, keys[j])
		}
		for w := rng.Intn(10); w > 0; w-- {
			k := key()
			switch rng.Intn(3) {
			case 0:
				if s.Insert(p, k, uint64(r)) {
					model[k] = uint64(r)
				}
			case 1:
				s.Delete(p, k)
				delete(model, k)
			default:
				if up != nil {
					up.Upsert(p, k, func(o uint64, _ bool) uint64 { return o + 1 })
					model[k]++
				}
			}
		}
		for j, k := range keys {
			want, had := model[k]
			var v uint64
			var ok bool
			if rng.Intn(2) == 0 {
				inThunk(func(hp *flock.Proc) { v, ok = loc.FindAt(hp, ats[j], k) })
				if ok != had || (had && v != want) {
					t.Fatalf("round %d: FindAt(%d) = (%d,%v), model (%d,%v)", r, k, v, ok, want, had)
				}
				continue
			}
			nv := rng.Uint64()
			inThunk(func(hp *flock.Proc) { v, ok = loc.UpsertAt(hp, ats[j], k, nv) })
			if ok != had || (had && v != want) {
				t.Fatalf("round %d: UpsertAt(%d) = (%d,%v), model (%d,%v)", r, k, v, ok, want, had)
			}
			model[k] = nv
		}
	}
	for k := uint64(1); k <= keySpace; k++ {
		want, had := model[k]
		v, got := s.Find(p, k)
		if got != had || (had && v != want) {
			t.Fatalf("final sweep: Find(%d) = (%d,%v), model (%d,%v)", k, v, got, want, had)
		}
	}
}

// upsertLinearizable records contended histories mixing upserts with the
// set operations and checks them with lincheck.
func upsertLinearizable(t *testing.T, f Factory, blocking bool) {
	s, rt := newSet(f, blocking)
	const workers = 6
	const keys = 4
	const opsPer = 200
	rec := lincheck.NewRecorder(s, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			h := rec.Worker(w)
			p := rt.Register()
			defer p.Unregister()
			rng := rand.New(rand.NewSource(int64(w)*733 + 5))
			for i := 0; i < opsPer; i++ {
				k := uint64(rng.Intn(keys) + 1)
				switch rng.Intn(4) {
				case 0:
					h.Insert(p, k, uint64(w)*10000+uint64(i))
				case 1:
					h.Delete(p, k)
				case 2:
					h.Upsert(p, k, uint64(w)*10000+5000+uint64(i))
				default:
					h.Find(p, k)
				}
			}
		}(w)
	}
	wg.Wait()
	hist := rec.History()
	if res := lincheck.Check(hist); !res.Ok {
		t.Fatalf("history of %d ops: %v", len(hist), res)
	}
}

// upsertCounter is the classic atomicity test: every worker increments a
// few hot keys via Upsert; lost updates would make the final sums fall
// short of the recorded increment counts.
func upsertCounter(t *testing.T, f Factory, blocking bool) {
	s, rt := newSet(f, blocking)
	up := s.(set.Upserter)
	const workers = 8
	const keys = 3
	const opsPer = 800
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			p := rt.Register()
			defer p.Unregister()
			rng := rand.New(rand.NewSource(int64(w)*389 + 1))
			for i := 0; i < opsPer; i++ {
				k := uint64(rng.Intn(keys) + 1)
				up.Upsert(p, k, func(o uint64, _ bool) uint64 { return o + 1 })
			}
		}(w)
	}
	wg.Wait()
	p := rt.Register()
	defer p.Unregister()
	var total uint64
	for k := uint64(1); k <= keys; k++ {
		v, ok := s.Find(p, k)
		if !ok {
			t.Fatalf("hot key %d absent after increments", k)
		}
		total += v
	}
	if total != workers*opsPer {
		t.Fatalf("lost updates: counted %d increments, want %d", total, workers*opsPer)
	}
}

// expectedScan computes a model's answer to Scan(lo, hi, limit)
// (limit < 0 unbounded, 0 empty).
func expectedScan(model map[uint64]uint64, lo, hi uint64, limit int) []set.KV {
	if limit == 0 {
		return nil
	}
	clo, chi := set.ClampScanBounds(lo, hi)
	var out []set.KV
	for k, v := range model {
		if k >= clo && k <= chi {
			out = append(out, set.KV{Key: k, Value: v})
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Key < out[j].Key })
	if limit > 0 && len(out) > limit {
		out = out[:limit]
	}
	return out
}

// scanModel drives one worker through inserts, deletes and scans with
// random bounds and limits, comparing every scan exactly against the
// map model (sequentially a scan must be an exact snapshot).
func scanModel(t *testing.T, f Factory, blocking bool) {
	s, rt := newSet(f, blocking)
	sc := s.(set.Scanner)
	p := rt.Register()
	defer p.Unregister()
	model := map[uint64]uint64{}
	rng := rand.New(rand.NewSource(23))

	const ops = 3000
	const keySpace = 160
	for i := 0; i < ops; i++ {
		switch rng.Intn(5) {
		case 0, 1:
			k := uint64(rng.Intn(keySpace) + 1)
			v := rng.Uint64()
			if _, had := model[k]; !had {
				model[k] = v
			}
			s.Insert(p, k, v)
		case 2:
			k := uint64(rng.Intn(keySpace) + 1)
			s.Delete(p, k)
			delete(model, k)
		default:
			lo := uint64(rng.Intn(keySpace + 1))
			hi := lo + uint64(rng.Intn(keySpace))
			if rng.Intn(8) == 0 {
				lo, hi = 0, math.MaxUint64 // open-interval sentinels
			}
			limit := -1
			if rng.Intn(2) == 0 {
				limit = rng.Intn(12) + 1
			}
			got := sc.Scan(p, lo, hi, limit, nil)
			want := expectedScan(model, lo, hi, limit)
			if len(got) != len(want) {
				t.Fatalf("op %d: Scan(%d,%d,%d) = %d pairs, want %d", i, lo, hi, limit, len(got), len(want))
			}
			for j := range got {
				if got[j] != want[j] {
					t.Fatalf("op %d: Scan(%d,%d,%d)[%d] = %v, want %v", i, lo, hi, limit, j, got[j], want[j])
				}
			}
		}
	}
}

// scanSentinelBounds pins the open-interval sentinel contract
// (set.ClampScanBounds): bounds 0 and MaxUint64 mean "everything", keys
// at the extreme ends of the shared key space are reachable, and no
// structure-internal sentinel key ever leaks into a result.
func scanSentinelBounds(t *testing.T, f Factory, blocking bool) {
	s, rt := newSet(f, blocking)
	sc := s.(set.Scanner)
	p := rt.Register()
	defer p.Unregister()
	maxKey := uint64(set.MaxKey) // the largest key every structure accepts
	for _, k := range []uint64{1, 5, maxKey} {
		if !s.Insert(p, k, k+100) {
			t.Fatalf("Insert(%d) failed", k)
		}
	}
	check := func(lo, hi uint64, limit int, want ...uint64) {
		t.Helper()
		got := sc.Scan(p, lo, hi, limit, nil)
		if len(got) != len(want) {
			t.Fatalf("Scan(%d,%d,%d) = %v, want keys %v", lo, hi, limit, got, want)
		}
		for i, kv := range got {
			if kv.Key != want[i] || kv.Value != want[i]+100 {
				t.Fatalf("Scan(%d,%d,%d)[%d] = %v, want key %d", lo, hi, limit, i, kv, want[i])
			}
		}
	}
	check(0, math.MaxUint64, -1, 1, 5, maxKey) // fully open
	check(1, math.MaxUint64-1, -1, 1, 5, maxKey)
	check(0, 4, -1, 1)                   // open below only
	check(6, math.MaxUint64, -1, maxKey) // open above only
	check(maxKey, maxKey, -1, maxKey)
	check(2, 4, -1)
	check(0, math.MaxUint64, 2, 1, 5) // limit truncation
	check(0, 0, -1)                   // hi 0 is not a sentinel: [1, 0] is empty
}

// cursorEquivalence pins set.Cursor's resumption contract: with no
// concurrent mutation, chunked iteration at any chunk size — including
// 1, sizes that straddle the population, and sizes larger than it —
// reassembles exactly the one-shot Scan over the same interval, for
// both full-range sentinels and random sub-intervals, and the cursor
// reports Done with no trailing chunk.
func cursorEquivalence(t *testing.T, f Factory, blocking bool) {
	s, rt := newSet(f, blocking)
	sc := s.(set.Scanner)
	p := rt.Register()
	defer p.Unregister()
	rng := rand.New(rand.NewSource(77))
	model := map[uint64]uint64{}
	const keySpace = 300
	for i := 0; i < 180; i++ {
		k := uint64(rng.Intn(keySpace) + 1)
		v := rng.Uint64()
		if _, had := model[k]; !had && s.Insert(p, k, v) {
			model[k] = v
		}
	}
	intervals := [][2]uint64{
		{0, math.MaxUint64}, // open sentinels
		{1, keySpace},
		{keySpace / 4, keySpace / 2},
		{keySpace + 1, 2 * keySpace}, // empty tail
	}
	for i := 0; i < 4; i++ {
		lo := uint64(rng.Intn(keySpace + 1))
		intervals = append(intervals, [2]uint64{lo, lo + uint64(rng.Intn(keySpace))})
	}
	for _, iv := range intervals {
		want := sc.Scan(p, iv[0], iv[1], -1, nil)
		for _, chunk := range []int{1, 3, 7, len(want), len(want) + 1, 64} {
			if chunk <= 0 {
				continue
			}
			cur := set.NewCursor(sc, iv[0], iv[1])
			var got []set.KV
			for !cur.Done() {
				run := cur.Next(p, chunk)
				if len(run) > chunk {
					t.Fatalf("cursor [%d,%d] chunk %d: run of %d pairs", iv[0], iv[1], chunk, len(run))
				}
				got = append(got, run...)
			}
			if cur.Next(p, chunk) != nil {
				t.Fatalf("cursor [%d,%d] chunk %d: Next after Done returned pairs", iv[0], iv[1], chunk)
			}
			if len(got) != len(want) {
				t.Fatalf("cursor [%d,%d] chunk %d: %d pairs, one-shot scan %d", iv[0], iv[1], chunk, len(got), len(want))
			}
			for j := range got {
				if got[j] != want[j] {
					t.Fatalf("cursor [%d,%d] chunk %d: pair %d = %v, want %v", iv[0], iv[1], chunk, j, got[j], want[j])
				}
			}
		}
	}
}

// scanLimitZero pins the limit-0 contract across every Scanner: a
// limit-0 scan returns the empty result — no pairs, no panic — for any
// bounds, including the open-interval sentinels, on both an empty and a
// populated structure. (limit < 0 is the unbounded spelling; 0 used to
// mean unbounded and this pass keeps the migration honest.)
func scanLimitZero(t *testing.T, f Factory, blocking bool) {
	s, rt := newSet(f, blocking)
	sc := s.(set.Scanner)
	p := rt.Register()
	defer p.Unregister()
	bounds := [][2]uint64{
		{0, math.MaxUint64}, // fully open
		{1, 100},
		{0, 50},
		{50, math.MaxUint64},
		{7, 7},
		{10, 3}, // empty interval
	}
	checkEmpty := func(stage string) {
		t.Helper()
		for _, b := range bounds {
			if got := sc.Scan(p, b[0], b[1], 0, nil); len(got) != 0 {
				t.Fatalf("%s: Scan(%d,%d,0) = %v, want empty", stage, b[0], b[1], got)
			}
		}
	}
	checkEmpty("empty structure")
	for k := uint64(1); k <= 64; k++ {
		s.Insert(p, k, k*3)
	}
	checkEmpty("populated structure")
	// limit 0 is not sticky: the same structure still scans normally.
	if got := sc.Scan(p, 0, math.MaxUint64, -1, nil); len(got) != 64 {
		t.Fatalf("unbounded scan after limit-0 scans: %d pairs, want 64", len(got))
	}
}

// scanAppend pins Scanner's append form on every Scanner: the pairs
// are appended after dst's prefix, which stays untouched; limit counts
// appended pairs only; a dirty dst with spare capacity yields the same
// appended pairs as nil; and limit 0 returns dst itself, unchanged.
func scanAppend(t *testing.T, f Factory, blocking bool) {
	s, rt := newSet(f, blocking)
	sc := s.(set.Scanner)
	p := rt.Register()
	defer p.Unregister()
	model := map[uint64]uint64{}
	for k := uint64(3); k <= 120; k += 3 {
		s.Insert(p, k, k*7)
		model[k] = k * 7
	}
	junk := set.KV{Key: math.MaxUint64, Value: 0xbad}
	prefix := []set.KV{{Key: 900, Value: 1}, {Key: 2, Value: 2}, {Key: 450, Value: 3}}
	rng := rand.New(rand.NewSource(61))
	for i := 0; i < 400; i++ {
		lo := uint64(rng.Intn(130))
		hi := lo + uint64(rng.Intn(130))
		if rng.Intn(8) == 0 {
			lo, hi = 0, math.MaxUint64
		}
		limit := rng.Intn(16) - 2 // -2..13: unbounded, zero and bounded
		want := expectedScan(model, lo, hi, limit)
		call := fmt.Sprintf("op %d: Scan(%d,%d,%d)", i, lo, hi, limit)

		fromNil := sc.Scan(p, lo, hi, limit, nil)
		equalKVs(t, call+" into nil", fromNil, want)

		// A dirty dst: a prefix to keep and spare capacity full of junk.
		dst := make([]set.KV, len(prefix), len(prefix)+8+rng.Intn(64))
		copy(dst, prefix)
		for j := len(dst); j < cap(dst); j++ {
			dst[:cap(dst)][j] = junk
		}
		got := sc.Scan(p, lo, hi, limit, dst)
		if len(got) < len(prefix) {
			t.Fatalf("%s: result of %d pairs drops the %d-pair prefix", call, len(got), len(prefix))
		}
		equalKVs(t, call+" prefix", got[:len(prefix)], prefix)
		equalKVs(t, call+" prefix (dst)", dst, prefix)
		equalKVs(t, call+" appended", got[len(prefix):], want)
		if limit == 0 && (len(got) != len(dst) || cap(got) != cap(dst) || &got[0] != &dst[0]) {
			t.Fatalf("%s: limit 0 returned a slice other than dst", call)
		}
	}
	if got := sc.Scan(p, 0, math.MaxUint64, 0, nil); got != nil {
		t.Fatalf("Scan(0,max,0) into nil = %v, want nil", got)
	}
}

// equalKVs fails t unless got and want hold the same pairs.
func equalKVs(t *testing.T, what string, got, want []set.KV) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d pairs, want %d (%v, want %v)", what, len(got), len(want), got, want)
	}
	for j := range got {
		if got[j] != want[j] {
			t.Fatalf("%s: pair %d = %v, want %v", what, j, got[j], want[j])
		}
	}
}

// scanConcurrentDifferential is the concurrent-mutation differential:
// even keys are stable (inserted once, never touched again), odd keys
// are mutated by their owning workers, and every mutation is mirrored
// into a mutex-protected model map. Scans running throughout must be
// sorted, bounded, limited, exact on stable keys and plausible on
// volatile keys; the final full scan must equal the model exactly.
func scanConcurrentDifferential(t *testing.T, f Factory, blocking bool) {
	s, rt := newSet(f, blocking)
	scan := s.(set.Scanner).Scan
	const workers = 6
	const keySpace = 192 // keys 1..keySpace; even = stable, odd = volatile
	opsPer := 1200
	if testing.Short() {
		opsPer = 300
	}

	var mu sync.Mutex
	model := map[uint64]uint64{}

	{
		p := rt.Register()
		for k := uint64(2); k <= keySpace; k += 2 {
			s.Insert(p, k, k) // stable value: the key itself
			model[k] = k
		}
		p.Unregister()
	}

	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			p := rt.Register()
			defer p.Unregister()
			rng := rand.New(rand.NewSource(int64(w)*607 + 13))
			for i := 0; i < opsPer; i++ {
				// Worker w owns odd keys with (k/2) % workers == w.
				k := uint64(2*(w+workers*rng.Intn(keySpace/(2*workers))) + 1)
				if rng.Intn(2) == 0 {
					v := k | uint64(rng.Intn(1<<16)+1)<<32 // low 32 bits name the key
					if s.Insert(p, k, v) {
						mu.Lock()
						model[k] = v
						mu.Unlock()
					}
				} else {
					if s.Delete(p, k) {
						mu.Lock()
						delete(model, k)
						mu.Unlock()
					}
				}
			}
		}(w)
	}

	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()

	// Scanners run until the mutators finish, checking the weak
	// (interval-semantics) properties that hold mid-flight.
	var scanErr error
	var scanMu sync.Mutex
	fail := func(format string, args ...any) {
		scanMu.Lock()
		if scanErr == nil {
			scanErr = fmt.Errorf(format, args...)
		}
		scanMu.Unlock()
	}
	var swg sync.WaitGroup
	for g := 0; g < 2; g++ {
		swg.Add(1)
		go func(g int) {
			defer swg.Done()
			p := rt.Register()
			defer p.Unregister()
			rng := rand.New(rand.NewSource(int64(g)*991 + 3))
			var buf []set.KV // reused: every scan appends over the last one's pairs
			for {
				select {
				case <-done:
					return
				default:
				}
				lo := uint64(rng.Intn(keySpace)) + 1
				hi := lo + uint64(rng.Intn(keySpace))
				limit := -1
				if rng.Intn(3) == 0 {
					limit = rng.Intn(24) + 1
				}
				got := scan(p, lo, hi, limit, buf[:0])
				buf = got
				if limit > 0 && len(got) > limit {
					fail("scan over limit: %d > %d", len(got), limit)
					return
				}
				prev := uint64(0)
				for _, kv := range got {
					if kv.Key < lo || kv.Key > hi {
						fail("scan [%d,%d] returned key %d", lo, hi, kv.Key)
						return
					}
					if kv.Key <= prev {
						fail("scan result unsorted at %d", kv.Key)
						return
					}
					prev = kv.Key
					if kv.Key > keySpace {
						fail("scan invented key %d", kv.Key)
						return
					}
					if kv.Key%2 == 0 {
						if kv.Value != kv.Key {
							fail("stable key %d has value %d", kv.Key, kv.Value)
							return
						}
					} else if kv.Value&0xffffffff != kv.Key || kv.Value>>32 == 0 {
						fail("volatile key %d has implausible value %#x", kv.Key, kv.Value)
						return
					}
				}
				// Stable keys are never mutated: every one in the scanned
				// (possibly limit-truncated) interval must appear.
				effHi := hi
				if limit > 0 && len(got) == limit {
					effHi = got[len(got)-1].Key
				}
				seen := map[uint64]bool{}
				for _, kv := range got {
					seen[kv.Key] = true
				}
				for k := lo + (lo % 2); k <= effHi && k <= keySpace; k += 2 {
					if !seen[k] {
						fail("scan [%d,%d] limit %d missed stable key %d", lo, hi, limit, k)
						return
					}
				}
			}
		}(g)
	}
	swg.Wait()
	if scanErr != nil {
		t.Fatal(scanErr)
	}

	// Quiesced: the final full scan must equal the model exactly.
	p := rt.Register()
	defer p.Unregister()
	got := scan(p, 0, math.MaxUint64, -1, nil)
	want := expectedScan(model, 0, math.MaxUint64, -1)
	if len(got) != len(want) {
		t.Fatalf("final scan: %d pairs, model has %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("final scan[%d] = %v, model %v", i, got[i], want[i])
		}
	}
}

// scanLinearizable records contended histories mixing scans with
// inserts and deletes and checks them with lincheck's interval-snapshot
// Scan semantics.
func scanLinearizable(t *testing.T, f Factory, blocking bool) {
	s, rt := newSet(f, blocking)
	const workers = 6
	const keys = 6
	opsPer := 200
	if testing.Short() {
		opsPer = 80
	}
	rec := lincheck.NewRecorder(s, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			h := rec.Worker(w)
			p := rt.Register()
			defer p.Unregister()
			rng := rand.New(rand.NewSource(int64(w)*1201 + 17))
			scan := h.Scan
			for i := 0; i < opsPer; i++ {
				k := uint64(rng.Intn(keys) + 1)
				switch rng.Intn(5) {
				case 0:
					h.Insert(p, k, uint64(w)*100000+uint64(i))
				case 1:
					h.Delete(p, k)
				case 2:
					h.Find(p, k)
				case 3:
					lo := uint64(rng.Intn(keys)) + 1
					hi := lo + uint64(rng.Intn(keys))
					limit := -1
					if rng.Intn(3) == 0 {
						limit = rng.Intn(keys) + 1
					}
					scan(p, lo, hi, limit, nil)
				default:
					scan(p, 0, math.MaxUint64, -1, nil)
				}
			}
		}(w)
	}
	wg.Wait()
	hist := rec.History()
	if res := lincheck.Check(hist); !res.Ok {
		t.Fatalf("history of %d ops: %v", len(hist), res)
	}
}

// lockFree fails t when p acquired a lock or took a descriptor since
// the before snapshot (obs counters, which the caller has switched on).
func lockFree(t *testing.T, p *flock.Proc, before [4]uint64, op string) {
	t.Helper()
	if now := lockCounts(p); now != before {
		t.Fatalf("%s took a lock: acquires lf/blocking, descriptors hit/miss %v -> %v", op, before, now)
	}
}

// lockCounts reads p's lock-acquisition and descriptor counters.
func lockCounts(p *flock.Proc) [4]uint64 {
	b := p.Obs()
	return [4]uint64{b.Load(obs.AcquiresLF), b.Load(obs.AcquiresBlocking), b.Load(obs.PoolHits), b.Load(obs.PoolMisses)}
}

// withObs runs f with the obs counters switched on.
func withObs(f func()) {
	was := obs.Enabled()
	obs.SetEnabled(true)
	defer obs.SetEnabled(was)
	f()
}

// optimisticFindModel is the sequential differential for Find as the
// optimistic read a composed kv store validates: a scripted mix of
// inserts, deletes and finds, with every find compared against the
// model and required to take no lock and no descriptor.
func optimisticFindModel(t *testing.T, f Factory, blocking bool) {
	s, rt := newSet(f, blocking)
	p := rt.Register()
	defer p.Unregister()
	model := map[uint64]uint64{}
	rng := rand.New(rand.NewSource(71))

	const ops = 4000
	const keySpace = 180
	withObs(func() {
		for i := 0; i < ops; i++ {
			k := uint64(rng.Intn(keySpace) + 1)
			switch rng.Intn(3) {
			case 0:
				v := rng.Uint64()
				if _, had := model[k]; !had {
					model[k] = v
				}
				s.Insert(p, k, v)
			case 1:
				s.Delete(p, k)
				delete(model, k)
			default:
				want, had := model[k]
				before := lockCounts(p)
				v, got := s.Find(p, k)
				lockFree(t, p, before, fmt.Sprintf("op %d: Find(%d)", i, k))
				if got != had || (had && v != want) {
					t.Fatalf("op %d: Find(%d)=(%d,%v), model (%d,%v)", i, k, v, got, want, had)
				}
			}
		}
	})
}

// optimisticScanModel is optimisticFindModel for Scan, mirroring
// scanModel: every scan must match the model and take no lock.
func optimisticScanModel(t *testing.T, f Factory, blocking bool) {
	s, rt := newSet(f, blocking)
	sc := s.(set.Scanner)
	p := rt.Register()
	defer p.Unregister()
	model := map[uint64]uint64{}
	rng := rand.New(rand.NewSource(83))

	const ops = 2500
	const keySpace = 140
	withObs(func() {
		for i := 0; i < ops; i++ {
			switch rng.Intn(5) {
			case 0, 1:
				k := uint64(rng.Intn(keySpace) + 1)
				v := rng.Uint64()
				if _, had := model[k]; !had {
					model[k] = v
				}
				s.Insert(p, k, v)
			case 2:
				k := uint64(rng.Intn(keySpace) + 1)
				s.Delete(p, k)
				delete(model, k)
			default:
				lo := uint64(rng.Intn(keySpace + 1))
				hi := lo + uint64(rng.Intn(keySpace))
				if rng.Intn(8) == 0 {
					lo, hi = 0, math.MaxUint64
				}
				limit := -1
				if rng.Intn(2) == 0 {
					limit = rng.Intn(12) + 1
				}
				before := lockCounts(p)
				got := sc.Scan(p, lo, hi, limit, nil)
				lockFree(t, p, before, fmt.Sprintf("op %d: Scan(%d,%d,%d)", i, lo, hi, limit))
				want := expectedScan(model, lo, hi, limit)
				if len(got) != len(want) {
					t.Fatalf("op %d: Scan(%d,%d,%d) = %d pairs, want %d", i, lo, hi, limit, len(got), len(want))
				}
				for j := range got {
					if got[j] != want[j] {
						t.Fatalf("op %d: Scan(%d,%d,%d)[%d] = %v, want %v", i, lo, hi, limit, j, got[j], want[j])
					}
				}
			}
		}
	})
}

// nestedWriters wraps f's structures so that every Insert and Delete runs
// as the body of an outer critical section — a TryLock thunk on one of
// nestedLocks locks chosen by key, retried until it commits — the way a
// composed kv store's transactions run structure updates under shard
// locks. Helpers of a held outer lock replay the structure's own nested
// acquisitions. Find and Scan still run at top level.
func nestedWriters(f Factory) Factory {
	return func(rt *flock.Runtime) set.Set { return &nested{Set: f(rt)} }
}

const nestedLocks = 4

type nested struct {
	set.Set
	locks [nestedLocks]flock.Lock
}

func (n *nested) Insert(p *flock.Proc, k, v uint64) bool {
	return n.run(p, k, func(hp *flock.Proc) bool { return n.Set.Insert(hp, k, v) })
}

func (n *nested) Delete(p *flock.Proc, k uint64) bool {
	return n.run(p, k, func(hp *flock.Proc) bool { return n.Set.Delete(hp, k) })
}

func (n *nested) Scan(p *flock.Proc, lo, hi uint64, limit int, dst []set.KV) []set.KV {
	return n.Set.(set.Scanner).Scan(p, lo, hi, limit, dst)
}

// run retries op's outer critical section until it commits. Each
// attempt publishes op's result through its own atomic, which every run
// of the thunk stores identically (op's result flows from logged loads).
func (n *nested) run(p *flock.Proc, k uint64, op func(hp *flock.Proc) bool) bool {
	l := &n.locks[k%nestedLocks]
	for {
		res := new(atomic.Bool)
		if l.TryLock(p, func(hp *flock.Proc) bool { res.Store(op(hp)); return true }) {
			return res.Load()
		}
		runtime.Gosched()
	}
}

// keyBounds round-trips Insert, Find and Delete at both ends of the key
// space every structure shares, [1, set.MaxKey], on an empty structure
// and next to each other: the top key must not collide with any
// structure's sentinel.
func keyBounds(t *testing.T, f Factory, blocking bool) {
	s, rt := newSet(f, blocking)
	p := rt.Register()
	defer p.Unregister()
	for _, order := range [][]uint64{{1, set.MaxKey}, {set.MaxKey, 1}} {
		for _, k := range order {
			if v, ok := s.Find(p, k); ok {
				t.Fatalf("Find(%d) on an absent key = (%d,true)", k, v)
			}
			if !s.Insert(p, k, k^7) {
				t.Fatalf("Insert(%d) of an absent key failed", k)
			}
			if s.Insert(p, k, 0) {
				t.Fatalf("second Insert(%d) succeeded", k)
			}
			if v, ok := s.Find(p, k); !ok || v != k^7 {
				t.Fatalf("Find(%d) = (%d,%v), want (%d,true)", k, v, ok, k^7)
			}
		}
		for _, k := range order {
			if !s.Delete(p, k) {
				t.Fatalf("Delete(%d) of a present key failed", k)
			}
			if s.Delete(p, k) {
				t.Fatalf("second Delete(%d) succeeded", k)
			}
			if _, ok := s.Find(p, k); ok {
				t.Fatalf("Find(%d) after Delete reports present", k)
			}
		}
	}
}

// nodeGrowth drives dense byte-level fanout so radix structures walk the
// whole node-kind ladder (ART: Node4 -> Node16 -> Node48 -> Node256 on
// the way up, and back down on deletion) while readers race the
// transitions. Keys are branch<<56 | j, so each distinct top byte is a
// distinct child of the root node; workers own disjoint branch sets,
// making the final state exactly predictable. Non-radix structures just
// see a skewed key distribution, which is harmless.
func nodeGrowth(t *testing.T, f Factory, blocking bool) {
	s, rt := newSet(f, blocking)
	branches := 256
	if testing.Short() {
		branches = 72 // still crosses the 48->256 growth threshold
	}
	const workers = 4
	const perBranch = 3
	key := func(b, j int) uint64 { return uint64(b)<<56 | uint64(j) }

	// Phase 1: concurrent inserts across all branches, with a racing
	// reader sweeping the key space while nodes grow underneath it.
	done := make(chan struct{})
	var rwg sync.WaitGroup
	rwg.Add(1)
	go func() {
		defer rwg.Done()
		p := rt.Register()
		defer p.Unregister()
		for {
			select {
			case <-done:
				return
			default:
			}
			for b := 0; b < branches; b++ {
				if v, ok := s.Find(p, key(b, 1)); ok && v != key(b, 1)+1 {
					t.Errorf("reader: key %#x has value %#x", key(b, 1), v)
					return
				}
			}
		}
	}()
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			p := rt.Register()
			defer p.Unregister()
			for b := w; b < branches; b += workers {
				for j := 1; j <= perBranch; j++ {
					if !s.Insert(p, key(b, j), key(b, j)+1) {
						t.Errorf("w%d: Insert(%#x) failed", w, key(b, j))
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
	close(done)
	rwg.Wait()
	if t.Failed() {
		return
	}

	p := rt.Register()
	defer p.Unregister()
	for b := 0; b < branches; b++ {
		for j := 1; j <= perBranch; j++ {
			if v, ok := s.Find(p, key(b, j)); !ok || v != key(b, j)+1 {
				t.Fatalf("after growth: Find(%#x) = (%#x,%v)", key(b, j), v, ok)
			}
		}
	}

	// Phase 2: concurrent deletes of all but two branches walk the
	// shrink ladder back down (256 -> 48 -> 16 -> 4).
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			p := rt.Register()
			defer p.Unregister()
			for b := w; b < branches; b += workers {
				if b < 2 {
					continue // survivors
				}
				for j := 1; j <= perBranch; j++ {
					if !s.Delete(p, key(b, j)) {
						t.Errorf("w%d: Delete(%#x) failed", w, key(b, j))
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
	if t.Failed() {
		return
	}
	for b := 0; b < branches; b++ {
		for j := 1; j <= perBranch; j++ {
			v, ok := s.Find(p, key(b, j))
			if b < 2 {
				if !ok || v != key(b, j)+1 {
					t.Fatalf("survivor Find(%#x) = (%#x,%v)", key(b, j), v, ok)
				}
			} else if ok {
				t.Fatalf("deleted key %#x still present", key(b, j))
			}
		}
	}
	// The shrunken structure still accepts writes.
	if !s.Insert(p, key(9, 1), 77) {
		t.Fatalf("post-shrink insert failed")
	}
	if !s.Delete(p, key(9, 1)) {
		t.Fatalf("post-shrink delete failed")
	}
}

// oversubscribed runs many more workers than GOMAXPROCS through a mixed
// workload; in lock-free mode preempted critical sections get helped. The
// assertion is the same set-algebra check as contendedStress.
func oversubscribed(t *testing.T, f Factory, blocking bool) {
	s, rt := newSet(f, blocking)
	const workers = 24
	const keys = 32
	const opsPer = 400

	type tally struct{ ins, del [keys + 1]int64 }
	tallies := make([]tally, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			p := rt.Register()
			defer p.Unregister()
			rng := rand.New(rand.NewSource(int64(w)*977 + 3))
			for i := 0; i < opsPer; i++ {
				k := uint64(rng.Intn(keys) + 1)
				if rng.Intn(2) == 0 {
					if s.Insert(p, k, uint64(w+1)) {
						tallies[w].ins[k]++
					}
				} else {
					if s.Delete(p, k) {
						tallies[w].del[k]++
					}
				}
			}
		}(w)
	}
	wg.Wait()

	p := rt.Register()
	defer p.Unregister()
	for k := uint64(1); k <= keys; k++ {
		var ins, del int64
		for w := 0; w < workers; w++ {
			ins += tallies[w].ins[k]
			del += tallies[w].del[k]
		}
		_, present := s.Find(p, k)
		diff := ins - del
		if diff != 0 && diff != 1 {
			t.Fatalf("key %d: ins=%d del=%d", k, ins, del)
		}
		if (diff == 1) != present {
			t.Fatalf("key %d: diff=%d present=%v", k, diff, present)
		}
	}
}
