package leaftree

import (
	"math"
	"math/rand"
	"sort"
	"sync"
	"sync/atomic"
	"testing"

	flock "flock/internal/core"
	"flock/internal/structures/set"
	"flock/internal/structures/settest"
)

func factory(rt *flock.Runtime) set.Set { return New(rt) }

func TestSuite(t *testing.T) { settest.Run(t, factory) }

func TestSortedTraversal(t *testing.T) {
	rt := flock.New()
	p := rt.Register()
	defer p.Unregister()
	tr := New(rt)
	ks := []uint64{50, 20, 80, 10, 30, 70, 90, 25, 35}
	for _, k := range ks {
		if !tr.Insert(p, k, k*2) {
			t.Fatalf("insert %d", k)
		}
	}
	got := tr.Keys(p)
	want := append([]uint64(nil), ks...)
	sort.Slice(want, func(i, j int) bool { return want[i] < want[j] })
	if len(got) != len(want) {
		t.Fatalf("keys = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("keys = %v, want %v", got, want)
		}
	}
	if err := tr.CheckInvariants(p); err != nil {
		t.Fatal(err)
	}
}

func TestDeleteToEmptyAndRebuild(t *testing.T) {
	rt := flock.New()
	p := rt.Register()
	defer p.Unregister()
	tr := New(rt)
	for k := uint64(1); k <= 20; k++ {
		tr.Insert(p, k, k)
	}
	for k := uint64(1); k <= 20; k++ {
		if !tr.Delete(p, k) {
			t.Fatalf("delete %d", k)
		}
	}
	if n := len(tr.Keys(p)); n != 0 {
		t.Fatalf("tree not empty: %d keys", n)
	}
	if err := tr.CheckInvariants(p); err != nil {
		t.Fatal(err)
	}
	// Sentinel structure must still support inserts.
	for k := uint64(1); k <= 20; k++ {
		if !tr.Insert(p, k, k+1) {
			t.Fatalf("reinsert %d", k)
		}
	}
	if err := tr.CheckInvariants(p); err != nil {
		t.Fatal(err)
	}
}

func TestAscendingInsertDegenerates(t *testing.T) {
	// Unbalanced tree: ascending inserts make a right spine. Checks the
	// structure stays correct (if pathological) — the balanced variants
	// exist for the performance side.
	rt := flock.New()
	p := rt.Register()
	defer p.Unregister()
	tr := New(rt)
	const n = 200
	for k := uint64(1); k <= n; k++ {
		tr.Insert(p, k, k)
	}
	if h := tr.Height(p); h < n/2 {
		t.Logf("height %d for %d ascending inserts (expected linear-ish)", h, n)
	}
	if err := tr.CheckInvariants(p); err != nil {
		t.Fatal(err)
	}
	for k := uint64(1); k <= n; k++ {
		if v, ok := tr.Find(p, k); !ok || v != k {
			t.Fatalf("Find(%d) = (%d,%v)", k, v, ok)
		}
	}
}

func TestStructuralIntegrityUnderContention(t *testing.T) {
	for _, mode := range settest.Modes {
		t.Run(mode.Name, func(t *testing.T) {
			rt := flock.New()
			rt.SetBlocking(mode.Blocking)
			tr := New(rt)
			const workers = 8
			var wg sync.WaitGroup
			for w := 0; w < workers; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					p := rt.Register()
					defer p.Unregister()
					rng := rand.New(rand.NewSource(int64(w)*71 + 2))
					for i := 0; i < 1500; i++ {
						k := uint64(rng.Intn(24) + 1)
						switch rng.Intn(3) {
						case 0:
							tr.Insert(p, k, k)
						case 1:
							tr.Delete(p, k)
						default:
							tr.Find(p, k)
						}
					}
				}(w)
			}
			wg.Wait()
			p := rt.Register()
			defer p.Unregister()
			if err := tr.CheckInvariants(p); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestScanThroughSplicedOutParent replays a scan that loaded a parent
// just before a delete spliced it out: the parent's sibling subtree
// then covers the parent's wider interval and takes a newer leaf for a
// key the walk already passed. The walk must report each key once, in
// ascending order.
func TestScanThroughSplicedOutParent(t *testing.T) {
	rt := flock.New()
	p := rt.Register()
	defer p.Unregister()
	tr := New(rt)
	for _, k := range []uint64{3, 1, 5} {
		tr.Insert(p, k, k)
	}
	_, pp, leaf := tr.search(p, 1) // pp = {3: leaf 1, {5: leaf 3, leaf 5}}
	if pp.k != 3 || leaf.k != 1 {
		t.Fatalf("unexpected shape: parent %d, leaf %d", pp.k, leaf.k)
	}
	tr.Delete(p, 1)      // splices pp out: its sibling takes its place
	tr.Insert(p, 1, 100) // lands in that sibling, below 3
	// The scan's view: it loaded pp before the delete.
	view := New(rt)
	view.root.left.Init(pp)
	got := view.Scan(p, 0, math.MaxUint64, -1)
	want := []set.KV{{Key: 1, Value: 1}, {Key: 3, Value: 3}, {Key: 5, Value: 5}}
	if len(got) != len(want) {
		t.Fatalf("scan through spliced-out parent = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("scan through spliced-out parent = %v, want %v", got, want)
		}
	}
}

// TestLocatedStalePositions locates a key, moves the tree on, and then
// runs FindAt and UpsertAt from the stale position inside a thunk: each
// must return what Find and Upsert return on the tree as it now is. The
// tree starts as {30: leaf 20, leaf 30}, so 20 and 25 are located under
// the router 30. The two splice cases leave the router's child pointer
// at leaf 20 (a removed node is frozen), so only the removed check can
// tell the position is stale.
func TestLocatedStalePositions(t *testing.T) {
	cases := []struct {
		name string
		k    uint64 // the key located and then read and upserted
		move func(tr *Tree, p *flock.Proc)
	}{
		{"still valid", 20, func(tr *Tree, p *flock.Proc) { tr.Insert(p, 40, 40) }},
		{"leaf replaced", 20, func(tr *Tree, p *flock.Proc) {
			tr.Upsert(p, 20, func(uint64, bool) uint64 { return 200 })
		}},
		{"neighbour inserted", 20, func(tr *Tree, p *flock.Proc) { tr.Insert(p, 22, 22) }},
		{"absent key, neighbour inserted", 25, func(tr *Tree, p *flock.Proc) { tr.Insert(p, 22, 22) }},
		{"parent spliced out, leaf moved up and replaced", 20, func(tr *Tree, p *flock.Proc) {
			tr.Delete(p, 30)
			tr.Upsert(p, 20, func(uint64, bool) uint64 { return 200 })
		}},
		{"parent spliced out, key deleted", 20, func(tr *Tree, p *flock.Proc) { tr.Delete(p, 20) }},
		{"absent key, parent spliced out, key inserted", 25, func(tr *Tree, p *flock.Proc) {
			tr.Delete(p, 30)
			tr.Insert(p, 25, 250)
		}},
	}
	for _, blocking := range []bool{false, true} {
		for _, tc := range cases {
			rt := flock.New()
			rt.SetBlocking(blocking)
			p := rt.Register()
			tr := New(rt)
			tr.Insert(p, 20, 20)
			tr.Insert(p, 30, 30)
			at := tr.Locate(p, tc.k)
			if pp := at.Parent.(*node); pp.k != 30 {
				t.Fatalf("%s: located under router %d, want 30", tc.name, pp.k)
			}
			tc.move(tr, p)
			var l flock.Lock
			inThunk := func(f func(hp *flock.Proc)) {
				l.TryLock(p, func(hp *flock.Proc) bool { f(hp); return true })
			}

			wantV, wantOK := tr.Find(p, tc.k)
			var v uint64
			var ok bool
			inThunk(func(hp *flock.Proc) { v, ok = tr.FindAt(hp, at, tc.k) })
			if v != wantV || ok != wantOK {
				t.Errorf("blocking=%v %s: FindAt = (%d,%v), Find = (%d,%v)", blocking, tc.name, v, ok, wantV, wantOK)
			}
			inThunk(func(hp *flock.Proc) { v, ok = tr.UpsertAt(hp, at, tc.k, 999) })
			if v != wantV || ok != wantOK {
				t.Errorf("blocking=%v %s: UpsertAt = (%d,%v), want Upsert's (%d,%v)", blocking, tc.name, v, ok, wantV, wantOK)
			}
			if v, ok := tr.Find(p, tc.k); !ok || v != 999 {
				t.Errorf("blocking=%v %s: after UpsertAt Find = (%d,%v), want (999,true)", blocking, tc.name, v, ok)
			}
			if err := tr.CheckInvariants(p); err != nil {
				t.Errorf("blocking=%v %s: %v", blocking, tc.name, err)
			}
			p.Unregister()
		}
	}
}

// TestLocateInsideThunkPanics pins Locate's top-level contract.
func TestLocateInsideThunkPanics(t *testing.T) {
	rt := flock.New()
	p := rt.Register()
	defer p.Unregister()
	tr := New(rt)
	var l flock.Lock
	defer func() {
		if recover() == nil {
			t.Fatal("Locate inside a thunk did not panic")
		}
	}()
	l.TryLock(p, func(hp *flock.Proc) bool { tr.Locate(hp, 1); return true })
}

// TestStragglerCannotReinsertDeletedKey replays a finished composed
// insert from a straggling helper after a delete has spliced the new
// router out again. The helper parks inside the composed body, the
// owner completes the insert of k under leaf L, a delete of k promotes
// k's sibling into the parent's child field, and only then does the
// helper run on: its replay commits the owner's loads, so it validates
// against L and attempts the owner's CAS from L to the new router. The
// child fields are box-free Links (node identity is the ABA tag), so
// that CAS must find a node other than L there: the insert copies L
// under the new router, and the sibling the delete promotes is the copy.
func TestStragglerCannotReinsertDeletedKey(t *testing.T) {
	rt := flock.New()
	tr := New(rt)
	setup := rt.Register()
	for _, k := range []uint64{10, 30} {
		tr.Insert(setup, k, k)
	}
	setup.Unregister()
	const k = 20 // lands next to leaf 10, under router 30

	ownerIn, helperIn := make(chan struct{}), make(chan struct{})
	ownerGo, helperGo := make(chan struct{}), make(chan struct{})
	var runs atomic.Int32
	body := func(hp *flock.Proc) bool {
		switch runs.Add(1) {
		case 1:
			close(ownerIn)
			<-ownerGo
		case 2:
			close(helperIn)
			<-helperGo
		}
		return tr.Insert(hp, k, k)
	}

	var outer flock.Lock
	ownerDone := make(chan bool)
	go func() {
		p := rt.Register()
		defer p.Unregister()
		ownerDone <- outer.TryLock(p, body)
	}()
	<-ownerIn
	helperDone := make(chan struct{})
	go func() {
		p := rt.Register()
		defer p.Unregister()
		outer.TryLock(p, func(*flock.Proc) bool { return true }) // finds outer held and helps
		close(helperDone)
	}()
	<-helperIn
	close(ownerGo)
	if !<-ownerDone {
		t.Fatal("owner's composed insert did not commit")
	}

	p := rt.Register()
	defer p.Unregister()
	if !tr.Delete(p, k) {
		t.Fatal("delete of the inserted key failed")
	}
	close(helperGo)
	<-helperDone
	if runs.Load() != 2 {
		t.Fatalf("composed body ran %d times, want 2 (owner and straggler)", runs.Load())
	}
	if v, ok := tr.Find(p, k); ok {
		t.Fatalf("straggler replay re-inserted deleted key %d (value %d)", k, v)
	}
	if got := tr.Keys(p); len(got) != 2 || got[0] != 10 || got[1] != 30 {
		t.Fatalf("keys after straggler replay = %v, want [10 30]", got)
	}
	if err := tr.CheckInvariants(p); err != nil {
		t.Fatal(err)
	}
}

// TestAllocsUpsertPresentKey pins the box-free child store: an Upsert of
// a present key allocates its new leaf and the replace section's
// closure, and the lock-free machinery adds only pooled objects. With
// NoPool every pooled object is a fresh allocation, so the count lists
// all of them: the descriptor and the locked lock-word box, and no box
// for the child pointer the store swings.
func TestAllocsUpsertPresentKey(t *testing.T) {
	for _, tc := range []struct {
		name string
		opts []flock.Option
		max  float64
	}{
		{"pooled", nil, 2},
		{"NoPool", []flock.Option{flock.NoPool()}, 4},
	} {
		rt := flock.New(tc.opts...)
		p := rt.Register()
		tr := New(rt)
		for k := uint64(1); k <= 64; k++ {
			tr.Insert(p, k, k)
		}
		f := func(old uint64, _ bool) uint64 { return old + 1 }
		op := func() { tr.Upsert(p, 17, f) }
		for i := 0; i < 2000; i++ {
			op()
		}
		if got := testing.AllocsPerRun(500, op); got > tc.max {
			t.Errorf("%s: Upsert of a present key allocates %v per op, want <= %v", tc.name, got, tc.max)
		}
		if v, ok := tr.Find(p, 17); !ok || v != 17+2000+501 {
			t.Errorf("%s: Find(17) = (%d,%v) after the upserts", tc.name, v, ok)
		}
		p.Unregister()
	}
}
