package leaftree

import (
	"math"
	"math/rand"
	"sort"
	"sync"
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
