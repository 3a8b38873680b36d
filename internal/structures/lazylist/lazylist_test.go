package lazylist

import (
	"testing"

	flock "flock/internal/core"
	"flock/internal/structures/set"
	"flock/internal/structures/settest"
)

func factory(rt *flock.Runtime) set.Set { return New(rt) }

func TestSuite(t *testing.T) { settest.RunComposable(t, factory) }

func TestEmptyList(t *testing.T) {
	rt := flock.New()
	p := rt.Register()
	defer p.Unregister()
	l := New(rt)
	if _, ok := l.Find(p, 5); ok {
		t.Fatalf("empty list finds key")
	}
	if l.Delete(p, 5) {
		t.Fatalf("empty list deletes key")
	}
	if len(l.Keys(p)) != 0 {
		t.Fatalf("empty list has keys")
	}
}

func TestSortedOrderMaintained(t *testing.T) {
	rt := flock.New()
	p := rt.Register()
	defer p.Unregister()
	l := New(rt)
	for _, k := range []uint64{5, 1, 9, 3, 7, 2, 8, 4, 6} {
		if !l.Insert(p, k, k*10) {
			t.Fatalf("insert %d failed", k)
		}
	}
	keys := l.Keys(p)
	for i := 1; i < len(keys); i++ {
		if keys[i] <= keys[i-1] {
			t.Fatalf("keys out of order: %v", keys)
		}
	}
	if err := l.CheckInvariants(p); err != nil {
		t.Fatal(err)
	}
	for _, k := range []uint64{1, 9, 5} {
		if v, ok := l.Find(p, k); !ok || v != k*10 {
			t.Fatalf("Find(%d) = (%d,%v)", k, v, ok)
		}
	}
}

func TestDuplicateInsertRejected(t *testing.T) {
	rt := flock.New()
	p := rt.Register()
	defer p.Unregister()
	l := New(rt)
	if !l.Insert(p, 7, 1) || l.Insert(p, 7, 2) {
		t.Fatalf("duplicate insert accepted")
	}
	if v, _ := l.Find(p, 7); v != 1 {
		t.Fatalf("duplicate insert overwrote value: %d", v)
	}
}

func TestDeleteThenReinsert(t *testing.T) {
	rt := flock.New()
	p := rt.Register()
	defer p.Unregister()
	l := New(rt)
	l.Insert(p, 3, 30)
	if !l.Delete(p, 3) {
		t.Fatalf("delete failed")
	}
	if _, ok := l.Find(p, 3); ok {
		t.Fatalf("key present after delete")
	}
	if !l.Insert(p, 3, 31) {
		t.Fatalf("reinsert failed")
	}
	if v, ok := l.Find(p, 3); !ok || v != 31 {
		t.Fatalf("reinserted value wrong: (%d,%v)", v, ok)
	}
}

func TestBoundaryKeys(t *testing.T) {
	rt := flock.New()
	p := rt.Register()
	defer p.Unregister()
	l := New(rt)
	const maxKey = ^uint64(0) - 1
	if !l.Insert(p, 1, 100) || !l.Insert(p, maxKey, 200) {
		t.Fatalf("boundary inserts failed")
	}
	if v, ok := l.Find(p, maxKey); !ok || v != 200 {
		t.Fatalf("max boundary find (%d,%v)", v, ok)
	}
	if !l.Delete(p, 1) || !l.Delete(p, maxKey) {
		t.Fatalf("boundary deletes failed")
	}
	if err := l.CheckInvariants(p); err != nil {
		t.Fatal(err)
	}
}
