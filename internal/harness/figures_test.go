package harness

import (
	"math"
	"testing"
	"time"
)

func TestAtofAtoiParse(t *testing.T) {
	if atof("0.75") != 0.75 || atof("0") != 0 {
		t.Fatalf("atof misparses valid spec values")
	}
	if atoi("216") != 216 || atoi("0") != 0 {
		t.Fatalf("atoi misparses valid spec values")
	}
}

// The spec tables are compile-time data: malformed x values are
// programming errors and must panic instead of silently reading as 0
// (a zero thread count or alpha would quietly distort a whole figure).
func TestAtofPanicsOnMalformed(t *testing.T) {
	for _, bad := range []string{"", "abc", "1.2.3", "0.75x"} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("atof(%q) did not panic", bad)
				}
			}()
			atof(bad)
		}()
	}
}

func TestAtoiPanicsOnMalformed(t *testing.T) {
	for _, bad := range []string{"", "abc", "3.5", "12 "} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("atoi(%q) did not panic", bad)
				}
			}()
			atoi(bad)
		}()
	}
}

// TestYCSBFigureSeriesShards pins the series/shard wiring of the KV
// figures: the unsharded control really runs one shard and the others
// take the Scale default; the shard sweep takes its count from x.
func TestYCSBFigureSeriesShards(t *testing.T) {
	sc := DefaultScale()
	figs := Figures()
	fa, ok := figs["ext-ycsb-a"]
	if !ok {
		t.Fatal("ext-ycsb-a missing")
	}
	for _, s := range fa.Series {
		spec := fa.SpecFor(sc, s, "4")
		if spec.YCSB != "a" || spec.Threads != 4 {
			t.Fatalf("series %s: bad spec %+v", s.Name, spec)
		}
		wantShards := sc.Shards
		if s.Shards != 0 {
			wantShards = s.Shards
		}
		if spec.Shards != wantShards {
			t.Fatalf("series %s: shards %d, want %d", s.Name, spec.Shards, wantShards)
		}
	}
	control := false
	for _, s := range fa.Series {
		if s.Shards == 1 {
			control = true
		}
	}
	if !control {
		t.Fatal("ext-ycsb-a has no unsharded control series")
	}

	fs, ok := figs["ext-ycsb-shards"]
	if !ok {
		t.Fatal("ext-ycsb-shards missing")
	}
	for _, x := range fs.Xs(sc) {
		spec := fs.SpecFor(sc, fs.Series[0], x)
		if spec.Shards != atoi(x) {
			t.Fatalf("shard sweep x=%s built %d shards", x, spec.Shards)
		}
		if spec.Threads != sc.Over {
			t.Fatalf("shard sweep should run oversubscribed (%d), got %d", sc.Over, spec.Threads)
		}
	}
}

// TestExtAllocFigureWiring pins the allocation figure's spec: it has a
// lock-free and a blocking arm, each built runtime runs in its series'
// mode, and a measured point carries the allocs/op metric through
// Result and Point.
func TestExtAllocFigureWiring(t *testing.T) {
	sc := DefaultScale()
	figs := Figures()
	fa, ok := figs["ext-alloc"]
	if !ok {
		t.Fatal("ext-alloc missing")
	}
	var sawLockFree, sawBlocking bool
	for _, s := range fa.Series {
		spec := fa.SpecFor(sc, s, "10")
		if spec.Blocking != s.Blocking || spec.UpdatePct != 10 {
			t.Fatalf("series %s: bad spec %+v", s.Name, spec)
		}
		if rt := newRuntime(spec); rt.Blocking() != spec.Blocking {
			t.Fatalf("series %s: runtime blocking=%v with Blocking=%v", s.Name, rt.Blocking(), spec.Blocking)
		}
		if s.Blocking {
			sawBlocking = true
		} else {
			sawLockFree = true
		}
	}
	if !sawLockFree || !sawBlocking {
		t.Fatalf("ext-alloc must cover lock-free and blocking arms (got %v %v)", sawLockFree, sawBlocking)
	}

	spec := fa.SpecFor(sc, fa.Series[0], "10")
	spec.KeyRange = 256
	spec.Threads = 2
	spec.Duration = 5 * time.Millisecond
	res, err := RunTimed(spec)
	if err != nil {
		t.Fatal(err)
	}
	if res.Ops == 0 || math.IsNaN(res.AllocsPerOp) || res.AllocsPerOp < 0 {
		t.Fatalf("allocs/op not recorded: ops=%d allocs=%v", res.Ops, res.AllocsPerOp)
	}
	st, err := RunStats(spec, 0, 2)
	if err != nil {
		t.Fatal(err)
	}
	if math.IsNaN(st.AllocsPerOp) || st.AllocsPerOp < 0 {
		t.Fatalf("Point.AllocsPerOp not aggregated: %v", st.AllocsPerOp)
	}
}
