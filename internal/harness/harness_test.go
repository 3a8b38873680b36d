package harness

import (
	"testing"
	"time"

	"flock/internal/kv"
)

// TestEveryStructureRunsBothModes is the cross-cutting integration test:
// every registered structure survives a short mixed workload in both lock
// modes and reports sane numbers.
func TestEveryStructureRunsBothModes(t *testing.T) {
	if testing.Short() {
		t.Skip("covers all structures; slow under -race -short")
	}
	for _, name := range Structures() {
		for _, blocking := range []bool{false, true} {
			spec := Spec{
				Structure: name,
				Blocking:  blocking,
				Threads:   8,
				KeyRange:  512,
				UpdatePct: 50,
				Alpha:     0.9,
				HashKeys:  name == "arttree" || name == "olcart",
				Duration:  30 * time.Millisecond,
				Seed:      7,
			}
			res, err := RunTimed(spec)
			if err != nil {
				t.Fatalf("%s blocking=%v: %v", name, blocking, err)
			}
			if res.Ops == 0 {
				t.Fatalf("%s blocking=%v: zero ops completed", name, blocking)
			}
			if res.Mops <= 0 {
				t.Fatalf("%s blocking=%v: nonpositive Mops", name, blocking)
			}
		}
	}
}

func TestUnknownStructureRejected(t *testing.T) {
	_, err := RunTimed(Spec{Structure: "btree9000", Threads: 1, KeyRange: 8, Duration: time.Millisecond})
	if err == nil {
		t.Fatalf("unknown structure accepted")
	}
	_, err = RunTimed(Spec{Structure: "btree9000", Threads: 1, KeyRange: 8,
		Duration: time.Millisecond, YCSB: "a", Shards: 2})
	if err == nil {
		t.Fatalf("unknown structure accepted on the KV path")
	}
}

func TestUnknownYCSBWorkloadRejected(t *testing.T) {
	_, err := RunTimed(Spec{Structure: "leaftree", Threads: 1, KeyRange: 8,
		Duration: time.Millisecond, YCSB: "zz", Shards: 2})
	if err == nil {
		t.Fatalf("unknown YCSB workload accepted")
	}
}

// TestYCSBKVPath runs a tiny YCSB point end to end: ops complete, the
// latency histogram is populated, and percentiles are ordered.
func TestYCSBKVPath(t *testing.T) {
	for _, ycsb := range []string{"a", "b", "c", "e", "f"} {
		spec := Spec{
			Structure: "leaftree", Threads: 4, KeyRange: 256, Alpha: 0.99,
			Duration: 20 * time.Millisecond, Seed: 5, YCSB: ycsb, Shards: 4,
			ScanLen: 8,
		}
		res, err := RunTimed(spec)
		if err != nil {
			t.Fatalf("ycsb-%s: %v", ycsb, err)
		}
		if res.Ops == 0 {
			t.Fatalf("ycsb-%s: zero ops", ycsb)
		}
		if res.Hist.Count() != res.Ops {
			t.Fatalf("ycsb-%s: %d ops but %d latency samples", ycsb, res.Ops, res.Hist.Count())
		}
		p50, p95, p99 := res.P50(), res.P95(), res.P99()
		if p50 <= 0 || p50 > p95 || p95 > p99 {
			t.Fatalf("ycsb-%s: disordered percentiles p50=%v p95=%v p99=%v", ycsb, p50, p95, p99)
		}
	}
}

// TestScanWorkloadNeedsOrderedStructure: YCSB-E over a structure
// without set.Scanner must be refused up front with an explanatory
// error, not panic mid-run. (The hashtable no longer serves as the
// refusal case: it scans via a sorted bucket sweep now.)
func TestScanWorkloadNeedsOrderedStructure(t *testing.T) {
	_, _, err := build(Spec{Structure: "arttree", Threads: 1, KeyRange: 64,
		Duration: time.Millisecond, YCSB: "e", Shards: 2})
	if err == nil {
		t.Fatalf("scan-bearing mix over a scanless structure accepted")
	}
	// The scannable structures (and olcart, the baseline arm) must pass
	// the same gate.
	for _, s := range []string{"leaftree", "abtree", "hashtable", "olcart"} {
		if _, _, err := build(Spec{Structure: s, Threads: 1, KeyRange: 64,
			Duration: time.Millisecond, YCSB: "e", Shards: 2}); err != nil {
			t.Fatalf("%s refused for YCSB-E: %v", s, err)
		}
	}
}

// TestSetPathRecordsLatency checks the paper-mix path fills histograms
// too (every figure now reports percentiles).
func TestSetPathRecordsLatency(t *testing.T) {
	spec := Spec{Structure: "hashtable", Threads: 2, KeyRange: 128,
		UpdatePct: 50, Duration: 15 * time.Millisecond, Seed: 2}
	res, err := RunTimed(spec)
	if err != nil {
		t.Fatal(err)
	}
	if res.Hist.Count() != res.Ops || res.P50() <= 0 {
		t.Fatalf("set path: ops=%d samples=%d p50=%v", res.Ops, res.Hist.Count(), res.P50())
	}
}

// TestKVPrefillHalfFull mirrors TestPrefillHalfFull on the KV path.
func TestKVPrefillHalfFull(t *testing.T) {
	spec := Spec{Structure: "leaftree", KeyRange: 4096, Threads: 1,
		Duration: time.Millisecond, YCSB: "a", Shards: 4}
	st := kv.New(kv.Factory(registry[spec.Structure]), kv.Options{Shards: spec.Shards, KeyRange: spec.KeyRange})
	prefill(spec, func() (func(k uint64), func()) {
		c := st.Register()
		return func(k uint64) { c.Put(k, k) }, c.Close
	})
	c := st.Register()
	defer c.Close()
	n := 0
	for k := uint64(1); k <= spec.KeyRange; k++ {
		if _, ok := c.Get(k); ok {
			n++
		}
	}
	if n < 4096*45/100 || n > 4096*55/100 {
		t.Fatalf("KV prefill filled %d of 4096, want ~half", n)
	}
}

func TestPrefillHalfFull(t *testing.T) {
	spec := Spec{Structure: "leaftree", KeyRange: 4096, Threads: 1, Duration: time.Millisecond}
	rt := newRuntime(spec)
	s := registry[spec.Structure](rt, spec.KeyRange)
	prefill(spec, func() (func(k uint64), func()) {
		p := rt.Register()
		return func(k uint64) { s.Insert(p, k, k) }, p.Unregister
	})
	p := rt.Register()
	defer p.Unregister()
	n := 0
	for k := uint64(1); k <= spec.KeyRange; k++ {
		if _, ok := s.Find(p, k); ok {
			n++
		}
	}
	if n < 4096*45/100 || n > 4096*55/100 {
		t.Fatalf("prefill filled %d of 4096, want ~half", n)
	}
}

func TestRunAveragedStats(t *testing.T) {
	spec := Spec{
		Structure: "hashtable", Threads: 4, KeyRange: 256,
		UpdatePct: 20, Alpha: 0, Duration: 20 * time.Millisecond, Seed: 1,
	}
	pt, err := RunStats(spec, 1, 3)
	if err != nil {
		t.Fatal(err)
	}
	if pt.Mops <= 0 {
		t.Fatalf("mean %v", pt.Mops)
	}
	if pt.Std < 0 {
		t.Fatalf("negative std %v", pt.Std)
	}
}

// TestRunTimedTxn measures a miniature transactional point in every
// arm (lock-free, blocking, non-atomic): the full driver path — store
// build, prefill, mix, composed multi-key operations, latency samples.
func TestRunTimedTxn(t *testing.T) {
	for _, arm := range []struct {
		name      string
		blocking  bool
		nonatomic bool
	}{{"lockfree", false, false}, {"blocking", true, false}, {"nonatomic", false, true}} {
		arm := arm
		t.Run(arm.name, func(t *testing.T) {
			res, err := RunTimed(Spec{
				Structure: "leaftree", Blocking: arm.blocking, TxnNonAtomic: arm.nonatomic,
				Threads: 3, KeyRange: 256, Alpha: 0.75, Duration: 15 * time.Millisecond,
				Seed: 7, TxnMix: "transfer", TxnSize: 2, Shards: 2,
			})
			if err != nil {
				t.Fatal(err)
			}
			if res.Ops == 0 {
				t.Fatal("zero transactions completed")
			}
			if res.Hist.Count() != res.Ops {
				t.Fatalf("%d ops but %d latency samples", res.Ops, res.Hist.Count())
			}
		})
	}
	if _, err := RunTimed(Spec{
		Structure: "leaftree", Threads: 1, KeyRange: 64, Duration: time.Millisecond,
		TxnMix: "nope", Shards: 1,
	}); err == nil {
		t.Fatal("unknown txn mix accepted")
	}
	// Structures whose operations are not simply-nested flock thunks
	// (baselines, strict-lock variants) must be refused: replaying them
	// inside a composed transaction would silently break atomicity.
	for _, s := range []string{"olcart", "natarajan", "leaftree-strict"} {
		if _, _, err := build(Spec{
			Structure: s, Threads: 1, KeyRange: 64, Duration: time.Millisecond,
			TxnMix: "transfer", TxnSize: 2, Shards: 1,
		}); err == nil {
			t.Fatalf("txn layer over %s accepted; it cannot be made atomic", s)
		}
	}
}

// TestOptimisticSpecWiring pins the harness's optimistic-read plumbing:
// RunStats exports the store's restart counter, which reads zero on the
// KV path — a plain store's reads validate nothing, so a nonzero value
// there would mean the before/after delta sampling is broken — and the
// scan-bearing KV mix and the txn path, whose reads are validated, run
// end to end through the builder.
func TestOptimisticSpecWiring(t *testing.T) {
	st, err := RunStats(Spec{
		Structure: "leaftree", Threads: 4, KeyRange: 256, Alpha: 0.99,
		Duration: 15 * time.Millisecond, Seed: 9, YCSB: "a", Shards: 2,
	}, 0, 2)
	if err != nil {
		t.Fatal(err)
	}
	if st.Mops <= 0 {
		t.Fatalf("YCSB-A measured %v Mop/s", st.Mops)
	}
	if st.OptRestarts != 0 {
		t.Fatalf("plain KV run counted %d restarts, want 0", st.OptRestarts)
	}
	for _, spec := range []Spec{
		{Structure: "leaftree", Threads: 2, KeyRange: 128, Alpha: 0.99,
			Duration: 10 * time.Millisecond, Seed: 9, YCSB: "e", ScanLen: 8, Shards: 2},
		{Structure: "leaftree", Threads: 2, KeyRange: 128, Alpha: 0.75,
			Duration: 10 * time.Millisecond, Seed: 9, TxnMix: "transfer", TxnSize: 2, Shards: 2},
	} {
		res, err := RunTimed(spec)
		if err != nil {
			t.Fatalf("spec %+v: %v", spec, err)
		}
		if res.Ops == 0 || res.Hist.Count() != res.Ops {
			t.Fatalf("spec ops=%d samples=%d", res.Ops, res.Hist.Count())
		}
	}
}

// TestSnapshotLoopReported pins the ext-snap plumbing: a SnapshotLoop
// spec reports the background loop's progress (at least one completed
// whole-store cycle, even on a tiny window), and requesting the loop
// over a structure without ordered scans is refused up front.
func TestSnapshotLoopReported(t *testing.T) {
	res, err := RunTimed(Spec{Structure: "leaftree", Threads: 2, KeyRange: 256,
		Alpha: 0.75, Duration: 5 * time.Millisecond, Seed: 7,
		TxnMix: "transfer", TxnSize: 2, Shards: 2, SnapshotLoop: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.SnapCycles < 1 || res.SnapKeys == 0 {
		t.Fatalf("snapshot loop reported %d cycles / %d keys, want >= 1 cycle", res.SnapCycles, res.SnapKeys)
	}
	if res.Ops == 0 {
		t.Fatal("foreground workload made no progress under the snapshot loop")
	}
	if _, err := RunTimed(Spec{Structure: "arttree", Threads: 1, KeyRange: 64,
		Duration: time.Millisecond, TxnMix: "transfer", TxnSize: 2, Shards: 2,
		SnapshotLoop: true}); err == nil {
		t.Fatal("snapshot loop over a scanless structure not refused")
	}
}

func TestFigureIndexComplete(t *testing.T) {
	figs := Figures()
	want := []string{"fig4", "fig5a", "fig5b", "fig5c", "fig5d", "fig5e",
		"fig5f", "fig5g", "fig5h", "fig6a", "fig6b", "fig7a", "fig7b", "ext-stall",
		"ext-alloc", "ext-help", "ext-snap", "ext-txn", "ext-txn-keys", "ext-ycsb-a",
		"ext-ycsb-b", "ext-ycsb-c", "ext-ycsb-e", "ext-ycsb-f", "ext-ycsb-shards"}
	if len(figs) != len(want) {
		t.Fatalf("%d figures, want %d", len(figs), len(want))
	}
	for _, id := range want {
		fs, ok := figs[id]
		if !ok {
			t.Fatalf("missing figure %s", id)
		}
		if fs.Paper == "" || fs.XLabel() == "" || len(fs.Series) == 0 {
			t.Fatalf("figure %s underspecified", id)
		}
		// Every series must reference a registered structure and every
		// x must produce a buildable spec.
		sc := DefaultScale()
		for _, x := range fs.Xs(sc) {
			for _, s := range fs.Series {
				spec := fs.SpecFor(sc, s, x)
				f, ok := registry[spec.Structure]
				if !ok {
					t.Fatalf("figure %s series %s x=%s: unknown structure %q", id, s.Name, x, spec.Structure)
				}
				f(newRuntime(spec), spec.KeyRange)
				if spec.Threads <= 0 || spec.KeyRange == 0 {
					t.Fatalf("figure %s series %s x=%s: bad spec %+v", id, s.Name, x, spec)
				}
			}
		}
	}
}

// TestRunFigureSmoke regenerates a miniature fig4 end to end.
func TestRunFigureSmoke(t *testing.T) {
	sc := DefaultScale()
	sc.SmallKeys = 128
	sc.Duration = 10 * time.Millisecond
	sc.Base = 4
	fig, err := RunFigure(Figures()["fig4"], sc)
	if err != nil {
		t.Fatal(err)
	}
	wantPoints := len(Figures()["fig4"].Series) * len(Figures()["fig4"].Xs(sc))
	if len(fig.Points) != wantPoints {
		t.Fatalf("%d points, want %d", len(fig.Points), wantPoints)
	}
	for _, pt := range fig.Points {
		if pt.Mops <= 0 {
			t.Fatalf("point %+v has nonpositive throughput", pt)
		}
	}
}

// TestOversubscriptionHeadline verifies the paper's core performance
// claim in its explicit form: when lock holders get descheduled inside
// critical sections (injected here; produced naturally by the OS on the
// paper's oversubscribed testbed), the lock-free mode far outperforms
// the blocking mode on the same structure, because helpers complete the
// stalled critical sections instead of stranding behind them.
func TestOversubscriptionHeadline(t *testing.T) {
	if testing.Short() {
		t.Skip("timing-sensitive comparison; skipped under -short")
	}
	mk := func(blocking bool) Spec {
		return Spec{
			Structure:  "leaftree",
			Blocking:   blocking,
			Threads:    24,
			KeyRange:   1024,
			UpdatePct:  50,
			Alpha:      0.75,
			Duration:   150 * time.Millisecond,
			Seed:       3,
			StallEvery: 200,
		}
	}
	mops := func(spec Spec) float64 {
		pt, err := RunStats(spec, 1, 3)
		if err != nil {
			t.Fatal(err)
		}
		return pt.Mops
	}
	lf, bl := mops(mk(false)), mops(mk(true))
	t.Logf("oversubscribed+stalls leaftree: lock-free %.3f Mops vs blocking %.3f Mops (%.1fx)", lf, bl, lf/bl)
	if lf <= bl {
		t.Fatalf("lock-free mode did not win under descheduling: %.3f vs %.3f Mops", lf, bl)
	}

	// Without injected stalls both modes must be in the same ballpark
	// (the paper's <=11%-overhead side of the story; on one core the
	// logging overhead is fully exposed, so allow up to 2.5x).
	noStall := mk(false)
	noStall.StallEvery = 0
	noStallBl := mk(true)
	noStallBl.StallEvery = 0
	lf2, bl2 := mops(noStall), mops(noStallBl)
	t.Logf("no-stall leaftree: lock-free %.3f vs blocking %.3f Mops (ratio %.2fx)", lf2, bl2, lf2/bl2)
	if lf2 < bl2/2.5 {
		t.Fatalf("lock-free overhead out of band: %.3f vs %.3f Mops", lf2, bl2)
	}
}
