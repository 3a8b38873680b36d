package bench

import (
	"math"
	"testing"
	"time"

	"flock/internal/harness"
)

// TestFigureSpecsSmoke runs one tiny measurement per (figure, series)
// point so that regressions in the figure spec tables — a series naming
// an unregistered structure, an Xs function yielding nothing, a SpecFor
// building an unrunnable spec — fail `go test ./...` instead of only
// surfacing under -bench, where nothing runs them in CI.
func TestFigureSpecsSmoke(t *testing.T) {
	sc := harness.DefaultScale()
	// Shrink everything: correctness of the plumbing is the target, not
	// meaningful throughput numbers. LargeKeys stays at 1000 so fig5h's
	// size sweep (which starts at 1000) is non-empty.
	sc.LargeKeys = 1000
	sc.SmallKeys = 200
	sc.ListKeys = 50
	sc.Duration = 2 * time.Millisecond
	sc.Warmup = 0
	sc.Repeats = 1
	sc.Threads = []int{2}
	sc.Base = 2
	sc.Over = 4
	sc.Shards = 2

	figs := harness.Figures()
	if len(figs) == 0 {
		t.Fatal("no figure specs registered")
	}
	for _, id := range harness.FigureIDs() {
		fs := figs[id]
		xs := fs.Xs(sc)
		if len(xs) == 0 {
			t.Errorf("%s: empty x axis", id)
			continue
		}
		x := xs[0]
		for _, s := range fs.Series {
			spec := fs.SpecFor(sc, s, x)
			res, err := harness.RunTimed(spec)
			if err == nil && res.Ops == 0 {
				// A 2 ms window can pass with every worker descheduled
				// on a loaded machine; a point that still completes
				// nothing in a 20x longer window is broken.
				spec.Duration *= 20
				res, err = harness.RunTimed(spec)
			}
			if err != nil {
				t.Errorf("%s series %s at x=%s: %v", id, s.Name, x, err)
				continue
			}
			if res.Ops == 0 {
				t.Errorf("%s series %s at x=%s: zero ops", id, s.Name, x)
			}
			// Every path (set mix and KV/YCSB alike) must report
			// per-op latency: one sample per completed operation.
			if res.Hist.Count() != res.Ops {
				t.Errorf("%s series %s at x=%s: %d ops but %d latency samples",
					id, s.Name, x, res.Ops, res.Hist.Count())
			}
			// The allocation metric must be populated (the latency
			// histogram itself allocates nothing inside the window, so
			// a NaN/zero-ops hole here means the MemStats bracketing
			// regressed). The ≥2x pooled-vs-fresh property is pinned
			// precisely by internal/core's AllocsPerRun tests; runs
			// here are too short to assert ratios stably.
			if id == "ext-alloc" && (math.IsNaN(res.AllocsPerOp) || res.AllocsPerOp < 0) {
				t.Errorf("%s series %s at x=%s: bad allocs/op %v",
					id, s.Name, x, res.AllocsPerOp)
			}
			// The ext-snap "+snap" arms must report snapshot-loop
			// progress: the loop completes at least one whole-store
			// iteration even on the shortest window, so zero cycles
			// means the background loop or its plumbing regressed.
			if id == "ext-snap" && s.SnapshotLoop && res.SnapCycles < 1 {
				t.Errorf("%s series %s at x=%s: snapshot loop reported %d cycles, want >= 1",
					id, s.Name, x, res.SnapCycles)
			}
		}
	}
}
