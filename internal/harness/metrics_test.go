package harness

import (
	"encoding/json"
	"runtime"
	"sync"
	"testing"
	"time"

	"flock/internal/obs"
)

// TestMetricsWindowCollected pins the harness side of DESIGN.md S14: a
// Spec with Metrics on yields a window delta, a non-empty cumulative
// sample series, fairness numbers, and (for the lock-free mode) acquire
// counts that match the committed op count on a flat workload.
func TestMetricsWindowCollected(t *testing.T) {
	spec := Spec{
		Structure: "leaftree", Threads: 4, KeyRange: 512,
		UpdatePct: 50, Alpha: 0.9, Duration: 20 * time.Millisecond,
		Seed: 7, Metrics: true,
	}
	res, err := RunTimed(spec)
	if err != nil {
		t.Fatal(err)
	}
	if obs.Enabled() {
		t.Error("measure() leaked the obs flag enabled")
	}
	if res.Metrics == nil {
		t.Fatal("Metrics spec produced no metrics window")
	}
	w := res.Metrics.Window
	acq := w.Get(obs.AcquiresLF)
	if acq == 0 {
		t.Fatal("lock-free window recorded no acquisitions")
	}
	// Completion claims cover every committed descriptor — including
	// locks nested inside a structure operation — while AcquiresLF
	// counts top-level sections only, so claims must dominate acquires.
	// (The exact flat-workload conservation law is pinned by
	// internal/core's metrics tests.)
	if own, recv := w.Get(obs.OwnCompletions), w.Get(obs.HelpsReceived); own+recv < acq {
		t.Errorf("own(%d) + helped(%d) = %d claims < top-level acquires %d", own, recv, own+recv, acq)
	}
	if len(res.Metrics.Samples) == 0 {
		t.Fatal("no time-series samples collected")
	}
	// Samples are cumulative since the window start: monotone, ordered
	// in time, and the final sample is the closing delta.
	var lastT float64
	var lastH, lastC uint64
	for i, s := range res.Metrics.Samples {
		if s.AtMs < lastT {
			t.Fatalf("sample %d goes back in time: %v after %v", i, s.AtMs, lastT)
		}
		if s.Helps < lastH || s.CASFails < lastC {
			t.Fatalf("sample %d not cumulative: helps %d->%d cas %d->%d", i, lastH, s.Helps, lastC, s.CASFails)
		}
		lastT, lastH, lastC = s.AtMs, s.Helps, s.CASFails
	}
	final := res.Metrics.Samples[len(res.Metrics.Samples)-1]
	if final.Helps != w.Get(obs.HelpsGiven) {
		t.Errorf("final sample helps = %d, window = %d", final.Helps, w.Get(obs.HelpsGiven))
	}
	if res.FairMaxMin < 1 {
		t.Errorf("fairness max/min = %v, must be >= 1", res.FairMaxMin)
	}
	if res.FairCoV < 0 {
		t.Errorf("fairness CoV = %v, must be >= 0", res.FairCoV)
	}
}

// TestMetricsOffCollectsNothing: without Spec.Metrics the result must
// carry no window (and fairness still works — it needs no obs counters).
func TestMetricsOffCollectsNothing(t *testing.T) {
	res, err := RunTimed(Spec{
		Structure: "leaftree", Threads: 2, KeyRange: 128,
		UpdatePct: 50, Alpha: 0.9, Duration: 5 * time.Millisecond, Seed: 7,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Metrics != nil {
		t.Fatal("metrics window collected without Spec.Metrics")
	}
	if res.FairMaxMin < 1 {
		t.Errorf("fairness max/min = %v, must be >= 1 even without -metrics", res.FairMaxMin)
	}
}

// TestMetricsKVShardOps: a KV run with metrics on reports the measured
// window's per-shard routed-op deltas, and PointMetrics derives a skew
// ratio >= 1 from them.
func TestMetricsKVShardOps(t *testing.T) {
	spec := Spec{
		Structure: "leaftree", Threads: 2, KeyRange: 1 << 10,
		Alpha: 0.99, Duration: 10 * time.Millisecond, Seed: 7,
		YCSB: "a", Shards: 4, Metrics: true,
	}
	st, err := RunStats(spec, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	pm := st.Metrics
	if pm == nil {
		t.Fatal("no metrics summary")
	}
	if len(pm.ShardOps) != 4 {
		t.Fatalf("ShardOps has %d entries, want 4 (an empty vector means the window routed no ops)", len(pm.ShardOps))
	}
	if pm.ShardSkew < 1 {
		t.Errorf("shard skew = %v, max/mean must be >= 1", pm.ShardSkew)
	}
}

// TestPointMetricsJSONRoundTrips pins the JSONL surface: the summary
// marshals with the documented snake_case fields and finite values.
func TestPointMetricsJSONRoundTrips(t *testing.T) {
	win := &MetricsWindow{}
	win.Window[obs.HelpsGiven] = 25
	win.Window[obs.InstallCASFails] = 50
	win.Samples = []MetricSample{{AtMs: 1, Helps: 25, CASFails: 50}}
	b, err := json.Marshal(pointMetrics(100, win))
	if err != nil {
		t.Fatal(err)
	}
	var m map[string]any
	if err := json.Unmarshal(b, &m); err != nil {
		t.Fatal(err)
	}
	if m["helps_per_op"] != 0.25 {
		t.Errorf("helps_per_op = %v, want 0.25", m["helps_per_op"])
	}
	if m["cas_fails_per_op"] != 0.5 {
		t.Errorf("cas_fails_per_op = %v, want 0.5", m["cas_fails_per_op"])
	}
	if _, ok := m["samples"]; !ok {
		t.Error("samples missing from JSON")
	}
}

// TestFairnessHelper pins the fairness math, including the clamps that
// keep the JSON finite.
func TestFairnessHelper(t *testing.T) {
	for _, tc := range []struct {
		counts  []uint64
		maxMin  float64
		covZero bool
	}{
		{nil, 1, true},
		{[]uint64{0, 0}, 1, true},
		{[]uint64{100, 100, 100}, 1, true},
		{[]uint64{100, 50}, 2, false},
		{[]uint64{100, 0}, 100, false}, // min clamped to 1, not Inf
	} {
		mm, cov := fairness(tc.counts)
		if mm != tc.maxMin {
			t.Errorf("fairness(%v) max/min = %v, want %v", tc.counts, mm, tc.maxMin)
		}
		if (cov == 0) != tc.covZero {
			t.Errorf("fairness(%v) cov = %v, want zero=%v", tc.counts, cov, tc.covZero)
		}
	}
}

// TestSliceHelpers pins subSlices saturation and addSlices growth.
func TestSliceHelpers(t *testing.T) {
	d := subSlices([]uint64{5, 3, 9}, []uint64{2, 4})
	if d[0] != 3 || d[1] != 0 || d[2] != 9 {
		t.Errorf("subSlices = %v, want [3 0 9]", d)
	}
	s := addSlices([]uint64{1}, []uint64{2, 3})
	if len(s) != 2 || s[0] != 3 || s[1] != 3 {
		t.Errorf("addSlices = %v, want [3 3]", s)
	}
}

// TestSamplerGCPause pins the sampler's runtime/metrics readings: the
// cumulative GC pause never decreases across samples, and a
// runtime.GC() forced inside the measured window (by a worker's first
// operation) shows up as a positive pause.
func TestSamplerGCPause(t *testing.T) {
	var once sync.Once
	worker := func(uint64) (func(uint64, bool) time.Time, func()) {
		return func(_ uint64, timed bool) time.Time {
			t0 := clock(timed)
			once.Do(runtime.GC)
			return t0
		}, func() {}
	}
	res := measure(Spec{Structure: "synthetic", Threads: 2, Duration: 20 * time.Millisecond,
		Metrics: true}, worker, nil)
	if res.Ops == 0 {
		t.Fatal("no operation ran, so no GC was forced inside the window")
	}
	var last uint64
	for i, s := range res.Metrics.Samples {
		if s.GCPauseNs < last {
			t.Fatalf("sample %d: GC pause went back from %d to %d ns", i, last, s.GCPauseNs)
		}
		if s.Goroutines <= 0 {
			t.Fatalf("sample %d: %d goroutines", i, s.Goroutines)
		}
		last = s.GCPauseNs
	}
	if last == 0 {
		t.Fatalf("GC pause 0 ns after a forced runtime.GC() in the window: %+v", res.Metrics.Samples)
	}
}
