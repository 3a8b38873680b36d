// Package harness runs the paper's throughput experiments (§8): prefill
// a set structure to half its key range, then hammer it with a mixed
// workload from T worker goroutines for a fixed duration and report
// Mop/s. It also defines the per-figure experiment specs used by
// cmd/flockbench and the repository's benchmarks (see DESIGN.md S8).
package harness

import (
	"cmp"
	"context"
	"fmt"
	"maps"
	"math"
	"runtime"
	"runtime/metrics"
	"runtime/pprof"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	flock "flock/internal/core"
	"flock/internal/obs"
	"flock/internal/obs/trace"

	"flock/internal/baseline/ellen"
	"flock/internal/baseline/harris"
	"flock/internal/baseline/natarajan"
	"flock/internal/baseline/olcart"
	"flock/internal/kv"
	"flock/internal/structures/abtree"
	"flock/internal/structures/arttree"
	"flock/internal/structures/couplist"
	"flock/internal/structures/dlist"
	"flock/internal/structures/hashtable"
	"flock/internal/structures/lazylist"
	"flock/internal/structures/leaftreap"
	"flock/internal/structures/leaftree"
	"flock/internal/structures/set"
	"flock/internal/txn"
	"flock/internal/workload"
)

// Factory builds a structure instance sized for keyRange.
type Factory func(rt *flock.Runtime, keyRange uint64) set.Set

// registry maps structure names (as used in figure series and on the
// flockbench command line) to factories.
var registry = map[string]Factory{
	"lazylist":        func(rt *flock.Runtime, _ uint64) set.Set { return lazylist.New(rt) },
	"dlist":           func(rt *flock.Runtime, _ uint64) set.Set { return dlist.New(rt) },
	"hashtable":       func(rt *flock.Runtime, r uint64) set.Set { return hashtable.New(rt, int(r)) },
	"leaftree":        func(rt *flock.Runtime, _ uint64) set.Set { return leaftree.New(rt) },
	"leaftree-strict": func(rt *flock.Runtime, _ uint64) set.Set { return leaftree.NewStrict(rt) },
	"leaftreap":       func(rt *flock.Runtime, _ uint64) set.Set { return leaftreap.New(rt) },
	"abtree":          func(rt *flock.Runtime, _ uint64) set.Set { return abtree.New(rt) },
	"abtree-strict":   func(rt *flock.Runtime, _ uint64) set.Set { return abtree.NewStrict(rt) },
	"arttree":         func(rt *flock.Runtime, _ uint64) set.Set { return arttree.New(rt) },
	"couplist":        func(rt *flock.Runtime, _ uint64) set.Set { return couplist.New(rt) },
	"harris":          func(*flock.Runtime, uint64) set.Set { return harris.New(false) },
	"harris_opt":      func(*flock.Runtime, uint64) set.Set { return harris.New(true) },
	"natarajan":       func(*flock.Runtime, uint64) set.Set { return natarajan.New() },
	"ellen":           func(*flock.Runtime, uint64) set.Set { return ellen.New() },
	"olcart":          func(*flock.Runtime, uint64) set.Set { return olcart.New() },
}

// txnCapable lists the registry structures the transactional layer may
// be built over: flock structures whose updates use simply-nested
// try-locks, so their operations are loggable thunk code that replays
// deterministically inside a composed transaction (DESIGN.md S11). The
// non-flock baselines bypass the runtime log entirely (a helper's
// replay would re-apply their writes non-idempotently), and the
// "-strict" variants acquire strict locks, which are not simply nested
// (§4); both would silently corrupt transactional atomicity.
var txnCapable = map[string]bool{
	"lazylist":  true,
	"dlist":     true,
	"hashtable": true,
	"leaftree":  true,
	"leaftreap": true,
	"abtree":    true,
	"arttree":   true,
	"couplist":  true,
}

// TxnCapableStructures returns the sorted names of the structures the
// transactional layer may be built over. internal/txn's conformance
// tests iterate this list, so vouching for a structure here without
// suite coverage fails the build rather than shipping silently.
func TxnCapableStructures() []string { return slices.Sorted(maps.Keys(txnCapable)) }

// Structures returns the sorted registry keys.
func Structures() []string { return slices.Sorted(maps.Keys(registry)) }

// Spec describes one throughput measurement point.
type Spec struct {
	Structure string
	Blocking  bool // lock mode for flock structures (ignored by baselines)
	Threads   int
	KeyRange  uint64
	UpdatePct int
	Alpha     float64
	HashKeys  bool // sparsify keys (the paper does this for arttree)
	Duration  time.Duration
	Seed      uint64
	// StallEvery, when nonzero, injects a descheduling event inside
	// every n-th critical section (flock structures only): the explicit
	// form of the oversubscription phenomenon (DESIGN.md S3).
	StallEvery int
	// YCSB, when nonempty ("a", "b", "c", "e" or "f"), selects the KV
	// path: the workload runs Get/Put/ReadModifyWrite/Scan against a
	// kv.Store of Shards shards built over Structure, instead of the
	// paper's insert/delete/find mix against a bare structure.
	YCSB string
	// ScanLen is the maximum scan length for scan-bearing YCSB mixes
	// ("e"); each scan's length is zipf-drawn from [1, ScanLen]. Values
	// < 1 mean workload.DefaultScanLen. Ignored without scans.
	ScanLen int
	// Shards is the store's shard count on the KV and transactional
	// paths (values < 1 mean 1, the unsharded control).
	Shards int
	// TxnMix, when nonempty ("transfer" or "ycsbt"), selects the
	// transactional path: multi-key atomic operations against a
	// txn.Store of Shards shards built over Structure (DESIGN.md S11).
	// Takes precedence over YCSB.
	TxnMix string
	// TxnSize is the number of keys per multi-key transaction on the
	// transactional path (values < 1 mean 1; transfers always touch 2).
	TxnSize int
	// TxnNonAtomic selects the per-key non-atomic ablation arm of the
	// transactional path (no shard locks; kv batch behaviour). When
	// false the arm follows Blocking: composed blocking locks vs
	// composed lock-free locks.
	TxnNonAtomic bool
	// Optimistic routes the KV path's reads (Get, Scan, MultiGet)
	// through the unlogged version-validated arm
	// (kv.Options.OptimisticReads). Requesting it over a structure
	// without the set.OptimisticReader capability is refused up front,
	// like the Scannable gate. Ignored when YCSB and TxnMix are empty.
	Optimistic bool
	// SnapshotLoop runs a background goroutine beside the measured
	// workload that repeatedly takes a whole-store snapshot
	// (kv.Store.Snapshot), iterates it fully and closes it (KV and
	// transactional paths). The measured Mops is still the foreground
	// workload's; the loop's progress is reported separately
	// (Result.SnapCycles/SnapKeys), so comparing a series with and
	// without the loop reads out the slowdown snapshots impose on
	// writers, and the loop's key rate reads out snapshot scan
	// throughput under the write storm. Requires a scannable structure;
	// refused up front otherwise.
	SnapshotLoop bool
	// Metrics turns the obs runtime-metrics layer on for the measured
	// window (restoring the global flag after): counters are snapshotted
	// at the window edges and sampled every MetricsInterval (values <= 0
	// mean Duration/8, at least 1ms) into Result.Metrics. Off, the layer
	// is a cold-bool branch with zero allocations (obs package doc).
	Metrics         bool
	MetricsInterval time.Duration
	// Trace turns the lock-event flight recorder (internal/obs/trace) on
	// for the measured window the same way, opens a fresh collection
	// window with trace.Reset and attaches the stitched snapshot to
	// Result.Trace. TraceDump, when set, arms the anomaly dumper: the
	// first operation slower than TraceDumpP99Mult (values <= 0 mean 8)
	// times the window's running p99 dumps the recorder's contents to
	// that path as a Chrome trace, while the outlier's surroundings are
	// still in the rings.
	Trace            bool
	TraceDump        string
	TraceDumpP99Mult float64
	// Figure is a label for the figure this spec was derived from
	// (RunFigure sets it); it only feeds the pprof "figure" label on
	// worker goroutines, so CPU profiles attribute samples per series.
	Figure string
}

// modeLabel names the spec's concurrency-control arm for pprof labels.
func (spec Spec) modeLabel() string {
	switch {
	case spec.TxnMix != "" && spec.TxnNonAtomic:
		return "nonatomic"
	case spec.Blocking:
		return "blocking"
	case spec.Optimistic:
		return "optimistic"
	default:
		return "lockfree"
	}
}

// Result is one measured run. Hist is the merged per-operation latency
// histogram (always recorded; log-bucketed, see LatencyHist).
// AllocsPerOp is the heap-allocation count per completed operation over
// the measured window (runtime.MemStats.Mallocs delta / Ops) — the
// metric the pooled commit path is designed to drive to zero.
type Result struct {
	Ops         uint64
	Elapsed     time.Duration
	Mops        float64
	AllocsPerOp float64
	Hist        *LatencyHist
	// OptRestarts counts discarded optimistic shard reads and
	// OptEscalations counts operations that fell back to the locked path
	// when one shard would need more than MaxOptimistic reads, both
	// summed from the store's always-on counters over the measured
	// window (KV and txn paths with Spec.Optimistic; zero otherwise). The obs metrics layer mirrors the
	// same events per worker when Spec.Metrics is set (Metrics.Window).
	OptRestarts    uint64
	OptEscalations uint64
	// FairMaxMin and FairCoV summarize the per-thread op-count spread of
	// the window (always computed): the busiest thread's count over the
	// laziest's (clamped to >= 1 op to stay finite on tiny windows), and
	// the coefficient of variation across threads. 1.0 / 0.0 is perfect
	// fairness; helping tends to keep these low where blocking locks let
	// starved threads fall behind.
	FairMaxMin float64
	FairCoV    float64
	// SnapCycles and SnapKeys count the background snapshot loop's
	// completed whole-store iterations and total iterated keys (zero
	// unless Spec.SnapshotLoop; the loop always completes at least one
	// cycle, so a scannable spec reporting 0 cycles is a bug).
	SnapCycles uint64
	SnapKeys   uint64
	// Metrics holds the obs counter deltas, time series and per-shard op
	// counts for the window; nil unless Spec.Metrics was set.
	Metrics *MetricsWindow
	// Trace is the flight-recorder snapshot of the window (stitched
	// time-ordered events plus drop count); nil unless Spec.Trace was
	// set.
	Trace *trace.Trace
}

// P50 returns the median per-op latency (0 on an empty histogram).
func (r Result) P50() time.Duration { return r.Hist.Quantile(0.50) }

// P95 returns the 95th-percentile per-op latency.
func (r Result) P95() time.Duration { return r.Hist.Quantile(0.95) }

// P99 returns the 99th-percentile tail latency — where the paper's
// helping-under-oversubscription win shows up for a serving system.
func (r Result) P99() time.Duration { return r.Hist.Quantile(0.99) }

// Worker registers worker w and returns its op closure and teardown.
// op(n, timed) draws the next operation from the worker's generator,
// then applies it; when timed it returns the time.Now() it read between
// the two, so a latency clock started there leaves generator time out
// (and the zero Time otherwise). n is the worker's operation count (it
// salts written values).
type Worker func(w uint64) (op func(n uint64, timed bool) time.Time, done func())

// clock is op's latency-clock read: time.Now() when timed.
func clock(timed bool) (t time.Time) {
	if timed {
		t = time.Now()
	}
	return t
}

// window runs at the start of the measured window and returns the hook
// that folds the window's store-side readings (optimistic counters,
// shard ops, the snapshot loop) into the Result.
type window func() (closeWindow func(*Result))

// newRuntime builds the flock runtime a bare-structure spec runs on.
func newRuntime(spec Spec) *flock.Runtime {
	rt := flock.New()
	rt.SetBlocking(spec.Blocking)
	return rt
}

// build is the workload builder behind RunTimed and Workers. It looks
// the structure up, applies the capability gates (txn-capable,
// scannable, optimistic, snapshot loop) before any prefilling, builds
// the bare structure, kv.Store or txn.Store the spec selects, prefills
// it, turns stall injection on and returns the per-worker op closures
// and the window hooks (nil on the bare-structure path).
func build(spec Spec) (Worker, window, error) {
	f, ok := registry[spec.Structure]
	if !ok {
		return nil, nil, fmt.Errorf("harness: unknown structure %q (have %v)", spec.Structure, Structures())
	}
	seed := func(w uint64) uint64 { return spec.Seed + w*0x9e3779b9 }
	if spec.TxnMix == "" && spec.YCSB == "" {
		rt := newRuntime(spec)
		s := f(rt, spec.KeyRange)
		prefill(spec, func() (func(k uint64), func()) {
			p := rt.Register()
			return func(k uint64) { s.Insert(p, k, k) }, p.Unregister
		})
		// Injection starts only after prefill so setup stays fast.
		rt.SetStallInjection(spec.StallEvery)
		return func(w uint64) (func(uint64, bool) time.Time, func()) {
			p := rt.Register()
			mix := workload.NewMix(spec.KeyRange, spec.UpdatePct, spec.Alpha, spec.HashKeys, seed(w))
			return func(_ uint64, timed bool) time.Time {
				op, k := mix.Next()
				t0 := clock(timed)
				switch op {
				case workload.OpInsert:
					s.Insert(p, k, k)
				case workload.OpDelete:
					s.Delete(p, k)
				default:
					s.Find(p, k)
				}
				return t0
			}, p.Unregister
		}, nil, nil
	}

	var worker Worker
	var st *kv.Store
	if spec.TxnMix != "" {
		if !txnCapable[spec.Structure] {
			return nil, nil, fmt.Errorf("harness: structure %q cannot back the txn layer (its operations are not simply-nested flock thunks; use one of %v)",
				spec.Structure, TxnCapableStructures())
		}
		if _, err := workload.NewTxnMix(spec.TxnMix, spec.KeyRange, spec.Alpha, spec.TxnSize, spec.Seed); err != nil {
			return nil, nil, err
		}
		mode := txn.LockFree
		if spec.Blocking {
			mode = txn.Blocking
		}
		if spec.TxnNonAtomic {
			mode = txn.NonAtomic
		}
		ts := txn.New(kv.Factory(f), txn.Options{Shards: spec.Shards, Mode: mode,
			KeyRange: spec.KeyRange, OptimisticReads: spec.Optimistic})
		st = ts.KV()
		worker = func(w uint64) (func(uint64, bool) time.Time, func()) {
			c := ts.Register()
			mix, _ := workload.NewTxnMix(spec.TxnMix, spec.KeyRange, spec.Alpha, spec.TxnSize, seed(w)) // validated above
			// vbuf is write-value scratch (the client copies its inputs).
			var vbuf []uint64
			return func(n uint64, timed bool) time.Time {
				op, keys := mix.Next()
				t0 := clock(timed)
				switch op {
				case workload.TxnRead:
					c.MultiGet(keys)
				case workload.TxnWrite:
					vbuf = vbuf[:0]
					for _, k := range keys {
						vbuf = append(vbuf, k+n)
					}
					c.MultiPut(keys, vbuf)
				case workload.TxnTransfer:
					c.Transfer(keys[0], keys[1], 1)
				case workload.TxnRMW:
					c.Txn(keys, keys, txnIncrement)
				default: // a new TxnOp must be wired here, not absorbed as a read
					panic(fmt.Sprintf("harness: unhandled TxnOp %v", op))
				}
				return t0
			}, c.Close
		}
	} else {
		probe, err := workload.NewYCSB(spec.YCSB, spec.KeyRange, spec.Alpha, spec.HashKeys, spec.Seed)
		if err != nil {
			return nil, nil, err
		}
		st = kv.New(kv.Factory(f), kv.Options{Shards: spec.Shards, Blocking: spec.Blocking,
			KeyRange: spec.KeyRange, OptimisticReads: spec.Optimistic})
		switch {
		case probe.HasScans() && !st.Scannable():
			return nil, nil, fmt.Errorf("harness: YCSB-%s has scans but structure %q does not implement set.Scanner (ordered structures only)",
				spec.YCSB, spec.Structure)
		case spec.Optimistic && !st.OptimisticReads():
			return nil, nil, fmt.Errorf("harness: optimistic reads requested but structure %q does not implement set.OptimisticReader",
				spec.Structure)
		case spec.Optimistic && probe.HasScans() && !st.OptimisticScans():
			return nil, nil, fmt.Errorf("harness: YCSB-%s has scans but structure %q does not implement set.OptimisticScanner",
				spec.YCSB, spec.Structure)
		}
		worker = func(w uint64) (func(uint64, bool) time.Time, func()) {
			c := st.Register()
			mix, _ := workload.NewYCSB(spec.YCSB, spec.KeyRange, spec.Alpha, spec.HashKeys, seed(w)) // validated above
			mix.SetMaxScanLen(spec.ScanLen)
			return func(n uint64, timed bool) time.Time {
				op, k := mix.Next()
				t0 := clock(timed)
				switch op {
				case workload.YRead:
					c.Get(k)
				case workload.YUpdate, workload.YInsert:
					c.Put(k, k+n)
				case workload.YRMW:
					c.ReadModifyWrite(k, func(old uint64, _ bool) uint64 { return old + 1 })
				case workload.YScan:
					// YCSB-E semantics: the next ScanLen() records from k
					// upward (an open upper bound plus a limit, not a fixed
					// key interval — the key space is only half dense).
					c.Scan(k, math.MaxUint64, mix.ScanLen())
				default: // a new YCSBOp must be wired here, not absorbed as a read
					panic(fmt.Sprintf("harness: unhandled YCSBOp %v", op))
				}
				return t0
			}, c.Close
		}
	}
	if spec.SnapshotLoop && !st.Scannable() {
		return nil, nil, fmt.Errorf("harness: snapshot loop requested but structure %q does not implement set.Scanner (ordered snapshots need ordered scans)",
			spec.Structure)
	}
	prefill(spec, func() (func(k uint64), func()) {
		c := st.Register()
		return func(k uint64) { c.Put(k, k) }, c.Close
	})
	st.SetStallInjection(spec.StallEvery)

	return worker, func() func(*Result) {
		r0, e0 := st.OptimisticStats()
		so0 := st.ShardOps()
		// The snapshot loop: snapshot, iterate fully, close, repeat. The
		// stop flag is checked only after a completed cycle, so even the
		// shortest window measures at least one whole-store iteration.
		var cycles, keys uint64
		var stop atomic.Bool
		var wg sync.WaitGroup
		if spec.SnapshotLoop {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for {
					sn := st.Snapshot()
					sn.Iterate(0, math.MaxUint64, func(_, _ uint64) bool {
						keys++
						return true
					})
					sn.Close()
					cycles++
					if stop.Load() {
						return
					}
				}
			}()
		}
		return func(res *Result) {
			stop.Store(true)
			wg.Wait()
			res.SnapCycles, res.SnapKeys = cycles, keys
			r1, e1 := st.OptimisticStats()
			res.OptRestarts, res.OptEscalations = r1-r0, e1-e0
			if res.Metrics != nil {
				// Workers closed their clients inside the window (measure
				// waits for them), so the fold-on-Close totals now cover it.
				res.Metrics.ShardOps = subSlices(st.ShardOps(), so0)
			}
		}
	}, nil
}

// txnIncrement is the pure TxnFunc behind the TxnRMW mix operation:
// increment every key in the read set (upserting absent keys at 1).
func txnIncrement(vals []uint64, oks []bool) ([]uint64, bool) {
	out := make([]uint64, len(vals))
	for i := range vals {
		out[i] = vals[i] + 1
	}
	return out, true
}

// prefill runs the shared prefill loop: the deterministic half of [1,
// KeyRange] (§8: "prefill the data structure with half the keys in the
// range"), partitioned across parallel workers by permutation striding —
// pseudo-random insertion order, because ascending order would
// degenerate the unbalanced trees (the paper's trees are balanced in
// expectation from random insertion). setup runs once per worker
// goroutine and returns that worker's insert function (called with each
// prefill key, already hashed under spec.HashKeys) and its teardown.
func prefill(spec Spec, setup func() (put func(k uint64), done func())) {
	workers := min(runtime.GOMAXPROCS(0)*2, 8)
	perm := workload.NewPermutation(spec.KeyRange, spec.Seed^0x5eed)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			put, done := setup()
			defer done()
			for i := uint64(w) + 1; i <= spec.KeyRange; i += uint64(workers) {
				k := perm.Apply(i)
				if spec.HashKeys {
					if hk, in := workload.PrefillKeyHashed(k); in {
						put(hk)
					}
				} else if workload.PrefillKey(k) {
					put(k)
				}
			}
		}(w)
	}
	wg.Wait()
}

// Workers builds and prefills spec with RunTimed's builder and returns
// its worker factory, for drivers that run their own loop (the root
// benchmarks' RunParallel). RunTimed's window hooks do not run.
func Workers(spec Spec) (Worker, error) {
	worker, _, err := build(spec)
	return worker, err
}

// RunTimed builds, prefills and measures one spec: the paper's set mix
// by default, the sharded-KV YCSB path when spec.YCSB is set, and the
// transactional path when spec.TxnMix is set. Every operation's latency
// is recorded into a per-worker log-bucketed histogram; the merged
// histogram rides along in the Result.
func RunTimed(spec Spec) (Result, error) {
	worker, win, err := build(spec)
	if err != nil {
		return Result{}, err
	}
	return measure(spec, worker, win), nil
}

// gcPauseAndGoroutines reads the sampler's runtime signals through
// runtime/metrics, which, unlike runtime.ReadMemStats, does not stop the
// world: the cumulative GC pause wall time (the runtime's pause CPU
// estimate over GOMAXPROCS) and the goroutine count.
func gcPauseAndGoroutines() (pauseNs float64, goroutines int) {
	s := []metrics.Sample{{Name: "/cpu/classes/gc/pause:cpu-seconds"}, {Name: "/sched/goroutines:goroutines"}}
	metrics.Read(s)
	return s[0].Value.Float64() * 1e9 / float64(runtime.GOMAXPROCS(0)), int(s[1].Value.Uint64())
}

// measure runs spec.Threads workers for spec.Duration and aggregates
// op counts and latency histograms. Per-worker setup (registration,
// generator construction — including first-use zeta sums, linear in the
// key range) runs before the start barrier, so it stays out of the
// measured window.
func measure(spec Spec, worker Worker, win window) Result {
	var stop atomic.Bool
	hists := make([]*LatencyHist, spec.Threads)
	counts := make([]uint64, spec.Threads) // per-worker op counts (fairness)
	start := make(chan struct{})
	// Worker goroutines carry pprof labels so a CPU profile of a figure
	// run attributes samples per series (structure × mode × figure).
	// Specs built by hand carry the figure label "adhoc".
	labels := pprof.Labels("structure", spec.Structure, "mode", spec.modeLabel(), "figure", cmp.Or(spec.Figure, "adhoc"))
	if spec.Metrics {
		// The obs flag is global; restoring it lets nested or back-to-back
		// runs with different Metrics settings compose.
		defer obs.SetEnabled(obs.Enabled())
		obs.SetEnabled(true)
	}
	var dumper *traceDumper
	if spec.Trace {
		// Same restore discipline as the obs flag; Reset opens a fresh
		// collection window so the snapshot covers only this run.
		defer trace.SetEnabled(trace.Enabled())
		trace.SetEnabled(true)
		trace.Reset()
		if spec.TraceDump != "" {
			dumper = newTraceDumper(spec.TraceDump, spec.TraceDumpP99Mult)
		}
	}
	var ready, wg sync.WaitGroup
	ready.Add(spec.Threads)
	wg.Add(spec.Threads)
	for w := 0; w < spec.Threads; w++ {
		hists[w] = NewLatencyHist()
		if dumper != nil {
			hists[w].SetAnomaly(dumper.observe)
		}
		go func(w int) {
			defer wg.Done()
			pprof.Do(context.Background(), labels, func(context.Context) {
				op, done := worker(uint64(w))
				defer done()
				hist := hists[w]
				ready.Done()
				<-start
				var n uint64
				for ; !stop.Load(); n++ {
					hist.Record(time.Since(op(n, true)))
				}
				counts[w] = n // w's slot only; read after wg.Wait
			})
		}(w)
	}
	ready.Wait()
	var closeWindow func(*Result)
	if win != nil {
		closeWindow = win()
	}
	// Allocation accounting brackets exactly the measured window: worker
	// setup happened before the barrier, and ReadMemStats (a
	// stop-the-world call) runs only at the window edges.
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	var s0 obs.Counts
	var pause0 float64
	if spec.Metrics {
		s0 = obs.Snapshot()
		pause0, _ = gcPauseAndGoroutines()
	}
	t0 := time.Now()
	// sample is one point of the window's cumulative time series.
	sample := func(at time.Duration, d obs.Counts) MetricSample {
		pause, g := gcPauseAndGoroutines()
		return MetricSample{AtMs: at.Seconds() * 1e3, Helps: d.Get(obs.HelpsGiven),
			CASFails: d.Get(obs.InstallCASFails), Goroutines: g, GCPauseNs: uint64(max(pause-pause0, 0))}
	}
	close(start)
	// The window: sleep for spec.Duration, sampling the metrics time
	// series on the way when Metrics is set (a nil tick never fires).
	// Ticks stop while the workers still run, so none is stamped after
	// el (the closing sample's time) or races a worker folding its
	// block on exit.
	var samples []MetricSample
	var tick <-chan time.Time
	if spec.Metrics {
		interval := spec.MetricsInterval
		if interval <= 0 {
			interval = max(spec.Duration/8, time.Millisecond)
		}
		ticker := time.NewTicker(interval)
		defer ticker.Stop()
		tick = ticker.C
	}
	for end := time.After(spec.Duration); end != nil; {
		select {
		case <-end:
			end = nil
		case <-tick:
			samples = append(samples, sample(time.Since(t0), obs.Snapshot().Sub(s0)))
		}
	}
	stop.Store(true)
	wg.Wait()
	el := time.Since(t0)
	runtime.ReadMemStats(&ms1)

	merged := NewLatencyHist()
	var ops uint64
	for w, h := range hists {
		merged.Merge(h)
		ops += counts[w]
	}
	res := Result{Ops: ops, Elapsed: el, Mops: float64(ops) / el.Seconds() / 1e6, Hist: merged}
	res.FairMaxMin, res.FairCoV = fairness(counts)
	if ops > 0 {
		res.AllocsPerOp = float64(ms1.Mallocs-ms0.Mallocs) / float64(ops)
	}
	if spec.Metrics {
		// Final sample after wg.Wait: every worker has unregistered, so its
		// block is folded into the retired totals and the delta covers the
		// whole window (plus the workers' post-stop partial ops —
		// symmetric with how Ops counts them).
		d := obs.Snapshot().Sub(s0)
		res.Metrics = &MetricsWindow{Window: d, Samples: append(samples, sample(el, d))}
	}
	if spec.Trace {
		// Snapshot after wg.Wait: exited workers' rings are on the
		// retired list, so the stitched stream covers every worker.
		tr := trace.Snapshot()
		res.Trace = &tr
	}
	if closeWindow != nil {
		closeWindow(&res)
	}
	return res
}

// Point is one measured point: the single record RunStats returns,
// RunFigure collects and cmd/flockbench emits. Its JSON tags are the
// -json schema (one JSONL record per point, suitable for capture as
// BENCH_*.json); omitempty keeps optimistic counters, snapshot-loop
// progress and metrics out of records whose series do not produce them.
// The fields aggregate Result's over the measured repetitions: Mops and
// Std are the throughput mean and standard deviation; AllocsPerOp,
// FairMaxMin, FairCoV and SnapKeysPerSec are means; the percentiles
// come from the merged histograms; OptRestarts, OptEscalations and
// SnapCycles are totals; Metrics sums the obs windows (time series from
// the last repetition); Trace is the last repetition's recorder
// snapshot (rings are overwritten across repetitions).
type Point struct {
	Figure         string        `json:"figure"`
	Series         string        `json:"series"`
	X              string        `json:"x"`
	Mops           float64       `json:"mops"`
	Std            float64       `json:"std"`
	AllocsPerOp    float64       `json:"allocs_per_op"`
	P50            time.Duration `json:"p50_ns"`
	P95            time.Duration `json:"p95_ns"`
	P99            time.Duration `json:"p99_ns"`
	OptRestarts    uint64        `json:"opt_restarts,omitempty"`
	OptEscalations uint64        `json:"opt_escalations,omitempty"`
	FairMaxMin     float64       `json:"fair_maxmin"`
	FairCoV        float64       `json:"fair_cov"`
	SnapCycles     uint64        `json:"snap_cycles,omitempty"`
	SnapKeysPerSec float64       `json:"snap_keys_per_sec,omitempty"`
	Metrics        *PointMetrics `json:"metrics,omitempty"`
	Trace          *trace.Trace  `json:"-"`
}

// RunStats performs warmup runs followed by measured repetitions,
// following the paper's methodology (one warmup, average of the rest),
// and aggregates them into one Point (Series, X and Figure left empty).
func RunStats(spec Spec, warmup, repeats int) (Point, error) {
	for i := 0; i < warmup; i++ {
		if _, err := RunTimed(spec); err != nil {
			return Point{}, err
		}
	}
	repeats = max(repeats, 1)
	vals := make([]float64, 0, repeats)
	merged := NewLatencyHist()
	var pt Point
	var ops uint64
	var win *MetricsWindow
	for i := 0; i < repeats; i++ {
		r, err := RunTimed(spec)
		if err != nil {
			return Point{}, err
		}
		vals = append(vals, r.Mops)
		pt.Mops += r.Mops
		merged.Merge(r.Hist)
		ops += r.Ops
		pt.AllocsPerOp += r.AllocsPerOp
		pt.OptRestarts += r.OptRestarts
		pt.OptEscalations += r.OptEscalations
		pt.FairMaxMin += r.FairMaxMin
		pt.FairCoV += r.FairCoV
		pt.SnapCycles += r.SnapCycles
		if r.Elapsed > 0 {
			pt.SnapKeysPerSec += float64(r.SnapKeys) / r.Elapsed.Seconds()
		}
		if r.Metrics != nil {
			if win == nil {
				win = &MetricsWindow{}
			}
			win.Window = win.Window.Add(r.Metrics.Window)
			win.ShardOps = addSlices(win.ShardOps, r.Metrics.ShardOps)
			win.Samples = r.Metrics.Samples // last repetition's series
		}
		if r.Trace != nil {
			pt.Trace = r.Trace // last repetition's window
		}
	}
	n := float64(repeats)
	pt.AllocsPerOp /= n
	pt.FairMaxMin /= n
	pt.FairCoV /= n
	pt.SnapKeysPerSec /= n
	pt.Mops /= n
	for _, v := range vals {
		pt.Std += (v - pt.Mops) * (v - pt.Mops)
	}
	pt.Std = math.Sqrt(pt.Std / n)
	pt.P50, pt.P95, pt.P99 = merged.Quantile(0.50), merged.Quantile(0.95), merged.Quantile(0.99)
	pt.Metrics = pointMetrics(ops, win)
	return pt, nil
}
