// Package harness runs the paper's throughput experiments (§8): prefill
// a set structure to half its key range, then hammer it with a mixed
// workload from T worker goroutines for a fixed duration and report
// Mop/s. It also defines the per-figure experiment specs used by
// cmd/flockbench and the repository's benchmarks (see DESIGN.md S8).
package harness

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"runtime/pprof"
	"sort"
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
	"lazylist":  func(rt *flock.Runtime, _ uint64) set.Set { return lazylist.New(rt) },
	"dlist":     func(rt *flock.Runtime, _ uint64) set.Set { return dlist.New(rt) },
	"hashtable": func(rt *flock.Runtime, r uint64) set.Set { return hashtable.New(rt, int(r)) },
	"leaftree":  func(rt *flock.Runtime, _ uint64) set.Set { return leaftree.New(rt) },
	"leaftree-strict": func(rt *flock.Runtime, _ uint64) set.Set {
		return leaftree.NewStrict(rt)
	},
	"leaftreap": func(rt *flock.Runtime, _ uint64) set.Set { return leaftreap.New(rt) },
	"abtree":    func(rt *flock.Runtime, _ uint64) set.Set { return abtree.New(rt) },
	"abtree-strict": func(rt *flock.Runtime, _ uint64) set.Set {
		return abtree.NewStrict(rt)
	},
	"arttree":    func(rt *flock.Runtime, _ uint64) set.Set { return arttree.New(rt) },
	"couplist":   func(rt *flock.Runtime, _ uint64) set.Set { return couplist.New(rt) },
	"harris":     func(*flock.Runtime, uint64) set.Set { return harris.New(false) },
	"harris_opt": func(*flock.Runtime, uint64) set.Set { return harris.New(true) },
	"natarajan":  func(*flock.Runtime, uint64) set.Set { return natarajan.New() },
	"ellen":      func(*flock.Runtime, uint64) set.Set { return ellen.New() },
	"olcart":     func(*flock.Runtime, uint64) set.Set { return olcart.New() },
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
func TxnCapableStructures() []string {
	var out []string
	for s := range txnCapable {
		out = append(out, s)
	}
	sort.Strings(out)
	return out
}

// Structures returns the sorted registry keys.
func Structures() []string {
	var out []string
	for k := range registry {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

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
	// Shards is the kv.Store shard count for the YCSB path (values < 1
	// mean 1, the unsharded control). Ignored when YCSB is empty.
	Shards int
	// NoPool disables the flock core's descriptor/log-block/mbox
	// pooling (the GC-fresh arm of the ext-alloc ablation). Ignored by
	// the non-flock baselines.
	NoPool bool
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
	// SnapshotLoop runs a dedicated background goroutine alongside the
	// measured workload that repeatedly takes a whole-store snapshot
	// (kv.Store.Snapshot), iterates it fully and closes it, for the
	// duration of the window (transactional path only). The measured
	// Mops is still the foreground workload's — the snapshot loop's
	// progress is reported separately (Result.SnapCycles/SnapKeys) — so
	// comparing a series with and without the loop reads out the
	// concurrent-writer slowdown snapshots impose, and the loop's key
	// rate reads out snapshot scan throughput under the write storm.
	// Requires a scannable structure; refused up front otherwise.
	SnapshotLoop bool
	// Metrics enables the obs runtime-metrics layer for the measured
	// window: measure() flips the obs flag on around the window (and
	// restores it after), snapshots counters at the window edges, and
	// samples cumulative snapshots at MetricsInterval to produce the
	// time series in Result.Metrics. Off by default — the disabled layer
	// is a cold-bool branch with zero allocations (obs package doc).
	Metrics bool
	// MetricsInterval is the time-series sampling cadence; values <= 0
	// mean Duration/8 (clamped to >= 1ms).
	MetricsInterval time.Duration
	// Trace enables the lock-event flight recorder (internal/obs/trace)
	// for the measured window: measure() flips the trace flag on around
	// the window (restoring it after, like Metrics), opens a fresh
	// collection window with trace.Reset, and attaches the stitched
	// snapshot to Result.Trace. Off by default — the disabled recorder
	// is a cold-bool branch per emission site.
	Trace bool
	// TraceDump, when nonempty (and Trace is set), arms the anomaly
	// dumper: the first sampled operation whose latency exceeds
	// TraceDumpP99Mult times the window's running p99 triggers a one-shot
	// Chrome-trace dump of the recorder's current contents to this path,
	// capturing the events surrounding the outlier while they are still
	// in the rings.
	TraceDump string
	// TraceDumpP99Mult is the anomaly threshold multiple; values <= 0
	// mean 8x.
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

// figureLabel is Spec.Figure, or "adhoc" for specs built by hand.
func (spec Spec) figureLabel() string {
	if spec.Figure == "" {
		return "adhoc"
	}
	return spec.Figure
}

// Result is one measured point. Hist is the merged per-operation
// latency histogram (always recorded; log-bucketed, see LatencyHist).
// AllocsPerOp is the heap-allocation count per completed operation over
// the measured window (runtime.MemStats.Mallocs delta / Ops) — the
// metric the pooled commit path is designed to drive to zero.
type Result struct {
	Ops         uint64
	Elapsed     time.Duration
	Mops        float64
	AllocsPerOp float64
	Hist        *LatencyHist
	// OptRestarts counts failed optimistic validation attempts and
	// OptEscalations counts operations that fell back to the locked path
	// after MaxOptimistic failures, both summed from the store's always-on
	// counters over the measured window (KV and txn paths with
	// Spec.Optimistic; zero otherwise). The obs metrics layer mirrors the
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

// NewInstance builds the named structure on a fresh runtime in the
// requested mode. It returns the runtime for Proc registration.
func NewInstance(spec Spec) (set.Set, *flock.Runtime, error) {
	f, ok := registry[spec.Structure]
	if !ok {
		return nil, nil, fmt.Errorf("harness: unknown structure %q (have %v)", spec.Structure, Structures())
	}
	var opts []flock.Option
	if spec.NoPool {
		opts = append(opts, flock.NoPool())
	}
	rt := flock.New(opts...)
	rt.SetBlocking(spec.Blocking)
	return f(rt, spec.KeyRange), rt, nil
}

// forEachPrefillKey runs the shared prefill loop: the deterministic
// half of [1, KeyRange] (§8: "prefill the data structure with half the
// keys in the range"), partitioned across parallel workers by
// permutation striding — pseudo-random insertion order, because
// ascending order would degenerate the unbalanced trees (the paper's
// trees are balanced in expectation from random insertion). setup runs
// once per worker goroutine and returns that worker's insert function
// (called with each prefill key, already hashed under spec.HashKeys)
// and its teardown.
func forEachPrefillKey(spec Spec, setup func() (put func(k uint64), done func())) {
	workers := runtime.GOMAXPROCS(0) * 2
	if workers > 8 {
		workers = 8
	}
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

// Prefill inserts the deterministic half of [1, KeyRange] into a bare
// structure (see forEachPrefillKey).
func Prefill(s set.Set, rt *flock.Runtime, spec Spec) {
	forEachPrefillKey(spec, func() (func(k uint64), func()) {
		p := rt.Register()
		return func(k uint64) { s.Insert(p, k, k) }, p.Unregister
	})
}

// RunTimed builds, prefills and measures one spec: the paper's set mix
// by default, the sharded-KV YCSB path when spec.YCSB is set, and the
// transactional path when spec.TxnMix is set. Every operation's latency
// is recorded into a per-worker log-bucketed histogram; the merged
// histogram rides along in the Result.
func RunTimed(spec Spec) (Result, error) {
	if spec.TxnMix != "" {
		return runTimedTxn(spec)
	}
	if spec.YCSB != "" {
		return runTimedKV(spec)
	}
	s, rt, err := NewInstance(spec)
	if err != nil {
		return Result{}, err
	}
	Prefill(s, rt, spec)
	// Injection starts only after prefill so setup stays fast.
	rt.SetStallInjection(spec.StallEvery)

	return measure(spec, func(w int, begin func(), stop *atomic.Bool, hist *LatencyHist) (uint64, error) {
		p := rt.Register()
		defer p.Unregister()
		mix := workload.NewMix(spec.KeyRange, spec.UpdatePct, spec.Alpha,
			spec.HashKeys, spec.Seed+uint64(w)*0x9e3779b9)
		begin()
		var n uint64
		for !stop.Load() {
			op, k := mix.Next()
			t0 := time.Now()
			switch op {
			case workload.OpInsert:
				s.Insert(p, k, k)
			case workload.OpDelete:
				s.Delete(p, k)
			default:
				s.Find(p, k)
			}
			hist.Record(time.Since(t0))
			n++
		}
		return n, nil
	})
}

// NewKVInstance builds the sharded KV store for a YCSB spec (exported
// for the root benchmarks, which drive their own worker loops). A
// scan-bearing mix (YCSB-E) over a structure without ordered scans
// (set.Scanner) is refused here, before any prefilling.
func NewKVInstance(spec Spec) (*kv.Store, error) {
	f, ok := registry[spec.Structure]
	if !ok {
		return nil, fmt.Errorf("harness: unknown structure %q (have %v)", spec.Structure, Structures())
	}
	probe, err := workload.NewYCSB(spec.YCSB, spec.KeyRange, spec.Alpha, spec.HashKeys, spec.Seed)
	if err != nil {
		return nil, err
	}
	st := kv.New(kv.Factory(f), kv.Options{
		Shards:          spec.Shards,
		Blocking:        spec.Blocking,
		NoPool:          spec.NoPool,
		KeyRange:        spec.KeyRange,
		OptimisticReads: spec.Optimistic,
	})
	if probe.HasScans() && !st.Scannable() {
		return nil, fmt.Errorf("harness: YCSB-%s has scans but structure %q does not implement set.Scanner (ordered structures only)",
			spec.YCSB, spec.Structure)
	}
	if spec.Optimistic && !st.OptimisticReads() {
		return nil, fmt.Errorf("harness: optimistic reads requested but structure %q does not implement set.OptimisticReader",
			spec.Structure)
	}
	if spec.Optimistic && probe.HasScans() && !st.OptimisticScans() {
		return nil, fmt.Errorf("harness: YCSB-%s has scans but structure %q does not implement set.OptimisticScanner",
			spec.YCSB, spec.Structure)
	}
	return st, nil
}

// NewYCSBMix builds one worker's generator for a YCSB spec, with the
// spec's scan-length bound applied — the single constructor both the
// harness driver and the root benchmarks use.
func NewYCSBMix(spec Spec, worker uint64) (*workload.YCSB, error) {
	mix, err := workload.NewYCSB(spec.YCSB, spec.KeyRange, spec.Alpha,
		spec.HashKeys, spec.Seed+worker*0x9e3779b9)
	if err != nil {
		return nil, err
	}
	mix.SetMaxScanLen(spec.ScanLen)
	return mix, nil
}

// ApplyYCSBOp applies one generated KV operation to the client — the
// shared dispatch, mirroring ApplyTxnOp, so the harness driver and the
// root benchmarks can never silently measure different operations for
// the same mix. n is the worker's operation counter (salts write
// values). Unknown kinds panic: a new YCSBOp must be wired here, not
// absorbed as a read.
func ApplyYCSBOp(c *kv.Client, mix *workload.YCSB, op workload.YCSBOp, k, n uint64) {
	switch op {
	case workload.YRead:
		c.Get(k)
	case workload.YUpdate, workload.YInsert:
		c.Put(k, k+n)
	case workload.YRMW:
		c.ReadModifyWrite(k, func(old uint64, _ bool) uint64 { return old + 1 })
	case workload.YScan:
		// YCSB-E semantics: the next ScanLen() records from k upward
		// (an open upper bound plus a limit, not a fixed key interval —
		// the key space is only half dense).
		c.Scan(k, math.MaxUint64, mix.ScanLen())
	default:
		panic(fmt.Sprintf("harness: unhandled YCSBOp %v", op))
	}
}

// PrefillKV loads the deterministic half of [1, KeyRange] into the
// store (same coin and parallel shuffled order as Prefill; see
// forEachPrefillKey).
func PrefillKV(st *kv.Store, spec Spec) {
	forEachPrefillKey(spec, func() (func(k uint64), func()) {
		c := st.Register()
		return func(k uint64) { c.Put(k, k) }, c.Close
	})
}

// runTimedKV measures one YCSB point against a sharded kv.Store.
func runTimedKV(spec Spec) (Result, error) {
	st, err := NewKVInstance(spec)
	if err != nil {
		return Result{}, err
	}
	PrefillKV(st, spec)
	st.SetStallInjection(spec.StallEvery)

	r0, e0 := st.OptimisticStats()
	so0 := st.ShardOps()
	res, err := measure(spec, func(w int, begin func(), stop *atomic.Bool, hist *LatencyHist) (uint64, error) {
		c := st.Register()
		defer c.Close()
		mix, err := NewYCSBMix(spec, uint64(w))
		if err != nil {
			return 0, err
		}
		begin()
		var n uint64
		for !stop.Load() {
			op, k := mix.Next()
			t0 := time.Now()
			ApplyYCSBOp(c, mix, op, k, n)
			hist.Record(time.Since(t0))
			n++
		}
		return n, nil
	})
	if err == nil {
		r1, e1 := st.OptimisticStats()
		res.OptRestarts, res.OptEscalations = r1-r0, e1-e0
		if res.Metrics != nil {
			// Workers closed their clients inside the window (measure waits
			// for them), so the fold-on-Close totals now cover it.
			res.Metrics.ShardOps = subSlices(st.ShardOps(), so0)
		}
	}
	return res, err
}

// NewTxnInstance builds the transactional store for a TxnMix spec
// (exported for the root benchmarks, which drive their own worker
// loops). The mode follows the spec: TxnNonAtomic wins, then Blocking.
func NewTxnInstance(spec Spec) (*txn.Store, error) {
	f, ok := registry[spec.Structure]
	if !ok {
		return nil, fmt.Errorf("harness: unknown structure %q (have %v)", spec.Structure, Structures())
	}
	if !txnCapable[spec.Structure] {
		return nil, fmt.Errorf("harness: structure %q cannot back the txn layer (its operations are not simply-nested flock thunks; use one of %v)",
			spec.Structure, TxnCapableStructures())
	}
	if _, err := workload.NewTxnMix(spec.TxnMix, spec.KeyRange, spec.Alpha, spec.TxnSize, spec.Seed); err != nil {
		return nil, err
	}
	mode := txn.LockFree
	if spec.Blocking {
		mode = txn.Blocking
	}
	if spec.TxnNonAtomic {
		mode = txn.NonAtomic
	}
	return txn.New(kv.Factory(f), txn.Options{
		Shards:          spec.Shards,
		Mode:            mode,
		NoPool:          spec.NoPool,
		KeyRange:        spec.KeyRange,
		OptimisticReads: spec.Optimistic,
	}), nil
}

// txnIncrement is the pure TxnFunc behind the TxnRMW mix operation:
// increment every key in the read set (upserting absent keys at 1).
// Callers outside the package go through ApplyTxnOp, the shared
// dispatch, so this stays unexported.
func txnIncrement(vals []uint64, oks []bool) ([]uint64, bool) {
	out := make([]uint64, len(vals))
	for i := range vals {
		out[i] = vals[i] + 1
	}
	return out, true
}

// ApplyTxnOp applies one generated transaction to the client — the
// single dispatch both the harness driver and the root benchmarks use,
// so the two can never silently measure different operations for the
// same mix. n is the worker's operation counter (salts write values);
// vbuf is a reusable scratch for write values (the client copies its
// inputs) and the possibly-grown scratch is returned. Unknown kinds
// panic: a new TxnOp must be wired here, not absorbed as a read.
func ApplyTxnOp(c *txn.Client, op workload.TxnOp, keys []uint64, n uint64, vbuf []uint64) []uint64 {
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
	default:
		panic(fmt.Sprintf("harness: unhandled TxnOp %v", op))
	}
	return vbuf
}

// runTimedTxn measures one transactional point against a txn.Store.
func runTimedTxn(spec Spec) (Result, error) {
	st, err := NewTxnInstance(spec)
	if err != nil {
		return Result{}, err
	}
	if spec.SnapshotLoop && !st.KV().Scannable() {
		return Result{}, fmt.Errorf("harness: snapshot loop requested but structure %q does not implement set.Scanner (ordered snapshots need ordered scans)",
			spec.Structure)
	}
	PrefillKV(st.KV(), spec)
	st.SetStallInjection(spec.StallEvery)

	// The snapshot loop runs beside the measured workload: snapshot,
	// iterate fully, close, repeat. The stop flag is checked only after
	// a completed cycle so even the shortest window measures at least
	// one whole-store iteration. Worker setup outside the window is
	// microseconds, so counting the loop against Result.Elapsed is fair.
	var snapCycles, snapKeys uint64
	var snapStop atomic.Bool
	var snapWG sync.WaitGroup
	if spec.SnapshotLoop {
		snapWG.Add(1)
		go func() {
			defer snapWG.Done()
			for {
				sn := st.KV().Snapshot()
				sn.Iterate(0, math.MaxUint64, func(_, _ uint64) bool {
					snapKeys++
					return true
				})
				sn.Close()
				snapCycles++
				if snapStop.Load() {
					return
				}
			}
		}()
	}

	r0, e0 := st.KV().OptimisticStats()
	so0 := st.KV().ShardOps()
	res, err := measure(spec, func(w int, begin func(), stop *atomic.Bool, hist *LatencyHist) (uint64, error) {
		c := st.Register()
		defer c.Close()
		mix, err := workload.NewTxnMix(spec.TxnMix, spec.KeyRange, spec.Alpha,
			spec.TxnSize, spec.Seed+uint64(w)*0x9e3779b9)
		if err != nil {
			return 0, err
		}
		var vbuf []uint64 // ApplyTxnOp's write-value scratch
		begin()
		var n uint64
		for !stop.Load() {
			op, keys := mix.Next()
			t0 := time.Now()
			vbuf = ApplyTxnOp(c, op, keys, n, vbuf)
			hist.Record(time.Since(t0))
			n++
		}
		return n, nil
	})
	if spec.SnapshotLoop {
		snapStop.Store(true)
		snapWG.Wait()
		res.SnapCycles, res.SnapKeys = snapCycles, snapKeys
	}
	if err == nil {
		r1, e1 := st.KV().OptimisticStats()
		res.OptRestarts, res.OptEscalations = r1-r0, e1-e0
		if res.Metrics != nil {
			res.Metrics.ShardOps = subSlices(st.KV().ShardOps(), so0)
		}
	}
	return res, err
}

// measure runs spec.Threads workers for spec.Duration and aggregates
// op counts and latency histograms. The worker body must call begin()
// exactly once, after its per-worker setup (registration, generator
// construction — including first-use zeta sums, linear in the key
// range): begin is the start barrier, so setup time is excluded from
// the measured window. A worker that returns without calling begin
// (setup error) releases the barrier on its way out.
func measure(spec Spec, worker func(w int, begin func(), stop *atomic.Bool, hist *LatencyHist) (uint64, error)) (Result, error) {
	var stop atomic.Bool
	var total atomic.Uint64
	hists := make([]*LatencyHist, spec.Threads)
	counts := make([]uint64, spec.Threads) // per-worker op counts (fairness)
	errs := make([]error, spec.Threads)
	start := make(chan struct{})
	// Worker goroutines carry pprof labels so a CPU profile of a figure
	// run attributes samples per series (structure × mode × figure).
	labels := pprof.Labels(
		"structure", spec.Structure,
		"mode", spec.modeLabel(),
		"figure", spec.figureLabel(),
	)
	if spec.Metrics {
		// The obs flag is global; save/restore lets nested or back-to-back
		// runs with different Metrics settings compose.
		prev := obs.Enabled()
		obs.SetEnabled(true)
		defer obs.SetEnabled(prev)
	}
	var dumper *traceDumper
	if spec.Trace {
		// Same save/restore discipline as the obs flag; Reset opens a
		// fresh collection window so the snapshot covers only this run.
		prev := trace.Enabled()
		trace.SetEnabled(true)
		defer trace.SetEnabled(prev)
		trace.Reset()
		if spec.TraceDump != "" {
			dumper = newTraceDumper(spec.TraceDump, spec.TraceDumpP99Mult)
		}
	}
	var ready, wg sync.WaitGroup
	for w := 0; w < spec.Threads; w++ {
		hists[w] = NewLatencyHist()
		if dumper != nil {
			hists[w].SetAnomaly(dumper.observe)
		}
		ready.Add(1)
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			pprof.Do(context.Background(), labels, func(context.Context) {
				began := false
				begin := func() {
					if !began {
						began = true
						ready.Done()
						<-start
					}
				}
				defer begin()
				n, err := worker(w, begin, &stop, hists[w])
				errs[w] = err
				counts[w] = n // w's slot only; read after wg.Wait
				total.Add(n)
			})
		}(w)
	}
	ready.Wait()
	// Allocation accounting brackets exactly the measured window: worker
	// setup (registration, zipf zeta sums) happened before begin(), and
	// ReadMemStats itself runs outside the window.
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	var s0 obs.Counts
	if spec.Metrics {
		s0 = obs.Snapshot()
	}
	t0 := time.Now()
	close(start)
	var samples []MetricSample
	var samplerStop, samplerDone chan struct{}
	if spec.Metrics {
		samplerStop, samplerDone = make(chan struct{}), make(chan struct{})
		go func() {
			defer close(samplerDone)
			interval := spec.MetricsInterval
			if interval <= 0 {
				interval = spec.Duration / 8
			}
			if interval < time.Millisecond {
				interval = time.Millisecond
			}
			tick := time.NewTicker(interval)
			defer tick.Stop()
			for {
				select {
				case <-samplerStop:
					return
				case <-tick.C:
					d := obs.Snapshot().Sub(s0)
					var ms runtime.MemStats
					runtime.ReadMemStats(&ms)
					samples = append(samples, MetricSample{
						AtMs:       time.Since(t0).Seconds() * 1e3,
						Helps:      d.Get(obs.HelpsGiven),
						CASFails:   d.Get(obs.InstallCASFails),
						Goroutines: runtime.NumGoroutine(),
						GCPauseNs:  ms.PauseTotalNs - ms0.PauseTotalNs,
					})
				}
			}
		}()
	}
	time.Sleep(spec.Duration)
	if spec.Metrics {
		// Stop the sampler while the workers still run, so no tick is
		// stamped after el (the closing sample's time) and no tick's
		// snapshot races a worker folding its block on exit.
		close(samplerStop)
		<-samplerDone
	}
	stop.Store(true)
	wg.Wait()
	el := time.Since(t0)
	runtime.ReadMemStats(&ms1)

	merged := NewLatencyHist()
	for _, h := range hists {
		merged.Merge(h)
	}
	for _, err := range errs {
		if err != nil {
			return Result{}, err
		}
	}
	ops := total.Load()
	res := Result{
		Ops:     ops,
		Elapsed: el,
		Mops:    float64(ops) / el.Seconds() / 1e6,
		Hist:    merged,
	}
	res.FairMaxMin, res.FairCoV = fairness(counts)
	if ops > 0 {
		res.AllocsPerOp = float64(ms1.Mallocs-ms0.Mallocs) / float64(ops)
	}
	if spec.Metrics {
		// Final snapshot after wg.Wait: every worker has unregistered, so
		// its block is folded into the retired totals and the delta covers
		// the whole window (plus the workers' post-stop partial ops —
		// symmetric with how Ops counts them).
		d := obs.Snapshot().Sub(s0)
		samples = append(samples, MetricSample{
			AtMs:       el.Seconds() * 1e3,
			Helps:      d.Get(obs.HelpsGiven),
			CASFails:   d.Get(obs.InstallCASFails),
			Goroutines: runtime.NumGoroutine(),
			GCPauseNs:  ms1.PauseTotalNs - ms0.PauseTotalNs,
		})
		res.Metrics = &MetricsWindow{Window: d, Samples: samples}
	}
	if spec.Trace {
		// Snapshot after wg.Wait: exited workers' rings are on the
		// retired list, so the stitched stream covers every worker.
		tr := trace.Snapshot()
		res.Trace = &tr
	}
	return res, nil
}

// Stats summarizes repeated runs of one spec: throughput mean and
// standard deviation, latency percentiles from the histograms merged
// across the measured repetitions, mean allocations per operation, and
// the optimistic-read counters totalled over the measured repetitions
// (Spec.Optimistic KV runs only; zero otherwise).
type Stats struct {
	Mops, Std     float64
	AllocsPerOp   float64
	P50, P95, P99 time.Duration
	// Ops totals completed operations across the measured repetitions
	// (the denominator for the per-op metric rates).
	Ops uint64
	// OptRestarts and OptEscalations total the failed optimistic
	// validation attempts and locked-path fallbacks across the measured
	// repetitions — the restart-storm observability the escalation
	// guard tests rely on.
	OptRestarts    uint64
	OptEscalations uint64
	// FairMaxMin and FairCoV are the per-thread op-count spread, averaged
	// over the measured repetitions (Result doc).
	FairMaxMin float64
	FairCoV    float64
	// SnapCycles totals the background snapshot loop's whole-store
	// iterations across the measured repetitions; SnapKeysPerSec is the
	// loop's mean iterated-key rate (zero unless Spec.SnapshotLoop).
	SnapCycles     uint64
	SnapKeysPerSec float64
	// Metrics aggregates the obs windows of the measured repetitions
	// (counter deltas and shard ops summed; time series from the last
	// repetition); nil unless Spec.Metrics was set.
	Metrics *MetricsWindow
	// Trace is the last measured repetition's flight-recorder snapshot
	// (rings are overwritten across repetitions, so only the final
	// window survives intact); nil unless Spec.Trace was set.
	Trace *trace.Trace
}

// RunStats performs warmup runs followed by measured repetitions,
// following the paper's methodology (one warmup, average of the rest).
func RunStats(spec Spec, warmup, repeats int) (Stats, error) {
	for i := 0; i < warmup; i++ {
		if _, err := RunTimed(spec); err != nil {
			return Stats{}, err
		}
	}
	if repeats < 1 {
		repeats = 1
	}
	vals := make([]float64, 0, repeats)
	merged := NewLatencyHist()
	var allocs float64
	var st Stats
	for i := 0; i < repeats; i++ {
		r, err := RunTimed(spec)
		if err != nil {
			return Stats{}, err
		}
		vals = append(vals, r.Mops)
		allocs += r.AllocsPerOp
		merged.Merge(r.Hist)
		st.Ops += r.Ops
		st.OptRestarts += r.OptRestarts
		st.OptEscalations += r.OptEscalations
		st.FairMaxMin += r.FairMaxMin
		st.FairCoV += r.FairCoV
		st.SnapCycles += r.SnapCycles
		if r.Elapsed > 0 {
			st.SnapKeysPerSec += float64(r.SnapKeys) / r.Elapsed.Seconds()
		}
		if r.Metrics != nil {
			if st.Metrics == nil {
				st.Metrics = &MetricsWindow{}
			}
			st.Metrics.Window = st.Metrics.Window.Add(r.Metrics.Window)
			st.Metrics.ShardOps = addSlices(st.Metrics.ShardOps, r.Metrics.ShardOps)
			st.Metrics.Samples = r.Metrics.Samples // last repetition's series
		}
		if r.Trace != nil {
			st.Trace = r.Trace // last repetition's window
		}
	}
	st.AllocsPerOp = allocs / float64(repeats)
	st.FairMaxMin /= float64(repeats)
	st.FairCoV /= float64(repeats)
	st.SnapKeysPerSec /= float64(repeats)
	for _, v := range vals {
		st.Mops += v
	}
	st.Mops /= float64(len(vals))
	for _, v := range vals {
		st.Std += (v - st.Mops) * (v - st.Mops)
	}
	st.Std = math.Sqrt(st.Std / float64(len(vals)))
	st.P50 = merged.Quantile(0.50)
	st.P95 = merged.Quantile(0.95)
	st.P99 = merged.Quantile(0.99)
	return st, nil
}

// RunAveraged is the throughput-only form of RunStats, kept for callers
// that do not need latency percentiles.
func RunAveraged(spec Spec, warmup, repeats int) (mean, std float64, err error) {
	st, err := RunStats(spec, warmup, repeats)
	if err != nil {
		return 0, 0, err
	}
	return st.Mops, st.Std, nil
}
