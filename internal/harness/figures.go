package harness

import (
	"fmt"
	"runtime"
	"sort"
	"strconv"
	"time"
)

// Scale holds the machine- and time-budget-dependent knobs for the
// figure experiments. The paper's runs use 100M/100K key ranges, 3 s
// runs and 144 hardware threads; DefaultScale shrinks the ranges and
// durations so a full figure regenerates in seconds, and sizes the
// thread counts off GOMAXPROCS (on this repository's 1-CPU reference
// box every multi-worker point is oversubscribed, which is the regime
// the paper's headline results are about — see EXPERIMENTS.md).
type Scale struct {
	LargeKeys uint64 // stands in for the paper's 100M out-of-cache range
	SmallKeys uint64 // stands in for the paper's 100K in-cache range
	ListKeys  uint64 // fig7b's 100-key list
	Duration  time.Duration
	Warmup    int
	Repeats   int
	Threads   []int // thread sweep for the *a/*e figures
	Base      int   // the paper's "144 threads" full-subscription point
	Over      int   // the paper's "216 threads" oversubscribed point
	Shards    int   // default kv.Store shard count for the ext-ycsb figures
	Seed      uint64
	// Metrics enables obs runtime-metrics collection for every point of
	// the figure (figures that exist to show the metrics, like ext-help,
	// force it on regardless).
	Metrics bool
}

// DefaultScale returns the scaled-down defaults.
func DefaultScale() Scale {
	base := max(2*runtime.GOMAXPROCS(0), 4)
	return Scale{
		LargeKeys: 100_000,
		SmallKeys: 10_000,
		ListKeys:  100,
		Duration:  100 * time.Millisecond,
		Warmup:    0,
		Repeats:   1,
		Threads:   []int{1, 2, 4, 8, 16, 32},
		Base:      base,
		Over:      3 * base,
		Shards:    8,
		Seed:      42,
	}
}

// Series names one line in a figure and embeds the spec fields that set
// it apart: Structure, Blocking, HashKeys, Shards, TxnNonAtomic,
// Optimistic and SnapshotLoop. On the KV and transactional figures
// Shards 0 means Scale.Shards and 1 is the unsharded control.
type Series struct {
	Name string
	Spec
}

// Figure is a fully measured figure.
type Figure struct {
	ID     string
	Paper  string // what the paper's figure shows
	XLabel string
	Points []Point
}

// axis is what a figure's x value sets in each point's spec, with its
// label and the x values it sweeps unless the figure lists its own.
type axis struct {
	label string
	xs    func(Scale) []string
	set   func(sp *Spec, x string)
}

// FigureSpec describes how to regenerate one figure: the series it
// plots, the workload fields every point shares (Spec's UpdatePct,
// Alpha, YCSB, TxnMix, TxnSize and Metrics), where the key range and
// thread count come from on a Scale, and the axis the x values sweep.
type FigureSpec struct {
	ID      string
	Paper   string
	Series  []Series
	Spec    Spec
	Keys    func(Scale) uint64 // nil when the axis sets the key range
	Threads func(Scale) int    // nil when the axis sets the thread count
	Axis    axis
	X       []string // x values, when not the axis's default
}

// XLabel names the x axis.
func (fs FigureSpec) XLabel() string { return fs.Axis.label }

// Xs lists the figure's x values at a scale.
func (fs FigureSpec) Xs(sc Scale) []string {
	if fs.X != nil {
		return fs.X
	}
	return fs.Axis.xs(sc)
}

// SpecFor builds the measurement spec for a series at an x value.
func (fs FigureSpec) SpecFor(sc Scale, s Series, x string) Spec {
	sp := s.Spec
	f := fs.Spec
	sp.UpdatePct, sp.Alpha, sp.YCSB, sp.TxnMix, sp.TxnSize, sp.Metrics = f.UpdatePct, f.Alpha, f.YCSB, f.TxnMix, f.TxnSize, f.Metrics
	sp.Duration, sp.Seed = sc.Duration, sc.Seed
	if fs.Keys != nil {
		sp.KeyRange = fs.Keys(sc)
	}
	if fs.Threads != nil {
		sp.Threads = fs.Threads(sc)
	}
	if (sp.YCSB != "" || sp.TxnMix != "") && sp.Shards == 0 {
		sp.Shards = sc.Shards
	}
	fs.Axis.set(&sp, x)
	return sp
}

// Key-range and thread-count sources on a Scale.
var (
	smallKeys   = func(sc Scale) uint64 { return sc.SmallKeys }
	largeKeys   = func(sc Scale) uint64 { return sc.LargeKeys }
	listKeys    = func(sc Scale) uint64 { return sc.ListKeys }
	baseThreads = func(sc Scale) int { return sc.Base }
	overThreads = func(sc Scale) int { return sc.Over }
)

func fixed(xs ...string) func(Scale) []string { return func(Scale) []string { return xs } }

// The x axes.
var (
	byThreads = axis{"threads", func(sc Scale) []string {
		var out []string
		for _, t := range sc.Threads {
			out = append(out, fmt.Sprint(t))
		}
		return out
	}, func(sp *Spec, x string) { sp.Threads = atoi(x) }}
	byAlpha  = axis{"zipfian alpha", fixed("0", "0.75", "0.9", "0.99"), func(sp *Spec, x string) { sp.Alpha = atof(x) }}
	byUpdate = axis{"update %", fixed("0", "5", "10", "50"), func(sp *Spec, x string) { sp.UpdatePct = atoi(x) }}
	byKeys   = axis{"key range", func(sc Scale) []string {
		var out []string
		for r := uint64(1000); r <= sc.LargeKeys; r *= 10 {
			out = append(out, fmt.Sprint(r))
		}
		return out
	}, func(sp *Spec, x string) { sp.KeyRange = uint64(atoi(x)) }}
	byStall   = axis{"stall every", fixed("0", "1000", "100", "20"), func(sp *Spec, x string) { sp.StallEvery = atoi(x) }}
	byScanLen = axis{"max scan length", fixed("1", "8", "64", "256"), func(sp *Spec, x string) { sp.ScanLen = atoi(x) }}
	byTxnSize = axis{"keys/txn", fixed("1", "2", "4", "8", "16"), func(sp *Spec, x string) { sp.TxnSize = atoi(x) }}
	byShards  = axis{"shards", fixed("1", "2", "4", "8", "16"), func(sp *Spec, x string) { sp.Shards = atoi(x) }}
	// byThreadsAtStall is "threads@stall-every": full subscription and
	// oversubscription, each with no, mild and aggressive stall injection.
	byThreadsAtStall = axis{"threads@stall-every", func(sc Scale) []string {
		var out []string
		for _, t := range []int{sc.Base, sc.Over} {
			for _, st := range []string{"0", "200", "20"} {
				out = append(out, fmt.Sprintf("%d@%s", t, st))
			}
		}
		return out
	}, func(sp *Spec, x string) {
		if _, err := fmt.Sscanf(x, "%d@%d", &sp.Threads, &sp.StallEvery); err != nil {
			panic(fmt.Sprintf("harness: malformed threads@stall x value %q: %v", x, err))
		}
	}}
)

// atof and atoi parse x-axis values from the figure spec tables. The
// tables are compile-time data, so a malformed value is a programming
// error: these panic instead of silently yielding 0 (which would turn a
// typo into a nonsense spec that still "runs").
func atof(s string) float64 {
	f, err := strconv.ParseFloat(s, 64)
	if err != nil {
		panic(fmt.Sprintf("harness: malformed numeric x value %q: %v", s, err))
	}
	return f
}

func atoi(s string) int {
	n, err := strconv.Atoi(s)
	if err != nil {
		panic(fmt.Sprintf("harness: malformed integer x value %q: %v", s, err))
	}
	return n
}

// Series arms that several figures share.
var (
	leaftreeBL    = Series{"leaftree-bl", Spec{Structure: "leaftree", Blocking: true}}
	leaftreeLF    = Series{"leaftree-lf", Spec{Structure: "leaftree"}}
	leaftreapBL   = Series{"leaftreap-bl", Spec{Structure: "leaftreap", Blocking: true}}
	leaftreapLF   = Series{"leaftreap-lf", Spec{Structure: "leaftreap"}}
	hashtableBL   = Series{"hashtable-bl", Spec{Structure: "hashtable", Blocking: true}}
	hashtableLF   = Series{"hashtable-lf", Spec{Structure: "hashtable"}}
	kvLeaftreeLF  = Series{"kv-leaftree-lf", Spec{Structure: "leaftree"}}
	kvLeaftreeBL  = Series{"kv-leaftree-bl", Spec{Structure: "leaftree", Blocking: true}}
	kvLeaftreeOpt = Series{"kv-leaftree-opt", Spec{Structure: "leaftree", Optimistic: true}}
	kvHashtableLF = Series{"kv-hashtable-lf", Spec{Structure: "hashtable"}}
	txnLeaftreeLF = Series{"txn-leaftree-lf", Spec{Structure: "leaftree"}}
	txnLeaftreeBL = Series{"txn-leaftree-bl", Spec{Structure: "leaftree", Blocking: true}}
)

// Series sets that several figures share.
var (
	// Figure 5: binary trees. Substitutions per DESIGN.md S4/S5:
	// leaftreap-bl stands in for Bronson/Drachsler (blocking, balanced),
	// leaftreap-lf for Chromatic (lock-free, balanced).
	treeSeries = []Series{leaftreeBL, leaftreeLF, leaftreapBL, leaftreapLF,
		{"natarajan", Spec{Structure: "natarajan"}}, {"ellen", Spec{Structure: "ellen"}}}
	// Figure 6: other set structures; abtree-strict-bl stands in for
	// srivastava_abtree, and olcart (optimistic lock coupling) is the
	// hand-crafted competitor for the two flock arttree series.
	otherSeries = []Series{
		{"arttree-bl", Spec{Structure: "arttree", Blocking: true, HashKeys: true}},
		{"arttree-lf", Spec{Structure: "arttree", HashKeys: true}},
		{"olcart", Spec{Structure: "olcart", HashKeys: true}},
		leaftreapBL, leaftreapLF, hashtableBL, hashtableLF,
		{"abtree-bl", Spec{Structure: "abtree", Blocking: true}},
		{"abtree-lf", Spec{Structure: "abtree"}},
		{"srivastava_abtree", Spec{Structure: "abtree-strict", Blocking: true}},
	}
	// Figure 7: linked lists.
	listSeries = []Series{
		{"harris_list", Spec{Structure: "harris"}},
		{"harris_list_opt", Spec{Structure: "harris_opt"}},
		{"lazylist-bl", Spec{Structure: "lazylist", Blocking: true}},
		{"lazylist-lf", Spec{Structure: "lazylist"}},
		{"dlist-bl", Spec{Structure: "dlist", Blocking: true}},
		{"dlist-lf", Spec{Structure: "dlist"}},
	}
	// Extension: the KV layer (internal/kv) under YCSB mixes. Blocking
	// vs lock-free on the same sharded store, plus an unsharded control
	// (Shards: 1) showing what sharding itself buys; hashtable-lf adds
	// the structure the paper found cheapest to make lock-free.
	kvSeries = []Series{kvLeaftreeLF, kvLeaftreeBL, kvLeaftreeOpt,
		{"kv-leaftree-lf-1shard", Spec{Structure: "leaftree", Shards: 1}}, kvHashtableLF}
	// Extension: the transactional layer (internal/txn, DESIGN.md S11).
	// Three arms per structure: composed lock-free try-locks, the same
	// composition over blocking locks, and the naive per-key non-atomic
	// baseline (which is fast but tears multi-writes — throughput it
	// buys by not being a transaction at all).
	txnSeries = []Series{txnLeaftreeLF, txnLeaftreeBL,
		{"txn-leaftree-na", Spec{Structure: "leaftree", TxnNonAtomic: true}},
		{"txn-hashtable-lf", Spec{Structure: "hashtable"}},
		{"txn-hashtable-bl", Spec{Structure: "hashtable", Blocking: true}},
		{"txn-hashtable-na", Spec{Structure: "hashtable", TxnNonAtomic: true}},
	}
)

// figures is the experiment index (DESIGN.md S8). The paper's set-mix
// figures differ only in key range, threads, update % and alpha, and in
// which of them the x axis sweeps.
var figures = []FigureSpec{
	{ID: "fig4", Paper: "Fig 4: try vs strict lock, 100K keys, 144 threads, 50% updates, zipfian sweep",
		Series: []Series{
			{"leaftree-trylock-bl", Spec{Structure: "leaftree", Blocking: true}},
			{"leaftree-trylock-lf", Spec{Structure: "leaftree"}},
			{"leaftree-strictlock-bl", Spec{Structure: "leaftree-strict", Blocking: true}},
			{"leaftree-strictlock-lf", Spec{Structure: "leaftree-strict"}},
		},
		Spec: Spec{UpdatePct: 50}, Keys: smallKeys, Threads: baseThreads, Axis: byAlpha},
	{ID: "fig5a", Paper: "Fig 5a: trees, 100M keys, 50% updates, alpha 0.75, thread sweep",
		Series: treeSeries, Spec: Spec{UpdatePct: 50, Alpha: 0.75}, Keys: largeKeys, Axis: byThreads},
	{ID: "fig5b", Paper: "Fig 5b: trees, 100M keys, 144 threads, alpha 0.75, update sweep",
		Series: treeSeries, Spec: Spec{Alpha: 0.75}, Keys: largeKeys, Threads: baseThreads, Axis: byUpdate},
	{ID: "fig5c", Paper: "Fig 5c: trees, 100M keys, 144 threads, 50% updates, zipfian sweep",
		Series: treeSeries, Spec: Spec{UpdatePct: 50}, Keys: largeKeys, Threads: baseThreads, Axis: byAlpha},
	{ID: "fig5d", Paper: "Fig 5d: trees, 100M keys, 216 threads (oversubscribed), 50% updates, zipfian sweep",
		Series: treeSeries, Spec: Spec{UpdatePct: 50}, Keys: largeKeys, Threads: overThreads, Axis: byAlpha},
	{ID: "fig5e", Paper: "Fig 5e: trees, 100K keys, 50% updates, alpha 0.75, thread sweep",
		Series: treeSeries, Spec: Spec{UpdatePct: 50, Alpha: 0.75}, Keys: smallKeys, Axis: byThreads},
	{ID: "fig5f", Paper: "Fig 5f: trees, 100K keys, 144 threads, alpha 0.75, update sweep",
		Series: treeSeries, Spec: Spec{Alpha: 0.75}, Keys: smallKeys, Threads: baseThreads, Axis: byUpdate},
	{ID: "fig5g", Paper: "Fig 5g: trees, 100K keys, 216 threads (oversubscribed), 5% updates, zipfian sweep",
		Series: treeSeries, Spec: Spec{UpdatePct: 5}, Keys: smallKeys, Threads: overThreads, Axis: byAlpha},
	{ID: "fig5h", Paper: "Fig 5h: trees, 216 threads (oversubscribed), 5% updates, alpha 0.75, size sweep",
		Series: treeSeries, Spec: Spec{UpdatePct: 5, Alpha: 0.75}, Threads: overThreads, Axis: byKeys},
	{ID: "fig6a", Paper: "Fig 6a: other sets, 100M keys, 50% updates, alpha 0.75, thread sweep",
		Series: otherSeries, Spec: Spec{UpdatePct: 50, Alpha: 0.75}, Keys: largeKeys, Axis: byThreads},
	{ID: "fig6b", Paper: "Fig 6b: other sets, 100M keys, 216 threads (oversubscribed), 50% updates, zipfian sweep",
		Series: otherSeries, Spec: Spec{UpdatePct: 50}, Keys: largeKeys, Threads: overThreads, Axis: byAlpha},
	{ID: "fig7a", Paper: "Fig 7a: lists, 144 threads, 5% updates, alpha 0.75, size sweep",
		Series: listSeries, Spec: Spec{UpdatePct: 5, Alpha: 0.75}, Threads: baseThreads, Axis: byKeys,
		X: []string{"100", "1000", "10000"}},
	{ID: "fig7b", Paper: "Fig 7b: lists, 100 keys, 5% updates, alpha 0.75, thread sweep",
		Series: listSeries, Spec: Spec{UpdatePct: 5, Alpha: 0.75}, Keys: listKeys, Axis: byThreads},
	// Extension (not a paper figure): the oversubscription phenomenon
	// made explicit. On the paper's 144-core testbed the OS deschedules
	// lock holders naturally; here a holder is forced to yield inside
	// every N-th critical section and the x axis sweeps N (0 = no
	// injection). Lock-free mode should be flat; blocking mode should
	// collapse as N shrinks.
	{ID: "ext-stall", Paper: "Extension: deschedule-injection sweep, oversubscribed, 50% updates, alpha 0.75",
		Series: []Series{leaftreeBL, leaftreeLF, hashtableBL, hashtableLF},
		Spec:   Spec{UpdatePct: 50, Alpha: 0.75}, Keys: smallKeys, Threads: overThreads, Axis: byStall},
	// Extension: the §6 memory management. The paper's thunk machinery
	// is practical only because log/descriptor overhead stays near zero;
	// this figure reads out allocs/op (and Mop/s) of the lock-free arm,
	// whose descriptors are pooled, against the blocking arm, which has
	// none, at increasing update rates.
	{ID: "ext-alloc", Paper: "Extension: allocations per operation — lock-free (pooled descriptors) vs blocking, update sweep",
		Series: []Series{leaftreeLF, leaftreeBL, hashtableLF, hashtableBL},
		Spec:   Spec{Alpha: 0.75}, Keys: smallKeys, Threads: baseThreads, Axis: byUpdate,
		X: []string{"0", "10", "50"}},
	// Extension: the helping machinery made visible (DESIGN.md S14). With
	// obs metrics forced on (they are this figure's payload), the
	// lock-free arm's helping rate should rise with both
	// oversubscription and stall frequency, while the blocking arm
	// records no helping at all — the machinery ext-stall shows as a
	// throughput gap, read out directly as events.
	{ID: "ext-help", Paper: "Extension: helping and retry rates under oversubscription and stall injection, 50% updates, alpha 0.75",
		Series: []Series{leaftreeLF, leaftreeBL},
		Spec:   Spec{UpdatePct: 50, Alpha: 0.75, Metrics: true}, Keys: smallKeys, Axis: byThreadsAtStall},

	// Extension: YCSB mixes against the sharded KV layer (DESIGN.md S9),
	// zipfian 0.99 (YCSB's default skew): the figures where the helping
	// win appears as tail latency (p99), not just Mop/s.
	{ID: "ext-ycsb-a", Paper: "Extension: YCSB-a (50% read / 50% update) on the sharded KV store, zipfian 0.99, thread sweep",
		Series: kvSeries, Spec: Spec{YCSB: "a", Alpha: 0.99}, Keys: smallKeys, Axis: byThreads},
	{ID: "ext-ycsb-b", Paper: "Extension: YCSB-b (95% read / 5% update) on the sharded KV store, zipfian 0.99, thread sweep",
		Series: kvSeries, Spec: Spec{YCSB: "b", Alpha: 0.99}, Keys: smallKeys, Axis: byThreads},
	{ID: "ext-ycsb-c", Paper: "Extension: YCSB-c (read-only) on the sharded KV store, zipfian 0.99, thread sweep",
		Series: kvSeries, Spec: Spec{YCSB: "c", Alpha: 0.99}, Keys: smallKeys, Axis: byThreads},
	{ID: "ext-ycsb-f", Paper: "Extension: YCSB-f (50% read / 50% read-modify-write) on the sharded KV store, zipfian 0.99, thread sweep",
		Series: kvSeries, Spec: Spec{YCSB: "f", Alpha: 0.99}, Keys: smallKeys, Axis: byThreads},
	// YCSB-E sweeps the maximum scan length at full subscription: longer
	// scans mean longer critical sections for the flock arms and more
	// revalidation surface (hence restarts) for the OLC baseline.
	{ID: "ext-ycsb-e", Paper: "Extension: YCSB-E (95% scan / 5% insert) on the sharded KV store, zipfian 0.99, scan-length sweep",
		Series: []Series{kvLeaftreeLF, kvLeaftreeBL, kvLeaftreeOpt,
			{"kv-abtree-lf", Spec{Structure: "abtree"}}, {"kv-olcart", Spec{Structure: "olcart"}}},
		Spec: Spec{YCSB: "e", Alpha: 0.99}, Keys: smallKeys, Threads: baseThreads, Axis: byScanLen},
	{ID: "ext-ycsb-shards", Paper: "Extension: YCSB-A on the KV store, oversubscribed threads, zipfian 0.99, shard sweep",
		Series: []Series{kvLeaftreeLF, kvLeaftreeBL, kvHashtableLF},
		Spec:   Spec{YCSB: "a", Alpha: 0.99}, Keys: smallKeys, Threads: overThreads, Axis: byShards},

	// Extension: multi-key atomic transactions (DESIGN.md S11). The
	// composability claim measured: blocking vs lock-free composed shard
	// locks vs the non-atomic per-key baseline, under the SmallBank-style
	// transfer mix (thread sweep) and the YCSB-T-like mix
	// (keys-per-transaction sweep — more keys, more shards locked per
	// composed critical section).
	{ID: "ext-txn", Paper: "Extension: transfer-mix transactions on the txn layer, zipfian 0.99, thread sweep",
		Series: txnSeries, Spec: Spec{TxnMix: "transfer", TxnSize: 2, Alpha: 0.99}, Keys: smallKeys, Axis: byThreads},
	{ID: "ext-txn-keys", Paper: "Extension: YCSB-T-like transactions, zipfian 0.99, keys-per-transaction sweep",
		Series: txnSeries, Spec: Spec{TxnMix: "ycsbt", Alpha: 0.99}, Keys: smallKeys, Threads: baseThreads, Axis: byTxnSize},
	// Extension: epoch-consistent whole-store snapshots (DESIGN.md S17)
	// under ext-txn's transfer storm. Two readouts per point: Mops (the
	// writers' throughput — compare with the loop-free arm for the
	// slowdown snapshots impose) and SnapKeysPerSec (how fast a
	// consistent whole-store iteration proceeds under the storm).
	{ID: "ext-snap", Paper: "Extension: whole-store snapshots under a transfer storm — writer slowdown and snapshot scan rate, thread sweep",
		Series: []Series{txnLeaftreeLF, {"txn-leaftree-lf+snap", Spec{Structure: "leaftree", SnapshotLoop: true}},
			txnLeaftreeBL, {"txn-leaftree-bl+snap", Spec{Structure: "leaftree", Blocking: true, SnapshotLoop: true}}},
		Spec: Spec{TxnMix: "transfer", TxnSize: 2, Alpha: 0.99}, Keys: smallKeys, Axis: byThreads},
}

// Figures returns the experiment index keyed by figure id.
func Figures() map[string]FigureSpec {
	out := map[string]FigureSpec{}
	for _, f := range figures {
		out[f.ID] = f
	}
	return out
}

// FigureIDs returns the sorted experiment ids.
func FigureIDs() []string {
	var ids []string
	for _, f := range figures {
		ids = append(ids, f.ID)
	}
	sort.Strings(ids)
	return ids
}

// RunFigure measures every (series, x) point of a figure.
func RunFigure(fs FigureSpec, sc Scale) (Figure, error) {
	fig := Figure{ID: fs.ID, Paper: fs.Paper, XLabel: fs.XLabel()}
	for _, x := range fs.Xs(sc) {
		for _, s := range fs.Series {
			spec := fs.SpecFor(sc, s, x)
			spec.Figure = fs.ID
			spec.Metrics = spec.Metrics || sc.Metrics
			pt, err := RunStats(spec, sc.Warmup, sc.Repeats)
			if err != nil {
				return fig, err
			}
			pt.Figure, pt.Series, pt.X = fs.ID, s.Name, x
			fig.Points = append(fig.Points, pt)
		}
	}
	return fig, nil
}
