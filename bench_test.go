// Package bench holds the figure-regeneration benchmarks: one
// testing.B benchmark per figure of the paper's evaluation section
// (Figures 4-7), driven by the same specs as cmd/flockbench but scaled
// for benchmark time budgets. Each sub-benchmark is one (series, x)
// point; ns/op is the per-operation latency and the Mops metric is the
// aggregate throughput the paper plots.
//
// Run everything:
//
//	go test -bench=. -benchmem -benchtime=50ms .
//
// Worker goroutines are created with b.SetParallelism, so a point with
// "threads" beyond GOMAXPROCS measures the oversubscribed regime, as in
// the right-hand sides of the paper's plots.
//
// Micro-ablations for the core mechanism (compare-and-compare-and-swap,
// log block chaining, update-once stores, descriptor overhead) live in
// internal/core's own benchmarks.
package bench

import (
	"fmt"
	"sync/atomic"
	"testing"
	"time"

	"flock/internal/harness"
)

// benchScale shrinks the figure specs so a full -bench=. pass stays in
// minutes: key ranges come down (the shape survives; see EXPERIMENTS.md
// for scale notes) and thread sweeps use three representative points.
func benchScale() harness.Scale {
	sc := harness.DefaultScale()
	sc.LargeKeys = 50_000
	sc.SmallKeys = 5_000
	sc.Threads = []int{1, 4, 16}
	sc.Base = 8
	sc.Over = 24
	sc.Shards = 4
	sc.Duration = 50 * time.Millisecond
	return sc
}

var workerSeq atomic.Uint64

// benchPoint measures one figure point: b.N operations spread over
// spec.Threads parallel workers against the structure, kv.Store or
// txn.Store the spec selects, built and prefilled by the harness's
// workload builder (the same one flockbench measures through).
func benchPoint(b *testing.B, spec harness.Spec) {
	b.Helper()
	worker, err := harness.Workers(spec)
	if err != nil {
		b.Fatal(err)
	}
	b.SetParallelism(spec.Threads) // GOMAXPROCS=1 core => exactly Threads workers
	b.ReportAllocs()               // allocs/op is a first-class metric (DESIGN.md S10)
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		op, done := worker(workerSeq.Add(1))
		defer done()
		for n := uint64(0); pb.Next(); n++ {
			op(n, false)
		}
	})
	b.StopTimer()
	if el := b.Elapsed().Seconds(); el > 0 {
		b.ReportMetric(float64(b.N)/el/1e6, "Mops")
	}
}

// benchFigure expands a figure spec into sub-benchmarks.
func benchFigure(b *testing.B, id string) {
	sc := benchScale()
	fs, ok := harness.Figures()[id]
	if !ok {
		b.Fatalf("unknown figure %s", id)
	}
	for _, x := range fs.Xs(sc) {
		for _, s := range fs.Series {
			spec := fs.SpecFor(sc, s, x)
			b.Run(fmt.Sprintf("x=%s/%s", x, s.Name), func(b *testing.B) {
				benchPoint(b, spec)
			})
		}
	}
}

// One benchmark per figure in the paper's evaluation (DESIGN.md S8).

func Benchmark_Fig4(b *testing.B)  { benchFigure(b, "fig4") }
func Benchmark_Fig5a(b *testing.B) { benchFigure(b, "fig5a") }
func Benchmark_Fig5b(b *testing.B) { benchFigure(b, "fig5b") }
func Benchmark_Fig5c(b *testing.B) { benchFigure(b, "fig5c") }
func Benchmark_Fig5d(b *testing.B) { benchFigure(b, "fig5d") }
func Benchmark_Fig5e(b *testing.B) { benchFigure(b, "fig5e") }
func Benchmark_Fig5f(b *testing.B) { benchFigure(b, "fig5f") }
func Benchmark_Fig5g(b *testing.B) { benchFigure(b, "fig5g") }
func Benchmark_Fig5h(b *testing.B) { benchFigure(b, "fig5h") }
func Benchmark_Fig6a(b *testing.B) { benchFigure(b, "fig6a") }
func Benchmark_Fig6b(b *testing.B) { benchFigure(b, "fig6b") }
func Benchmark_Fig7a(b *testing.B) { benchFigure(b, "fig7a") }
func Benchmark_Fig7b(b *testing.B) { benchFigure(b, "fig7b") }

// Benchmark_ExtStall is the descheduling-injection extension (the
// explicit form of the paper's oversubscription effect; DESIGN.md S3).
func Benchmark_ExtStall(b *testing.B) { benchFigure(b, "ext-stall") }

// Benchmark_ExtAlloc is the allocation ablation (DESIGN.md S10): pooled
// vs GC-fresh vs blocking, with -benchmem/ReportAllocs giving the
// per-operation allocation counts the figure's allocs/op column plots.
func Benchmark_ExtAlloc(b *testing.B) { benchFigure(b, "ext-alloc") }

// The transactional extension figures (DESIGN.md S11): multi-key
// atomic operations via composed lock-free locks, vs the blocking and
// non-atomic ablation arms.

func Benchmark_ExtTxn(b *testing.B)     { benchFigure(b, "ext-txn") }
func Benchmark_ExtTxnKeys(b *testing.B) { benchFigure(b, "ext-txn-keys") }

// The KV-layer YCSB extension figures (DESIGN.md S9).

func Benchmark_ExtYCSBA(b *testing.B)      { benchFigure(b, "ext-ycsb-a") }
func Benchmark_ExtYCSBB(b *testing.B)      { benchFigure(b, "ext-ycsb-b") }
func Benchmark_ExtYCSBC(b *testing.B)      { benchFigure(b, "ext-ycsb-c") }
func Benchmark_ExtYCSBE(b *testing.B)      { benchFigure(b, "ext-ycsb-e") }
func Benchmark_ExtYCSBF(b *testing.B)      { benchFigure(b, "ext-ycsb-f") }
func Benchmark_ExtYCSBShards(b *testing.B) { benchFigure(b, "ext-ycsb-shards") }
