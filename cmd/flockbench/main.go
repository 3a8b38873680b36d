// Command flockbench regenerates the paper's evaluation figures (Figures
// 4-7 of "Lock-Free Locks Revisited", PPoPP 2022) on this machine, or
// runs a single custom measurement point.
//
// Regenerate one figure (scaled-down defaults):
//
//	flockbench -figure fig5d
//
// Regenerate everything EXPERIMENTS.md reports:
//
//	flockbench -figure all -repeats 3 -warmup 1
//
// Run only some of a figure's series:
//
//	flockbench -figure ext-ycsb-e -series kv-leaftree-lf,kv-olcart
//
// Full-scale paper parameters (hours, needs a big machine):
//
//	flockbench -figure fig5a -largekeys 100000000 -duration 3s -repeats 3
//
// Single point:
//
//	flockbench -structure leaftree -threads 16 -keys 100000 -update 50 -alpha 0.99 -blocking
//
// Pit the flock ART against the specialized optimistic-lock-coupling
// ART baseline (both use hashed keys, as in Figure 6):
//
//	flockbench -structure arttree -threads 16 -hashkeys
//	flockbench -structure olcart -threads 16 -hashkeys
//
// The descheduling-injection extension (DESIGN.md S3):
//
//	flockbench -structure leaftree -threads 16 -stall 100
//
// The KV-layer YCSB extension (DESIGN.md S9) — sharded kv.Store, with
// p50/p95/p99 latency reported alongside Mop/s. YCSB-E (DESIGN.md S12)
// is the scan-heavy mix; -scanlen bounds its zipf-drawn scan lengths:
//
//	flockbench -figure ext-ycsb-a
//	flockbench -structure leaftree -ycsb f -shards 8 -threads 16
//	flockbench -structure leaftree -ycsb e -scanlen 64 -shards 8
//
// The allocation figure (DESIGN.md S10) — lock-free, whose
// descriptors are pooled, vs blocking, with allocs/op reported
// alongside Mop/s (single points report allocs/op too):
//
//	flockbench -figure ext-alloc
//
// The transactional extension (DESIGN.md S11) — multi-key atomic
// operations over the sharded store via composed lock-free locks. The
// blocking arm rides the same flags, and -nonatomic runs the harness's
// per-key baseline (per-key kv calls on a plain store, no shard locks):
//
//	flockbench -figure ext-txn
//	flockbench -structure leaftree -txn transfer -shards 8 -threads 16
//	flockbench -structure leaftree -txn ycsbt -txnsize 8 -nonatomic
//
// The snapshot extension (DESIGN.md S17) — epoch-consistent whole-store
// snapshots iterated by a background loop while the transfer storm
// runs. The "+snap" arms report the loop's cycle count and key rate in
// a dedicated table section (`:snap_*` CSV columns, `snap_*` JSON
// fields); comparing Mop/s against the loop-free arms reads out the
// slowdown concurrent snapshots impose on writers:
//
//	flockbench -figure ext-snap
//
// Enumerate every figure id with its series names (and the structure
// registry) without running anything:
//
//	flockbench -list
//
// An unknown -figure or -series name prints the same catalog and exits
// non-zero.
//
// The observability extension (DESIGN.md S14) — obs runtime metrics
// collected over the measured window: helping/retry/replay rates,
// pool hit rates, epoch reclamation lag, per-shard op skew, per-thread
// fairness and a sampled helps/CAS-fails time series. -metrics adds
// table sections (and `:metrics` CSV columns, and a "metrics" JSON
// object); ext-help is the figure built around them:
//
//	flockbench -figure ext-help
//	flockbench -figure ext-ycsb-a -metrics
//	flockbench -structure leaftree -threads 16 -stall 100 -metrics
//
// The flight-recorder extension (DESIGN.md S16) — per-Proc lock-event
// tracing over the measured window, exported as Chrome trace-event
// JSON (open in https://ui.perfetto.dev or chrome://tracing; one track
// per Proc, helping hand-offs drawn as flow arrows). -tracedump arms
// the anomaly dumper: the first op exceeding -tracedump-mult x the
// running p99 snapshots the rings while the outlier's surroundings are
// still in them:
//
//	flockbench -structure leaftree -threads 8 -stall 50 -trace out.json
//	flockbench -structure leaftree -ycsb a -trace out.json -tracedump slow.json -tracedump-mult 16
//
// Profiling and live scraping — net/http/pprof plus a /metrics JSON
// endpoint (obs counter snapshot, trace drop estimate, goroutine
// count):
//
//	flockbench -figure ext-ycsb-a -pprof :6060
//
// Machine-readable capture (one JSON record per point, JSONL):
//
//	flockbench -figure all -json > BENCH_all.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"slices"
	"strconv"
	"strings"
	"time"

	"flock/internal/harness"
	"flock/internal/obs/trace"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is main with its environment abstracted, so the CLI's flag
// handling — in particular the unknown-figure/-series paths — is
// testable. It returns the process exit code.
func run(args []string, stdout, stderr io.Writer) int {
	flags := flag.NewFlagSet("flockbench", flag.ContinueOnError)
	flags.SetOutput(stderr)
	var (
		figure    = flags.String("figure", "", "figure id to regenerate (fig4, fig5a..fig5h, fig6a, fig6b, fig7a, fig7b, ext-stall, ext-alloc, ext-help, ext-snap, ext-txn, ext-txn-keys, ext-ycsb-{a,b,c,e,f,shards}, or 'all')")
		series    = flags.String("series", "", "comma-separated series-name filter for -figure (default: all series)")
		list      = flags.Bool("list", false, "list figure ids with their series names, and structures")
		csv       = flags.Bool("csv", false, "emit CSV instead of a table")
		jsonOut   = flags.Bool("json", false, "emit one JSON record per point (JSONL) with Mops and latency percentiles")
		largeKeys = flags.Uint64("largekeys", 0, "override the 'large' key range (paper: 100M)")
		smallKeys = flags.Uint64("smallkeys", 0, "override the 'small' key range (paper: 100K)")
		duration  = flags.Duration("duration", 0, "per-point run duration (paper: 3s)")
		warmup    = flags.Int("warmup", -1, "warmup runs per point (paper: 1)")
		repeats   = flags.Int("repeats", 0, "measured runs per point (paper: 3)")
		baseTh    = flags.Int("base", 0, "'full subscription' thread count (paper: 144)")
		overTh    = flags.Int("over", 0, "oversubscribed thread count (paper: 216)")
		sweep     = flags.String("sweep", "", "comma-separated thread sweep, e.g. 1,2,4,8,16")
		shards    = flags.Int("shards", 0, "KV shard count (single-point -ycsb/-txn, and the default for ext-ycsb/ext-txn figures)")
		metrics   = flags.Bool("metrics", false, "collect obs runtime metrics over the measured window (helping/retry rates, fairness, time series); adds table sections, :metrics CSV columns and a 'metrics' JSON object")
		tracePath = flags.String("trace", "", "single-point: record the lock-event flight recorder over the measured window and write Chrome trace-event JSON to this file (open in Perfetto / chrome://tracing)")
		pprofAddr = flags.String("pprof", "", "serve net/http/pprof and a /metrics JSON endpoint on this address (e.g. :6060) for the lifetime of the run")
		seed      = flags.Uint64("seed", 42, "workload seed")
	)
	// Single-point mode fills spec straight from its flags.
	var spec harness.Spec
	flags.StringVar(&spec.Structure, "structure", "", "single-point mode: structure name")
	flags.IntVar(&spec.Threads, "threads", 8, "single-point: worker goroutines")
	flags.Uint64Var(&spec.KeyRange, "keys", 100_000, "single-point: key range")
	flags.IntVar(&spec.UpdatePct, "update", 50, "single-point: update percentage")
	flags.Float64Var(&spec.Alpha, "alpha", 0.75, "single-point: zipfian parameter")
	flags.BoolVar(&spec.Blocking, "blocking", false, "single-point: blocking mode")
	flags.BoolVar(&spec.HashKeys, "hashkeys", false, "single-point: sparsify keys by hashing")
	flags.IntVar(&spec.StallEvery, "stall", 0, "single-point: inject a deschedule every N critical sections")
	flags.StringVar(&spec.YCSB, "ycsb", "", "single-point: run a YCSB workload (a, b, c, e, f) against the sharded KV store")
	flags.IntVar(&spec.ScanLen, "scanlen", 0, "single-point: max zipf-drawn scan length for scan-bearing YCSB mixes (-ycsb e; 0 = default)")
	flags.StringVar(&spec.TxnMix, "txn", "", "single-point: run a transactional workload (transfer, ycsbt) against the txn layer")
	flags.IntVar(&spec.TxnSize, "txnsize", 2, "single-point: keys per multi-key transaction (-txn)")
	flags.BoolVar(&spec.TxnNonAtomic, "nonatomic", false, "single-point: per-key non-atomic arm of the txn layer (-txn)")
	flags.StringVar(&spec.TraceDump, "tracedump", "", "single-point: with -trace, also arm the anomaly dumper — the first op exceeding -tracedump-mult x the running p99 dumps the recorder to this file")
	flags.Float64Var(&spec.TraceDumpP99Mult, "tracedump-mult", 0, "anomaly threshold as a multiple of the running p99 (default 8)")
	if err := flags.Parse(args); err != nil {
		return 2
	}

	if *list {
		printCatalog(stdout)
		return 0
	}

	if *pprofAddr != "" {
		bound, stopDebug, err := startDebugServer(*pprofAddr)
		if err != nil {
			fmt.Fprintf(stderr, "flockbench: -pprof: %v\n", err)
			return 1
		}
		defer stopDebug()
		fmt.Fprintf(stderr, "flockbench: debug server on http://%s (/debug/pprof/, /metrics)\n", bound)
	}

	sc := harness.DefaultScale()
	sc.Seed, sc.Metrics = *seed, *metrics
	override(&sc.LargeKeys, *largeKeys)
	override(&sc.SmallKeys, *smallKeys)
	override(&sc.Duration, *duration)
	if *warmup >= 0 {
		sc.Warmup = *warmup
	}
	override(&sc.Repeats, *repeats)
	override(&sc.Base, *baseTh)
	override(&sc.Over, *overTh)
	override(&sc.Shards, *shards)
	if *sweep != "" {
		var ts []int
		for _, part := range strings.Split(*sweep, ",") {
			n, err := strconv.Atoi(strings.TrimSpace(part))
			if err != nil || n <= 0 {
				fmt.Fprintf(stderr, "flockbench: bad -sweep element %q\n", part)
				return 1
			}
			ts = append(ts, n)
		}
		sc.Threads = ts
	}

	switch {
	case *figure != "":
		if *tracePath != "" || spec.TraceDump != "" {
			fmt.Fprintln(stderr, "flockbench: -trace/-tracedump apply to single-point runs (-structure), not -figure")
			return 1
		}
		ids := []string{*figure}
		if *figure == "all" {
			ids = harness.FigureIDs()
		}
		for _, id := range ids {
			fs, ok := harness.Figures()[id]
			if !ok {
				fmt.Fprintf(stderr, "flockbench: unknown figure %q; valid names:\n", id)
				printCatalog(stderr)
				return 1
			}
			if *series != "" {
				filtered, err := filterSeries(fs, *series)
				if err != nil {
					fmt.Fprintf(stderr, "flockbench: %v\n", err)
					printCatalog(stderr)
					return 1
				}
				fs = filtered
			}
			fig, err := harness.RunFigure(fs, sc)
			if err != nil {
				fmt.Fprintf(stderr, "flockbench: figure %s: %v\n", id, err)
				return 1
			}
			if *jsonOut {
				printFigureJSON(stdout, fig)
			} else {
				printFigure(stdout, fig, *csv)
			}
		}
	case spec.Structure != "":
		spec.Duration, spec.Seed, spec.Shards, spec.Metrics = sc.Duration, *seed, max(*shards, 1), *metrics
		spec.Trace = *tracePath != "" || spec.TraceDump != ""
		st, err := harness.RunStats(spec, sc.Warmup, sc.Repeats)
		if err != nil {
			fmt.Fprintf(stderr, "flockbench: %v\n", err)
			return 1
		}
		if *tracePath != "" {
			if err := writeTrace(*tracePath, st, stderr); err != nil {
				fmt.Fprintf(stderr, "flockbench: -trace: %v\n", err)
				return 1
			}
		}
		if *jsonOut {
			st.Figure, st.Series, st.X = "custom", spec.Structure, fmt.Sprint(spec.Threads)
			writeJSON(stdout, st)
			return 0
		}
		mode := ""
		if spec.YCSB != "" {
			mode = fmt.Sprintf(" ycsb=%s shards=%d", spec.YCSB, spec.Shards)
			if spec.ScanLen > 0 {
				mode += fmt.Sprintf(" scanlen=%d", spec.ScanLen)
			}
		}
		if spec.TxnMix != "" {
			mode = fmt.Sprintf(" txn=%s size=%d shards=%d", spec.TxnMix, spec.TxnSize, spec.Shards)
			if spec.TxnNonAtomic {
				mode += " nonatomic"
			}
		}
		fmt.Fprintf(stdout, "%s threads=%d keys=%d update=%d%% alpha=%.2f blocking=%v stall=%d%s: %.3f Mop/s (±%.3f)  %.2f allocs/op  p50=%sµs p95=%sµs p99=%sµs\n",
			spec.Structure, spec.Threads, spec.KeyRange, spec.UpdatePct, spec.Alpha, spec.Blocking, spec.StallEvery, mode,
			st.Mops, st.Std, st.AllocsPerOp, µs(st.P50, 1), µs(st.P95, 1), µs(st.P99, 1))
		if pm := st.Metrics; pm != nil {
			fmt.Fprintf(stdout, "  metrics: helps/op=%.4f recv/op=%.4f replays/op=%.4f casfails/op=%.4f spins/op=%.4f poolhit=%.3f fair=%.2f cov=%.3f\n",
				pm.HelpsPerOp, pm.HelpsRecvPerOp, pm.ReplaysPerOp, pm.CASFailsPerOp,
				pm.SpinsPerOp, pm.PoolHitRate, st.FairMaxMin, st.FairCoV)
			if pm.ShardSkew > 0 {
				fmt.Fprintf(stdout, "  shard skew (max/mean)=%.3f ops=%v\n", pm.ShardSkew, pm.ShardOps)
			}
			if len(pm.Samples) > 0 {
				fmt.Fprintf(stdout, "  samples (t_ms: helps casfails):")
				for _, s := range pm.Samples {
					fmt.Fprintf(stdout, " %.0f:%d/%d", s.AtMs, s.Helps, s.CASFails)
				}
				fmt.Fprintln(stdout)
			}
		}
	default:
		flags.Usage()
		return 2
	}
	return 0
}

// printCatalog writes the figure index (ids, series names) and the
// structure registry — the -list output, reused verbatim by the
// unknown -figure/-series error paths.
func printCatalog(w io.Writer) {
	fmt.Fprintln(w, "figures:")
	figs := harness.Figures()
	for _, id := range harness.FigureIDs() {
		fmt.Fprintf(w, "  %-16s %s\n", id, figs[id].Paper)
		for _, s := range figs[id].Series {
			fmt.Fprintf(w, "    %s\n", s.Name)
		}
	}
	fmt.Fprintln(w, "structures:")
	for _, s := range harness.Structures() {
		fmt.Fprintf(w, "  %s\n", s)
	}
}

// filterSeries restricts a figure spec to the comma-separated series
// names, preserving the figure's order; an unknown name is an error
// naming the figure's valid series.
func filterSeries(fs harness.FigureSpec, names string) (harness.FigureSpec, error) {
	want := map[string]bool{}
	for _, n := range strings.Split(names, ",") {
		if n = strings.TrimSpace(n); n != "" {
			want[n] = true
		}
	}
	var valid, unknown []string
	for _, s := range fs.Series {
		valid = append(valid, s.Name)
	}
	for n := range want {
		if !slices.Contains(valid, n) {
			unknown = append(unknown, n)
		}
	}
	switch {
	case len(unknown) > 0:
		return fs, fmt.Errorf("unknown series %q for figure %s (valid: %s)",
			strings.Join(unknown, ","), fs.ID, strings.Join(valid, ", "))
	case len(want) == 0:
		return fs, fmt.Errorf("empty -series filter for figure %s (valid: %s)", fs.ID, strings.Join(valid, ", "))
	}
	fs.Series = slices.DeleteFunc(slices.Clone(fs.Series), func(s harness.Series) bool { return !want[s.Name] })
	return fs, nil
}

// writeJSON emits one point as a JSONL record (the harness.Point JSON
// schema).
func writeJSON(w io.Writer, pt harness.Point) {
	b, err := json.Marshal(pt)
	if err != nil {
		panic(fmt.Sprintf("flockbench: encoding point: %v", err))
	}
	fmt.Fprintln(w, string(b))
}

func printFigureJSON(w io.Writer, fig harness.Figure) {
	for _, pt := range fig.Points {
		writeJSON(w, pt)
	}
}

// writeTrace exports the last measured repetition's flight-recorder
// snapshot as Chrome trace-event JSON (Perfetto-loadable).
func writeTrace(path string, st harness.Point, stderr io.Writer) error {
	if st.Trace == nil {
		return fmt.Errorf("run produced no trace snapshot")
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	if err := trace.ExportChrome(f, *st.Trace); err != nil {
		return err
	}
	fmt.Fprintf(stderr, "flockbench: wrote %d trace events (%d dropped) to %s\n",
		len(st.Trace.Events), st.Trace.Dropped, path)
	return nil
}

// override sets *dst to v when the flag was given (v > 0).
func override[T int | uint64 | time.Duration](dst *T, v T) {
	if v > 0 {
		*dst = v
	}
}

// column is one per-series quantity of a figure, rendered by both
// printFigure layouts: csv lists its CSV header suffixes (appended to
// the series name) and cells the matching CSV cells; label heads its
// table section and cell renders one table cell. An optional column
// (show != nil) appears only if some point of the figure passes show.
type column struct {
	csv   []string
	cells func(pt harness.Point) []string
	label string
	cell  func(pt harness.Point) string
	show  func(pt harness.Point) bool
}

// µs renders a latency in microseconds with prec decimals.
func µs(d time.Duration, prec int) string {
	return strconv.FormatFloat(float64(d.Nanoseconds())/1e3, 'f', prec, 64)
}

// hasMetrics gates the obs metrics sections.
func hasMetrics(pt harness.Point) bool { return pt.Metrics != nil }

// columns drives printFigure, in output order: Mop/s, latency
// percentiles, allocations per operation, then the optional snapshot
// loop and obs metrics sections. The metrics column's CSV cells carry
// fair_maxmin; its table section leaves fairness to its own section.
var columns = []column{
	{csv: []string{""}, label: "(Mop/s)",
		cells: func(pt harness.Point) []string { return []string{fmt.Sprintf("%.4f", pt.Mops)} },
		cell:  func(pt harness.Point) string { return fmt.Sprintf("%.3f", pt.Mops) }},
	{csv: []string{":p50us", ":p95us", ":p99us"}, label: "(p50/p95/p99 µs)",
		cells: func(pt harness.Point) []string { return []string{µs(pt.P50, 2), µs(pt.P95, 2), µs(pt.P99, 2)} },
		cell:  func(pt harness.Point) string { return µs(pt.P50, 1) + "/" + µs(pt.P95, 1) + "/" + µs(pt.P99, 1) }},
	{csv: []string{":allocs"}, label: "(allocs/op)",
		cells: func(pt harness.Point) []string { return []string{fmt.Sprintf("%.2f", pt.AllocsPerOp)} },
		cell:  func(pt harness.Point) string { return fmt.Sprintf("%.2f", pt.AllocsPerOp) }},
	// The snapshot loop's progress (ext-snap's "+snap" arms): series
	// without the loop show "-" in the table (their Mops column is the
	// loop-free control).
	{csv: []string{":snap_cycles", ":snap_keys_per_sec"}, label: "(snap cycles : keys/s)",
		cells: func(pt harness.Point) []string {
			return []string{fmt.Sprint(pt.SnapCycles), fmt.Sprintf("%.0f", pt.SnapKeysPerSec)}
		},
		cell: func(pt harness.Point) string {
			if pt.SnapCycles == 0 {
				return "-"
			}
			return fmt.Sprintf("%d:%.0f", pt.SnapCycles, pt.SnapKeysPerSec)
		},
		show: func(pt harness.Point) bool { return pt.SnapCycles > 0 }},
	// The obs metrics sections: helping and CAS-retry rates per
	// operation (the helping-machinery readout), and per-thread
	// fairness. Blocking series legitimately show 0 helps/op — the
	// blocking mode has no helping to count.
	{csv: []string{":metrics:helps_per_op", ":metrics:casfails_per_op", ":metrics:replays_per_op", ":metrics:fair_maxmin"},
		label: "(helps/op : casfails/op : replays/op)",
		cells: func(pt harness.Point) []string {
			if pt.Metrics == nil {
				return []string{"", "", "", ""}
			}
			m := pt.Metrics
			return []string{fmt.Sprintf("%.4f", m.HelpsPerOp), fmt.Sprintf("%.4f", m.CASFailsPerOp),
				fmt.Sprintf("%.4f", m.ReplaysPerOp), fmt.Sprintf("%.2f", pt.FairMaxMin)}
		},
		cell: func(pt harness.Point) string {
			if pt.Metrics == nil {
				return "-"
			}
			return fmt.Sprintf("%.4f:%.4f:%.4f", pt.Metrics.HelpsPerOp, pt.Metrics.CASFailsPerOp, pt.Metrics.ReplaysPerOp)
		},
		show: hasMetrics},
	{label: "(fairness max/min : CoV)",
		cells: func(harness.Point) []string { return nil },
		cell:  func(pt harness.Point) string { return fmt.Sprintf("%.2f:%.3f", pt.FairMaxMin, pt.FairCoV) },
		show:  hasMetrics},
}

// printFigure renders one figure as rows grouped by x value, one column
// per series — the same rows the paper's plots are drawn from — as a
// table of sections or, with csv, as one CSV row per x.
func printFigure(w io.Writer, fig harness.Figure, csv bool) {
	fmt.Fprintf(w, "\n== %s: %s ==\n", fig.ID, fig.Paper)
	// Series order and x order as first encountered.
	var series, xs []string
	vals := map[[2]string]harness.Point{}
	for _, pt := range fig.Points {
		if !slices.Contains(series, pt.Series) {
			series = append(series, pt.Series)
		}
		if !slices.Contains(xs, pt.X) {
			xs = append(xs, pt.X)
		}
		vals[[2]string{pt.Series, pt.X}] = pt
	}
	var cols []column
	for _, c := range columns {
		if c.show == nil || slices.ContainsFunc(fig.Points, c.show) {
			cols = append(cols, c)
		}
	}
	if csv {
		row := []string{fig.XLabel}
		for _, c := range cols {
			for _, s := range series {
				for _, suffix := range c.csv {
					row = append(row, s+suffix)
				}
			}
		}
		fmt.Fprintln(w, strings.Join(row, ","))
		for _, x := range xs {
			row = []string{x}
			for _, c := range cols {
				for _, s := range series {
					row = append(row, c.cells(vals[[2]string{s, x}])...)
				}
			}
			fmt.Fprintln(w, strings.Join(row, ","))
		}
		return
	}
	cw := 20 // room for the p50/p95/p99 triples
	for _, s := range series {
		cw = max(cw, len(s))
	}
	for i, c := range cols {
		head := ""
		if i == 0 {
			head = fig.XLabel
		}
		fmt.Fprintf(w, "%-12s", head)
		for _, s := range series {
			fmt.Fprintf(w, " %*s", cw, s)
		}
		fmt.Fprintln(w, " "+c.label)
		for _, x := range xs {
			fmt.Fprintf(w, "%-12s", x)
			for _, s := range series {
				fmt.Fprintf(w, " %*s", cw, c.cell(vals[[2]string{s, x}]))
			}
			fmt.Fprintln(w)
		}
	}
}
