// Command perfbench is the repository's end-to-end and per-layer
// benchmark. It drives one workload from outside the program, through
// the public APIs of internal/kv and internal/txn, with two closed-loop
// clients, checks every result, and prints the metrics by name with
// their units and sample counts. The last line of standard output is
// one JSON object: {"correct", "attempted", "failed", "metrics"}.
//
//	go run . --workload kv_point_lf --seed 1 --seconds 10 --trace 0
//
// --trace 0 prints the end-to-end metrics; --trace 1 runs the traced
// rounds and layer probes and prints the per-layer metrics instead.
// perfbench/run.py builds this program inside the checkout and runs it;
// README.md records why each workload and metric was chosen.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"slices"
	"strings"
	"time"
)

// usageExit is the exit code for bad arguments (EX_USAGE), distinct from
// the 2 a Go panic exits with, so run.py can tell the two apart.
const usageExit = 64

// metric is one named result in the final JSON line.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report accumulates the run's output.
type report struct {
	attempted uint64
	failed    uint64
	first     string
	seed      uint64
	metrics   map[string]metric
}

func (r *report) add(name string, v float64, unit string, samples uint64) {
	r.metrics[name] = metric{Value: v, Unit: unit}
	fmt.Printf("metric %-34s %14.6g %-6s n=%d\n", name, v, unit, samples)
}

func (r *report) count(p passResult) {
	r.attempted += p.ops
	r.failed += p.failed
	if r.first == "" && p.first != "" {
		r.first = p.first
	}
}

func (r *report) countCheck(failed uint64, first string) {
	r.attempted++
	r.failed += failed
	if r.first == "" && failed > 0 {
		r.first = first
	}
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

func median(xs []float64) float64 {
	s := slices.Clone(xs)
	slices.Sort(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

func main() {
	wl := flag.String("workload", "", "workload name: kv_point_lf, kv_point_bl or txn_mix")
	seed := flag.Uint64("seed", 1, "input seed")
	seconds := flag.Int("seconds", 10, "nominal measured seconds; sets the fixed op count per client")
	traced := flag.Int("trace", 0, "1 runs the traced rounds and probes and prints the per-layer metrics")
	commit := flag.String("commit", "unknown", "commit the program was built from (recorded only)")
	flag.Parse()
	sp, ok := findSpec(*wl)
	if !ok || *seconds < 1 || (*traced != 0 && *traced != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: bad arguments (workload %q, seconds %d, trace %d)\n", *wl, *seconds, *traced)
		os.Exit(usageExit)
	}
	fmt.Printf("env workload=%s seed=%d seconds=%d trace=%d commit=%s go=%s gomaxprocs=%d nproc=%d cpu=%q\n",
		sp.name, *seed, *seconds, *traced, *commit, runtime.Version(), runtime.GOMAXPROCS(0), runtime.NumCPU(), cpuModel())

	r := &report{seed: *seed, metrics: map[string]metric{}}
	b := newBench(sp, *seed)

	// Set-up builds and prefills the store several times, each from a
	// collected heap; the last store is measured. A warm-up of one
	// round's ops grows the heap to its working size first, so measured
	// windows reuse memory instead of faulting in fresh pages.
	ops := sp.rate * *seconds
	setups := make([]float64, sp.setups)
	var live uint64
	for i := range setups {
		setups[i] = b.setup(r)
		if i == 0 {
			live = heapInUse() // forced GC, outside setup_s
		}
	}
	var rds []round
	b.session(r, ops/rounds, func(ws []*worker) {
		if *traced == 1 {
			perLayer(r, b, ws, ops)
			return
		}
		for range rounds {
			rds = append(rds, b.round(r, ws, ops/rounds, windows/rounds))
		}
	})
	fmt.Printf("setup_runs_s %v\n", setups)
	if *traced == 0 {
		endToEnd(r, b, rds, median(setups), live)
	}
	finish(r)
}

// setup drops the current store and builds and prefills a fresh one,
// starting from a collected heap. It returns the build's wall time;
// generating the prefill order is not timed.
func (b *bench) setup(r *report) float64 {
	b.kv, b.tx = nil, nil
	order := shuffled(b.n, dataSeed)
	runtime.GC()
	t0 := time.Now()
	failed := b.build(order)
	d := time.Since(t0).Seconds()
	r.countCheck(failed, fmt.Sprintf("prefill: %d keys were not freshly inserted", failed))
	return d
}

// endToEnd reports the end-to-end metrics of the measured rounds. Each is
// the median of its per-window values, so a burst of outside
// interference that hits one window does not move it.
func endToEnd(r *report, b *bench, rds []round, setupS float64, live uint64) {
	var wins []passResult
	rt := make([]float64, len(runtimeNames))
	for _, rd := range rds {
		wins = append(wins, rd.wins...)
		for i, v := range rd.rt {
			rt[i] += v
		}
	}
	update := opPut
	if b.tx != nil {
		update = opTransfer
	}
	var all passResult
	for i := range wins {
		all.ops += wins[i].ops
		for k := range all.h {
			all.h[k].merge(&wins[i].h[k])
		}
	}
	over := func(f func(p *passResult) float64) float64 { return medianOf(wins, f) }
	r.add("throughput_ops_s", over((*passResult).throughput), "1/s", all.ops)
	for _, q := range []struct {
		name string
		kind int
	}{{"get", opGet}, {"update", update}} {
		r.add(q.name+"_p50_ns", over(func(p *passResult) float64 { return p.h[q.kind].quantile(0.50) }), "ns", all.h[q.kind].n)
		r.add(q.name+"_p99_ns", over(func(p *passResult) float64 { return p.h[q.kind].quantile(0.99) }), "ns", all.h[q.kind].n)
	}
	r.add("live_bytes_per_key", float64(live)/float64(b.n), "B", b.n)
	r.add("setup_s", setupS, "s", uint64(b.sp.setups))
	// Every op kind's percentiles over all measured windows, under the
	// kind's own name; the JSON line carries the kind-independent names
	// above.
	for k := range all.h {
		if h := &all.h[k]; h.n > 0 {
			fmt.Printf("latency %-9s p50_ns=%.0f p99_ns=%.0f n=%d\n", kindNames[k], h.quantile(0.5), h.quantile(0.99), h.n)
		}
	}
	for i, p := range wins {
		fmt.Printf("window %d ops=%d seconds=%.3f throughput_ops_s=%.0f get_p99_ns=%.0f update_p99_ns=%.0f\n",
			i, p.ops, p.seconds, p.throughput(), p.h[opGet].quantile(0.99), p.h[update].quantile(0.99))
	}
	fmt.Printf("runtime allocs_per_op=%.2f alloc_bytes_per_op=%.1f gc_cycles=%.0f gc_cpu_frac=%.3f\n",
		rt[0]/float64(all.ops), rt[1]/float64(all.ops), rt[2], frac(rt[3], rt[4]))
}

func finish(r *report) {
	frac := float64(r.failed) / float64(max(r.attempted, 1))
	fmt.Printf("failed_ops_frac %g (%d of %d) seed=%d\n", frac, r.failed, r.attempted, r.seed)
	if r.failed > 0 {
		fmt.Printf("first failure (seed %d): %s\n", r.seed, r.first)
		fmt.Fprintf(os.Stderr, "perfbench: %d failed ops (seed %d): %s\n", r.failed, r.seed, r.first)
	}
	out, err := json.Marshal(map[string]any{
		"correct":   r.failed == 0,
		"attempted": max(r.attempted, 1),
		"failed":    r.failed,
		"metrics":   r.metrics,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: encoding result:", err)
		os.Exit(1)
	}
	fmt.Println(string(out))
}
