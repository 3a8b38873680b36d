package main

import (
	"runtime"
	"runtime/metrics"

	flock "flock/internal/core"
	"flock/internal/kv/engine"
	"flock/internal/obs"
	"flock/internal/obs/trace"
	"flock/internal/structures/set"
)

// The traced run. Five rounds of ops/5 per client on the live store —
// untraced, obs counters on, flight recorder on, both on (the traced
// pass), untraced again — give the counter-derived layer metrics and
// the instrumentation overheads. Then single-threaded probes on the
// quiesced store time calls into each layer's public functions, and
// the ledger compares the sum of a ladder of layer parts with the whole
// client op.

const (
	probeKeys  = 4096 // probe inputs, drawn from the workload's distribution
	probeReps  = 41   // timed batches per probe; the median batch is reported
	snapProbes = 5
)

// runtimeSample reads the Go runtime's allocation and GC totals (only
// at pass boundaries, never per op).
var runtimeNames = []string{
	"/gc/heap/allocs:objects",
	"/gc/heap/allocs:bytes",
	"/gc/cycles/total:gc-cycles",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
}

func runtimeSample() []float64 {
	s := make([]metrics.Sample, len(runtimeNames))
	for i, n := range runtimeNames {
		s[i].Name = n
	}
	metrics.Read(s)
	out := make([]float64, len(s))
	for i, x := range s {
		switch x.Value.Kind() {
		case metrics.KindUint64:
			out[i] = float64(x.Value.Uint64())
		case metrics.KindFloat64:
			out[i] = x.Value.Float64()
		}
	}
	return out
}

// probe is one timed call site: fn(i) runs the call on probe input i.
type probe struct {
	batch int
	guard *flock.Proc // non-nil: each batch runs in one epoch guard, entered and left untimed
	fn    func(i int)
	i     int
	ns    []float64 // per-call time of each timed batch
}

func (p *probe) run(timed bool) {
	if p.guard != nil {
		p.guard.Begin()
	}
	t0 := mono()
	for j := 0; j < p.batch; j++ {
		p.fn(p.i)
		p.i++
	}
	if timed {
		p.ns = append(p.ns, float64(mono()-t0)/float64(p.batch))
	}
	if p.guard != nil {
		p.guard.End()
	}
}

// measure first runs every probe once, untimed, over all probe inputs,
// so each runs on warm inputs; then it times probeReps batches of each,
// interleaved batch by batch, so a whole op and its layer parts see the
// same machine conditions.
func measure(ps ...*probe) {
	for _, p := range ps {
		for p.i < probeKeys {
			p.run(false)
		}
	}
	for range probeReps {
		for _, p := range ps {
			p.run(true)
		}
	}
}

// median is the probe's median per-call time.
func (p *probe) median() float64 { return median(p.ns) }

func frac(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// value is the value the workload stores under k at prefill.
func (b *bench) value(k uint64) uint64 {
	if b.tx != nil {
		return initBal
	}
	return tag(k) << 32
}

// perLayer runs the traced run's five rounds and reports the per-layer
// metrics, then runs the probes.
func perLayer(r *report, b *bench, ws []*worker, ops int) {
	run := func() round { return b.round(r, ws, ops/5, windows/rounds) }
	base1 := run()

	obs.SetEnabled(true)
	counted := run()
	obs.SetEnabled(false)

	trace.SetEnabled(true)
	recorded := run()
	trace.SetEnabled(false)

	obs.SetEnabled(true)
	trace.SetEnabled(true)
	trace.Reset()
	c0 := obs.Snapshot()
	or0, oe0 := b.kv.OptimisticStats()
	traced := run()
	c1 := obs.Snapshot()
	or1, oe1 := b.kv.OptimisticStats()
	events := trace.Snapshot().Events
	trace.SetEnabled(false)
	obs.SetEnabled(false)

	base2 := run()
	if b.abort.Load() {
		return
	}
	baseTP := (base1.throughput() + base2.throughput()) / 2
	var th [nKinds]hist
	for i := range traced.wins {
		for k := range th {
			th[k].merge(&traced.wins[i].h[k])
		}
	}
	tops := traced.ops()

	// Counter-derived metrics, from the traced pass.
	d := c1.Sub(c0)
	kops := float64(tops) / 1000
	per := func(c obs.Counter) float64 { return float64(d.Get(c)) / kops }
	r.add("core.helps_per_kop", per(obs.HelpsGiven), "1/kop", tops)
	r.add("core.replays_per_kop", per(obs.ThunkReplays), "1/kop", tops)
	r.add("core.cas_fails_per_kop", per(obs.InstallCASFails), "1/kop", tops)
	hits, misses := float64(d.Get(obs.PoolHits)), float64(d.Get(obs.PoolMisses))
	r.add("core.pool_hit_frac", frac(hits, hits+misses), "frac", d.Get(obs.PoolHits)+d.Get(obs.PoolMisses))
	r.add("core.pool_spills_per_kop", per(obs.PoolSpills), "1/kop", tops)
	r.add("epoch.advances_per_kop", per(obs.EpochAdvances), "1/kop", tops)
	r.add("epoch.reclaim_lag", frac(float64(d.Get(obs.EpochReclaimLagEpochs)), float64(d.Get(obs.EpochReclaimBatches))),
		"epochs", d.Get(obs.EpochReclaimBatches))
	reads := th[opGet].n + th[opMultiGet].n + th[opScan].n
	kreads := float64(reads) / 1000
	r.add("kv.opt_restarts_per_kread", frac(float64(or1-or0), kreads), "1/kread", reads)
	r.add("kv.opt_escalations_per_kread", frac(float64(oe1-oe0), kreads), "1/kread", reads)
	var commits uint64
	for c := obs.TxnDepth1; c <= obs.TxnDepth9Plus; c++ {
		commits += d.Get(c)
	}
	r.add("txn.helped_frac", frac(float64(d.Get(obs.TxnHelped)), float64(commits)), "frac", commits)
	// Attempts per committed transaction come from the flight recorder's
	// TxnSpan records (attempt count in the high bits of A); the rings
	// keep the most recent window, so this is a sample of the pass.
	var spans, attempts uint64
	for _, e := range events {
		if e.Kind == trace.TxnSpan {
			spans++
			attempts += e.A >> 16
		}
	}
	r.add("txn.commit_frac", frac(float64(spans), float64(attempts)), "frac", spans)

	// Go runtime, over the first untraced pass.
	bops := base1.ops()
	r.add("runtime.allocs_per_op", base1.rt[0]/float64(bops), "1/op", bops)
	r.add("runtime.alloc_bytes_per_op", base1.rt[1]/float64(bops), "B/op", bops)
	r.add("runtime.gc_cycles", base1.rt[2], "count", bops)
	r.add("runtime.gc_cpu_frac", frac(base1.rt[3], base1.rt[4]), "frac", bops)

	r.add("obs.counters_slowdown_frac", 1-counted.throughput()/baseTP, "frac", counted.ops())
	r.add("obs.recorder_slowdown_frac", 1-recorded.throughput()/baseTP, "frac", recorded.ops())
	r.add("trace_overhead_frac", 1-traced.throughput()/baseTP, "frac", tops)

	b.probes(r)
}

// probes times each layer's public functions single-threaded and
// reports them with the ledger built from them.
func (b *bench) probes(r *report) {
	runtime.GC() // no collection left over from the passes runs under the probes
	samples := uint64(probeReps)
	rg := rng{s: mix(b.seed ^ 0x9e0be)}
	keys := make([]uint64, probeKeys)
	for i := range keys {
		keys[i] = b.draw(&rg)
	}
	at := func(i int) uint64 { return keys[i%probeKeys] }
	var sink int

	// A probe runtime in the workload's mode for the core, epoch and
	// engine probes.
	prt := flock.New()
	prt.SetBlocking(b.sp.blocking)
	pp := prt.Register()
	defer pp.Unregister()

	var l flock.Lock
	noop := func(*flock.Proc) bool { return true }
	trylock := &probe{batch: 64, guard: pp, fn: func(int) { l.TryLock(pp, noop) }}
	beginEnd := &probe{batch: 256, fn: func(int) { pp.Begin(); pp.End() }}
	route := &probe{batch: 256, fn: func(i int) { sink += b.kv.ShardOf(at(i)) }}

	// Structure: one shard-sized instance built directly, holding the
	// keys the store routes to shard 0, probed with those keys.
	srt := flock.New()
	srt.SetBlocking(b.sp.blocking)
	sp := srt.Register()
	defer sp.Unregister()
	var s set.Set
	if b.tx != nil {
		s = leaftreeFactory(srt, 0)
	} else {
		s = hashtableFactory(srt, b.n/shards+1)
	}
	for _, i := range shuffled(b.n, dataSeed) {
		if k := uint64(i) + 1; b.kv.ShardOf(k) == 0 {
			s.Insert(sp, k, b.value(k))
		}
	}
	skeys := make([]uint64, 0, probeKeys)
	for len(skeys) < probeKeys {
		if k := b.draw(&rg); b.kv.ShardOf(k) == 0 {
			skeys = append(skeys, k)
		}
	}
	up := s.(set.Upserter)
	find := &probe{batch: 64, fn: func(i int) { s.Find(sp, skeys[i%probeKeys]) }}
	upsert := &probe{batch: 64, fn: func(i int) {
		k := skeys[i%probeKeys]
		v := b.value(k)
		up.Upsert(sp, k, func(uint64, bool) uint64 { return v })
	}}

	// Engine: a probe engine over fresh shard locks on one shared runtime
	// in the workload's mode, routed like the store, fed two-key
	// (transfer) and four-key (multi-get) footprints and scan runs.
	locks := make([]*flock.Lock, shards)
	rts := make([]*flock.Runtime, shards)
	procs := make([]*flock.Proc, shards)
	for i := range locks {
		locks[i], rts[i], procs[i] = new(flock.Lock), prt, pp
	}
	eng := engine.New(engine.Config{Locks: locks, Runtimes: rts, Shared: prt, Route: b.kv.ShardOf})
	pairs := make([][]uint64, probeKeys/2)
	pairGroups := make([][]int, len(pairs))
	quadGroups := make([][]int, probeKeys/4)
	runs := make([][][]set.KV, probeKeys)
	for i := range pairs {
		a, c := at(2*i), at(2*i+1)
		if c == a { // a transfer needs two distinct accounts
			c = a%b.n + 1
		}
		pairs[i] = []uint64{a, c}
		pairGroups[i] = eng.Group(nil, eng.ShardIndices(pairs[i]))
	}
	for i := range quadGroups {
		quadGroups[i] = eng.Group(nil, eng.ShardIndices(keys[4*i:4*i+4]))
	}
	for i := range runs {
		runs[i] = make([][]set.KV, shards)
		for k := at(i); k < at(i)+scanLimit && k <= b.n; k++ {
			s := b.kv.ShardOf(k)
			runs[i][s] = append(runs[i][s], set.KV{Key: k, Value: b.value(k)})
		}
	}
	seen := make([]bool, shards)
	noBody := func() func(*flock.Proc) { return func(*flock.Proc) {} }
	plan := &probe{batch: 64, fn: func(i int) { sink += len(eng.Group(seen, eng.ShardIndices(pairs[i%len(pairs)]))) }}
	atomicP := &probe{batch: 64, fn: func(i int) { eng.Atomic(pp, pairGroups[i%len(pairGroups)], noBody) }}
	optimistic := &probe{batch: 64, fn: func(i int) { eng.OptimisticGroup(procs, quadGroups[i%len(quadGroups)], func() {}) }}
	merge := &probe{batch: 64, fn: func(i int) { sink += len(engine.MergeRuns(runs[i%len(runs)], scanLimit)) }}

	// The ledger's whole client ops, on the quiesced store. Puts write
	// back the value each key held before the probes, and each pair of
	// transfer calls moves one unit there and back, so the store's
	// invariants survive the probes.
	c := b.kv.Register()
	defer c.Close()
	vals := make([]uint64, probeKeys)
	for i, k := range keys {
		vals[i], _ = c.Get(k)
	}
	getWhole := &probe{batch: 64, fn: func(i int) { c.Get(at(i)) }}
	putWhole := &probe{batch: 64, fn: func(i int) { c.Put(at(i), vals[i%probeKeys]) }}
	ps := []*probe{trylock, beginEnd, route, find, upsert, plan, atomicP, optimistic, merge, getWhole, putWhole}
	var transferWhole *probe
	if b.tx != nil {
		tc := b.tx.Register()
		defer tc.Close()
		getWhole.fn = func(i int) { tc.Get(at(i)) }
		transferWhole = &probe{batch: 16, fn: func(i int) {
			p := pairs[i/2%len(pairs)]
			if i%2 == 0 {
				tc.Transfer(p[0], p[1], 1)
			} else {
				tc.Transfer(p[1], p[0], 1)
			}
		}}
		ps = append(ps, transferWhole)
	}
	measure(ps...)

	r.add("core.trylock_ns", trylock.median(), "ns", samples)
	r.add("epoch.begin_end_ns", beginEnd.median(), "ns", samples)
	r.add("kv.route_ns", route.median(), "ns", samples)
	r.add("structure.find_ns", find.median(), "ns", samples)
	r.add("structure.upsert_ns", upsert.median(), "ns", samples)
	r.add("engine.plan_ns", plan.median(), "ns", samples)
	r.add("engine.atomic_ns", atomicP.median(), "ns", samples)
	r.add("engine.optimistic_ns", optimistic.median(), "ns", samples)
	r.add("engine.merge_ns", merge.median(), "ns", samples)

	// Snapshots of the live store: activation, and one iteration over a
	// window of 1024 keys.
	act := make([]float64, snapProbes)
	iter := make([]float64, snapProbes)
	for i := range act {
		t0 := mono()
		sn := b.kv.Snapshot()
		t1 := mono()
		lo := at(i)
		sn.Iterate(lo, lo+1023, func(uint64, uint64) bool { sink++; return true })
		t2 := mono()
		sn.Close()
		act[i], iter[i] = float64(t1-t0), float64(t2-t1)
	}
	r.add("kv.snapshot_activate_ns", median(act), "ns", snapProbes)
	r.add("kv.snapshot_iterate_ns", median(iter), "ns", snapProbes)

	// The ledger: each whole op against the sum of its layer parts.
	var tw float64
	if transferWhole != nil {
		tw = transferWhole.median()
	}
	gw, pw := getWhole.median(), putWhole.median()
	fi, us := find.median(), upsert.median()
	ep, ro := beginEnd.median(), route.median()
	unexplained := func(whole, parts float64) float64 {
		if whole == 0 {
			return 0
		}
		return 1 - parts/whole
	}
	r.add("ledger.get_whole_ns", gw, "ns", samples)
	r.add("ledger.put_whole_ns", pw, "ns", samples)
	r.add("ledger.transfer_whole_ns", tw, "ns", samples)
	r.add("ledger.get_unexplained_frac", unexplained(gw, fi+ep+ro), "frac", samples)
	r.add("ledger.put_unexplained_frac", unexplained(pw, us+ep+ro), "frac", samples)
	r.add("ledger.transfer_unexplained_frac", unexplained(tw, plan.median()+atomicP.median()+2*fi+2*us), "frac", samples)
	_ = sink
}
