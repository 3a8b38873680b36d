package main

import (
	"fmt"
	"math"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	flock "flock/internal/core"
	"flock/internal/kv"
	"flock/internal/structures/hashtable"
	"flock/internal/structures/leaftree"
	"flock/internal/structures/set"
	"flock/internal/txn"
)

// Op kinds, each with its own latency histogram.
const (
	opGet = iota
	opPut
	opTransfer
	opMultiGet
	opScan
	opSnapshot
	nKinds
)

var kindNames = [nKinds]string{"get", "put", "transfer", "multiget", "scan", "snapshot"}

const (
	clients   = 2
	shards    = 8
	theta     = 0.99
	initBal   = 1 << 40 // no Transfer (amount <= 100) can ever lack funds
	maxAmount = 100
	multiGetN = 4
	scanLimit = 16
	scanWidth = 64 // a scan's key interval spans this many accounts
	windows   = 12 // the measured ops run as this many windows,
	rounds    = 3  // in this many rounds of back-to-back windows
)

// spec is one workload. Store options stay at their zero values except
// shard count, key range, mode and OptimisticReads.
type spec struct {
	name     string
	keyBits  uint // keys (kv_point) or accounts (txn_mix): 1 << keyBits
	blocking bool
	txn      bool
	// setups is how many times a run builds and prefills the store;
	// setup_s is their median.
	setups int
	// rate is the nominal ops per second per client: a run does
	// rate * seconds ops per client, a fixed amount of work.
	rate int
}

var specs = []spec{
	{name: "kv_point_lf", keyBits: 20, setups: 3, rate: 300_000},
	{name: "kv_point_bl", keyBits: 20, blocking: true, setups: 3, rate: 300_000},
	{name: "txn_mix", keyBits: 16, txn: true, setups: 9, rate: 20_000},
}

func findSpec(name string) (spec, bool) {
	for _, s := range specs {
		if s.name == name {
			return s, true
		}
	}
	return spec{}, false
}

// bench is one workload instance: its inputs and its live store.
type bench struct {
	sp   spec
	seed uint64
	n    uint64 // key or account count
	z    *zipf
	perm perm
	kv   *kv.Store
	tx   *txn.Store // nil on kv_point_*
	// abort stops every client after a panic.
	abort atomic.Bool
}

// dataSeed fixes the data set: which keys are hot and the prefill order
// (and so the trees' shapes). The --seed argument draws the op streams,
// so runs with different seeds replay different requests against the
// same data, and a seed's spread is not confounded with a different hot
// set landing on different shards.
const dataSeed = 0x5eed

func newBench(sp spec, seed uint64) *bench {
	n := uint64(1) << sp.keyBits
	return &bench{sp: sp, seed: seed, n: n, z: newZipf(n, theta), perm: newPerm(sp.keyBits, dataSeed)}
}

// draw returns a zipf-distributed key in [1, n].
func (b *bench) draw(r *rng) uint64 { return b.perm.of(b.z.rank(r.float())) + 1 }

// tag is the per-key stamp every kv_point value carries in its high half.
func tag(k uint64) uint64 { return mix(k) >> 32 }

func hashtableFactory(rt *flock.Runtime, r uint64) set.Set { return hashtable.New(rt, int(r)) }
func leaftreeFactory(rt *flock.Runtime, _ uint64) set.Set  { return leaftree.New(rt) }

// build constructs and prefills the store, returning the number of
// prefill writes that did not insert a fresh key (failures).
func (b *bench) build(order []uint32) (failed uint64) {
	var c *kv.Client
	if b.sp.txn {
		b.tx = txn.New(leaftreeFactory, txn.Options{
			Shards: shards, Mode: txn.LockFree, KeyRange: b.n, OptimisticReads: true,
		})
		b.kv = b.tx.KV()
	} else {
		b.kv = kv.New(hashtableFactory, kv.Options{Shards: shards, Blocking: b.sp.blocking, KeyRange: b.n})
	}
	c = b.kv.Register()
	defer c.Close()
	for _, i := range order {
		k := uint64(i) + 1
		v := uint64(initBal)
		if !b.sp.txn {
			v = tag(k) << 32
		}
		if !c.Put(k, v) {
			failed++
		}
	}
	return failed
}

// worker is one closed-loop client: it issues its next op only after
// the previous one returned.
type worker struct {
	b      *bench
	id     int
	r      rng
	kc     *kv.Client
	tc     *txn.Client
	h      [nKinds]hist
	record bool // false during warm-up
	ops    uint64
	failed uint64
	first  string // first failure, for the report
	seq    uint64 // Put sequence number (low half of kv_point values)
	snapAt uint64 // on txn_mix, client 0 snapshots when ops reaches snapAt
	end    int64
}

func (b *bench) newWorker(id int) *worker {
	w := &worker{b: b, id: id, r: rng{s: mix(b.seed*1_000_003 + uint64(id))}}
	w.kc = b.kv.Register()
	if b.tx != nil {
		w.tc = b.tx.Register()
	}
	return w
}

func (w *worker) close() {
	w.kc.Close()
	if w.tc != nil {
		w.tc.Close()
	}
}

func (w *worker) fail(format string, args ...any) {
	w.failed++
	if w.first == "" {
		w.first = fmt.Sprintf(format, args...)
	}
}

func (w *worker) rec(kind int, ns int64) {
	if w.record {
		w.h[kind].add(ns)
	}
}

// mono is the benchmark's clock: a monotonic nanosecond reading.
var monoBase = time.Now()

func mono() int64 { return int64(time.Since(monoBase)) }

// step runs one op: input generation and result checks stay outside the
// timed interval, which covers the call alone.
func (w *worker) step() {
	w.ops++
	if w.b.tx != nil {
		w.txnStep()
		return
	}
	k := w.b.draw(&w.r)
	if w.r.next()&1 == 0 {
		t0 := mono()
		v, ok := w.kc.Get(k)
		w.rec(opGet, mono()-t0)
		if !ok || v>>32 != tag(k) {
			w.fail("Get(%d) = %#x, %v: want the key's tag %#x", k, v, ok, tag(k))
		}
		return
	}
	w.seq++
	v := tag(k)<<32 | w.seq&0xffffffff
	t0 := mono()
	inserted := w.kc.Put(k, v)
	w.rec(opPut, mono()-t0)
	if inserted {
		w.fail("Put(%d) inserted a key that prefill stored", k)
	}
}

func (w *worker) txnStep() {
	b := w.b
	if w.id == 0 && w.ops == w.snapAt {
		w.snapshot()
		return
	}
	a := b.draw(&w.r)
	switch p := w.r.next() % 100; {
	case p < 40:
		c := b.draw(&w.r)
		for c == a {
			c = b.draw(&w.r)
		}
		amt := 1 + w.r.next()%maxAmount
		t0 := mono()
		ok := w.tc.Transfer(a, c, amt)
		w.rec(opTransfer, mono()-t0)
		if !ok {
			w.fail("Transfer(%d, %d, %d) did not commit", a, c, amt)
		}
	case p < 70:
		t0 := mono()
		_, ok := w.tc.Get(a)
		w.rec(opGet, mono()-t0)
		if !ok {
			w.fail("Get(%d): account missing", a)
		}
	case p < 85:
		keys := make([]uint64, multiGetN)
		keys[0] = a
		for i := 1; i < multiGetN; i++ {
			keys[i] = b.draw(&w.r)
		}
		t0 := mono()
		_, oks := w.tc.MultiGet(keys)
		w.rec(opMultiGet, mono()-t0)
		for i, ok := range oks {
			if !ok {
				w.fail("MultiGet: account %d missing", keys[i])
			}
		}
	default:
		hi := min(a+scanWidth-1, b.n)
		t0 := mono()
		got := w.kc.Scan(a, hi, scanLimit)
		w.rec(opScan, mono()-t0)
		// Every account is always present, so the result is exactly the
		// first min(limit, width) account keys from a, ascending.
		want := min(uint64(scanLimit), hi-a+1)
		if uint64(len(got)) != want {
			w.fail("Scan(%d, %d, %d) returned %d pairs, want %d", a, hi, scanLimit, len(got), want)
			return
		}
		for i, p := range got {
			if p.Key != a+uint64(i) {
				w.fail("Scan(%d, %d, %d)[%d] = key %d, want %d", a, hi, scanLimit, i, p.Key, a+uint64(i))
				return
			}
		}
	}
}

// snapshot activates a whole-store snapshot, sums every balance through
// it and checks the sum against the initial total.
func (w *worker) snapshot() {
	b := w.b
	t0 := mono()
	sn := b.kv.Snapshot()
	var sum, n uint64
	sn.Iterate(0, math.MaxUint64, func(_, v uint64) bool { sum += v; n++; return true })
	sn.Close()
	w.rec(opSnapshot, mono()-t0)
	if n != b.n || sum != b.n*initBal {
		w.fail("snapshot saw %d accounts summing to %d, want %d summing to %d", n, sum, b.n, b.n*initBal)
	}
}

// passResult is one pass of fixed work by every client.
type passResult struct {
	h       [nKinds]hist
	ops     uint64
	failed  uint64
	first   string
	seconds float64
}

func (p *passResult) throughput() float64 { return frac(float64(p.ops), p.seconds) }

// pass runs opsPerClient more ops on every client, closed loop, and
// reports the wall time from the common start to the last client's
// finish. Clients persist across passes so their Procs keep their pools
// from warm-up. A panic in a client is recorded (not retried) and stops
// the others.
func (b *bench) pass(ws []*worker, opsPerClient int, record bool) passResult {
	var res passResult
	var wg sync.WaitGroup
	start := make(chan struct{})
	before := make([]uint64, len(ws))
	for i, w := range ws {
		w.record = record
		w.h = [nKinds]hist{}
		before[i] = w.ops
		w.failed, w.first = 0, ""
		w.snapAt = w.ops + uint64(opsPerClient+1)/2 // once per pass, mid-way
		wg.Add(1)
		go func(w *worker) {
			defer wg.Done()
			defer func() {
				w.end = mono()
				if r := recover(); r != nil {
					b.abort.Store(true)
					w.fail("client %d panicked at op %d: %v", w.id, w.ops, r)
				}
			}()
			<-start
			for i := 0; i < opsPerClient && !b.abort.Load(); i++ {
				w.step()
			}
		}(w)
	}
	t0 := mono()
	close(start)
	wg.Wait()
	end := t0
	for i, w := range ws {
		end = max(end, w.end)
		for k := range w.h {
			res.h[k].merge(&w.h[k])
		}
		res.ops += w.ops - before[i]
		res.failed += w.failed
		if res.first == "" {
			res.first = w.first
		}
	}
	res.seconds = float64(end-t0) / 1e9
	return res
}

// round runs opsPerClient ops per client as nwin back-to-back windows,
// starting from a collected heap. A round allocates well under the
// kv_point_* live heap, so no collection starts inside its windows and
// every window sees the same regime; txn_mix's small heap collects a few
// times in every window.
type round struct {
	wins []passResult
	rt   []float64 // runtime metric deltas over the windows (runtimeNames order)
}

func (b *bench) round(r *report, ws []*worker, opsPerClient, nwin int) round {
	runtime.GC()
	rt0 := runtimeSample()
	var rd round
	for range nwin {
		p := b.pass(ws, opsPerClient/nwin, true)
		r.count(p)
		rd.wins = append(rd.wins, p)
	}
	rd.rt = runtimeSample()
	for i := range rd.rt {
		rd.rt[i] -= rt0[i]
	}
	return rd
}

func (rd round) ops() (n uint64) {
	for _, p := range rd.wins {
		n += p.ops
	}
	return n
}

// throughput is the median of the windows' throughputs.
func (rd round) throughput() float64 { return medianOf(rd.wins, (*passResult).throughput) }

// medianOf returns the median over windows of f.
func medianOf(wins []passResult, f func(*passResult) float64) float64 {
	xs := make([]float64, len(wins))
	for i := range wins {
		xs[i] = f(&wins[i])
	}
	return median(xs)
}

// session registers the clients on the store, warms them up with
// warmOps untimed ops each, runs body, then closes the clients and
// checks the quiesced store. After a client panicked the store is left
// alone: the panicking Proc may be mid-thunk.
func (b *bench) session(r *report, warmOps int, body func(ws []*worker)) {
	ws := make([]*worker, clients)
	for i := range ws {
		ws[i] = b.newWorker(i)
	}
	r.count(b.pass(ws, warmOps, false))
	body(ws)
	if b.abort.Load() {
		return
	}
	for _, w := range ws {
		w.close()
	}
	r.countCheck(b.finalCheck())
}

// finalCheck verifies the quiesced store: on kv_point every key is
// present with its tag; on txn_mix every account is present and the
// balances sum to the initial total. It returns the failure count and
// the first failure.
func (b *bench) finalCheck() (failed uint64, first string) {
	c := b.kv.Register()
	defer c.Close()
	note := func(format string, args ...any) {
		failed++
		if first == "" {
			first = fmt.Sprintf(format, args...)
		}
	}
	var sum uint64
	for k := uint64(1); k <= b.n; k++ {
		v, ok := c.Get(k)
		switch {
		case !ok:
			note("final check: key %d missing", k)
		case b.tx == nil && v>>32 != tag(k):
			note("final check: key %d holds %#x, want tag %#x", k, v, tag(k))
		}
		sum += v
	}
	if b.tx != nil && sum != b.n*initBal {
		note("final check: balances sum to %d, want %d", sum, b.n*initBal)
	}
	return failed, first
}

// heapInUse forces a collection and returns the live heap in bytes.
func heapInUse() uint64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}
