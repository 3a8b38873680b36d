package flock

import (
	"runtime"
	"sync/atomic"

	"flock/internal/epoch"
	"flock/internal/obs"
	"flock/internal/obs/trace"
)

// Runtime owns the global state shared by all Procs: the epoch-based
// memory manager and the mode flag. A program typically creates one
// Runtime per concurrent structure family (or one overall).
type Runtime struct {
	epochs   *epoch.Manager
	blocking atomic.Bool
	// avoidCAS (compare-and-compare-and-swap, §6) and pooling
	// (descriptor reuse through per-Proc freelists gated by epoch grace
	// periods, DESIGN.md S10) are always on; core's tests and ablation
	// benchmarks turn them off to measure what they buy.
	avoidCAS bool
	pooling  bool
	// stallEvery, when nonzero, makes every stallEvery-th successful
	// top-level lock acquisition yield the processor while holding the
	// lock — an injected descheduling event (the phenomenon behind the
	// paper's oversubscription results, which OS quanta on a large
	// machine produce naturally). 0 disables injection.
	stallEvery atomic.Uint32
}

// Option configures a Runtime.
type Option func(*Runtime)

// Blocking starts the runtime in blocking (traditional test-and-set lock)
// mode instead of lock-free mode.
func Blocking() Option { return func(rt *Runtime) { rt.blocking.Store(true) } }

// New creates a Runtime. The default mode is lock-free with the
// compare-and-compare-and-swap optimization and descriptor pooling.
func New(opts ...Option) *Runtime {
	rt := &Runtime{epochs: epoch.NewManager(), avoidCAS: true, pooling: true}
	for _, o := range opts {
		o(rt)
	}
	return rt
}

// Blocking reports whether locks currently run in blocking mode.
func (rt *Runtime) Blocking() bool { return rt.blocking.Load() }

// SetBlocking switches between blocking and lock-free mode. It must not be
// called while operations are in flight: a thunk's helpers must all agree
// on the mode, and the flag is deliberately not committed to logs.
// Both modes advance the same version in the lock word (DESIGN.md S1),
// so a lock's version carries on across a switch and never restarts at
// 0: a tag never returns to its word.
func (rt *Runtime) SetBlocking(v bool) { rt.blocking.Store(v) }

// SetStallInjection makes every n-th successful top-level lock
// acquisition yield the processor while inside the critical section,
// simulating a thread descheduled partway through an update (§8, the
// oversubscription experiments). n <= 0 disables injection (negative
// values are clamped rather than wrapping to a huge uint32 period). In
// lock-free mode other threads help the stalled critical section to
// completion; in blocking mode they must wait for the stalled goroutine
// to be rescheduled — which is the contrast the injection exposes.
func (rt *Runtime) SetStallInjection(n int) {
	if n < 0 {
		n = 0
	}
	rt.stallEvery.Store(uint32(n))
}

// Proc is the per-worker execution context: the paper's "process". It
// carries the current thunk log and position, the worker's epoch slot, a
// private RNG, and the per-worker descriptor freelist (DESIGN.md S10). A
// Proc must only be used by one goroutine at a time.
type Proc struct {
	rt     *Runtime
	blk    *logBlock // current log block; nil outside thunks
	idx    int       // next position within blk
	slot   *epoch.Slot
	rng    uint64
	stalls uint32 // acquisitions since the last injected stall
	// id is the Proc's registration ordinal (nonzero); descriptors stamp
	// it as their owner so completion claims can tell "I finished my own
	// thunk" from "I helped someone else's" (obs metrics).
	id uint64
	// metrics is the Proc's private obs counter block: cache-padded,
	// written only by this worker, summed by obs.Snapshot.
	metrics *obs.Block
	// tring is the Proc's flight-recorder ring (DESIGN.md S16),
	// allocated lazily on the first traced event so Procs registered
	// while tracing is off carry no ring at all.
	tring *trace.Ring
	// bheld is the blocking-mode held-lock stack. Blocking critical
	// sections never migrate (no helping), so the acquiring goroutine's
	// Proc can match an early-release Unlock with its acquisition and
	// skip the scope-exit release — without this, hand-over-hand
	// patterns (couplist) would double-release and force-unlock whoever
	// acquired after the early Unlock. Each entry keeps the version its
	// release advances from (lock.go). Its depth is also the nesting
	// depth: in lock-free mode "top level" is p.blk == nil, but blocking
	// mode has no log, so nested blocking acquisitions (composed
	// transactions) need their own gate — otherwise stall injection
	// would fire at every nesting level in blocking mode but only once
	// per operation in lock-free mode, biasing the ext-txn comparisons.
	bheld []blockHeld

	// The descriptor pool (see pool.go): dfree holds clean descriptors,
	// pending the released ones waiting out their epoch grace period.
	dfree     []*descriptor
	pending   []parked
	reuseTick uint64

	_ [32]byte // discourage false sharing between adjacent Procs
}

// procSeq distinguishes Procs across all Runtimes: it seeds every
// worker's private backoff-jitter stream (a shared constant seed would
// make all workers back off in lockstep, defeating the jitter) and,
// being nonzero, doubles as the Proc id that descriptor completion
// claims are attributed to.
var procSeq atomic.Uint64

// seedRNG turns a registration ordinal into a well-mixed splitmix64
// state.
func seedRNG(n uint64) uint64 {
	z := n * 0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Register creates a Proc for the calling worker goroutine.
func (rt *Runtime) Register() *Proc {
	seq := procSeq.Add(1)
	return &Proc{
		rt:      rt,
		slot:    rt.epochs.Register(),
		rng:     seedRNG(seq),
		id:      seq,
		metrics: obs.NewBlock(),
	}
}

// Unregister releases the Proc's epoch slot and folds its metrics block
// into the obs retired totals (so snapshots taken after a worker exits
// still see its events). Descriptors awaiting reuse are dropped to the
// garbage collector (their grace periods may not have elapsed, so they
// cannot join another Proc's freelist).
func (p *Proc) Unregister() {
	p.slot.Unregister()
	p.pending = nil
	p.metrics.Release()
	if p.tring != nil {
		p.tring.Release()
		p.tring = nil
	}
}

// Obs returns the Proc's metrics block, for layers above core (kv, txn)
// that attribute their own events to the worker.
func (p *Proc) Obs() *obs.Block { return p.metrics }

// traceEmit records one flight-recorder event attributed to this Proc.
// The disabled path is one cold bool load and a branch (the slow path
// is kept out of line so this wrapper inlines into call sites).
func (p *Proc) traceEmit(k trace.Kind, lock, a, b uint64) {
	if !trace.On() {
		return
	}
	p.traceEmitSlow(k, lock, a, b)
}

//go:noinline
func (p *Proc) traceEmitSlow(k trace.Kind, lock, a, b uint64) {
	r := p.tring
	if r == nil {
		r = trace.NewRing(p.id)
		p.tring = r
	}
	r.Emit(k, lock, a, b)
}

// Trace records a flight-recorder event on the Proc's ring, for layers
// above core (kv, txn) that trace their own spans. A no-op while
// tracing is disabled.
func (p *Proc) Trace(k trace.Kind, lock, a, b uint64) { p.traceEmit(k, lock, a, b) }

// TraceAt is Trace with a caller-supplied timestamp (trace.Now), for
// span recorders that already read the clock to compute a duration.
func (p *Proc) TraceAt(k trace.Kind, ts int64, lock, a, b uint64) {
	if !trace.On() {
		return
	}
	p.traceAtSlow(k, ts, lock, a, b)
}

//go:noinline
func (p *Proc) traceAtSlow(k trace.Kind, ts int64, lock, a, b uint64) {
	r := p.tring
	if r == nil {
		r = trace.NewRing(p.id)
		p.tring = r
	}
	r.EmitAt(k, ts, lock, a, b)
}

// ID returns the Proc's registration ordinal — the id trace events and
// completion claims attribute work to.
func (p *Proc) ID() uint64 { return p.id }

// Begin enters an epoch guard. Every data structure operation must run
// between Begin and End so that descriptors released by concurrent
// operations are not reused while this worker might still reference
// them. Guards nest. Begin also paces the descriptor-reuse drain
// (pool.go).
func (p *Proc) Begin() {
	p.slot.Enter()
	p.reuseTickDrain()
}

// End exits the epoch guard opened by Begin.
func (p *Proc) End() { p.slot.Exit() }

// Runtime returns the Proc's runtime.
func (p *Proc) Runtime() *Runtime { return p.rt }

// Drain tries to advance the epoch and moves ripe pending descriptors
// to the freelist, for tests and shutdown paths.
func (p *Proc) Drain() {
	p.rt.epochs.TryAdvance()
	p.drainReuse()
}

// maybeStall yields the processor (several times, approximating losing a
// scheduling quantum) on every stallEvery-th call, while the caller holds
// a lock. Only invoked from top-level acquisitions; it performs no
// logged operations, so replays of the surrounding code stay aligned.
func (p *Proc) maybeStall() {
	n := p.rt.stallEvery.Load()
	if n == 0 {
		return
	}
	p.stalls++
	if p.stalls >= n {
		p.stalls = 0
		p.traceEmit(trace.Stall, 0, 0, 0)
		for i := 0; i < 8; i++ {
			runtime.Gosched()
		}
	}
}

// Jitter draws from the Proc's private splitmix64 stream, for backoff
// jitter in layers that retry composed acquisitions (internal/kv/engine).
// Like rand64 it must never be used inside thunks (it is not committed).
func (p *Proc) Jitter() uint64 { return p.rand64() }

// rand64 is a splitmix64 step over the Proc's private state; used for
// backoff jitter. Never used inside thunks (it is not committed).
func (p *Proc) rand64() uint64 {
	p.rng += 0x9e3779b97f4a7c15
	z := p.rng
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}
