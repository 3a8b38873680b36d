package flock

// Conservation tests for the obs attribution counters (DESIGN.md S14).
// The single-claim finisher CAS makes completion attribution exact, so
// over a flat (top-level, non-nested) lock-free workload the counters
// must balance to the op count — not approximately, exactly. Run under
// -race in CI, with stall injection forcing real helping traffic.

import (
	"sync"
	"sync/atomic"
	"testing"

	"flock/internal/obs"
	"flock/internal/obs/trace"
)

// TestMetricsHelpingConservation pins the attribution laws on a flat
// TryLock workload with injected descheduling:
//
//	AcquiresLF                     == committed acquisitions
//	OwnCompletions + HelpsReceived == committed acquisitions
//	HelpsGiven                     == HelpsReceived
//
// Every committed top-level critical section is claimed by exactly one
// run (the finisher CAS): by its owner (OwnCompletions) or by a helper
// (one HelpsGiven on the helper, one HelpsReceived on the owner). A
// violation means double-claimed or unclaimed thunks — exactly the
// accounting the single-claim CAS exists to make exact.
func TestMetricsHelpingConservation(t *testing.T) {
	prev := obs.Enabled()
	obs.SetEnabled(true)
	defer obs.SetEnabled(prev)

	rt := New()
	rt.SetStallInjection(16) // yield inside every 16th held critical section
	const (
		goroutines = 4
		perG       = 3000
	)
	var (
		committed atomic.Uint64
		m         Mutable[uint64]
		l         Lock
		wg        sync.WaitGroup
	)
	s0 := obs.Snapshot()
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			p := rt.Register()
			defer p.Unregister()
			for n := 0; n < perG; n++ {
				p.Begin()
				ok := l.TryLock(p, func(hp *Proc) bool {
					m.Store(hp, m.Load(hp)+1)
					return true
				})
				p.End()
				if ok {
					committed.Add(1)
				}
			}
		}()
	}
	wg.Wait()
	d := obs.Snapshot().Sub(s0)

	ops := committed.Load()
	if got := d.Get(obs.AcquiresLF); got != ops {
		t.Errorf("AcquiresLF = %d, want committed count %d", got, ops)
	}
	own, recv, given := d.Get(obs.OwnCompletions), d.Get(obs.HelpsReceived), d.Get(obs.HelpsGiven)
	if own+recv != ops {
		t.Errorf("OwnCompletions(%d) + HelpsReceived(%d) = %d, want committed count %d",
			own, recv, own+recv, ops)
	}
	if given != recv {
		t.Errorf("HelpsGiven = %d, HelpsReceived = %d; every given help must be received exactly once", given, recv)
	}
	// Sanity on the final value: one increment per committed section.
	p := rt.Register()
	defer p.Unregister()
	p.Begin()
	final := m.Load(p)
	p.End()
	if final != ops {
		t.Errorf("mutable holds %d after %d committed increments", final, ops)
	}
	t.Logf("ops=%d own=%d helped=%d replays=%d casfails=%d",
		ops, own, recv, d.Get(obs.ThunkReplays), d.Get(obs.InstallCASFails))
}

// TestMetricsBlockingRecordsNoHelping pins the other arm of ext-help's
// story: blocking mode has no helping machinery, so an identical
// contended workload must record blocking acquisitions and zero
// lock-free events.
func TestMetricsBlockingRecordsNoHelping(t *testing.T) {
	prev := obs.Enabled()
	obs.SetEnabled(true)
	defer obs.SetEnabled(prev)

	rt := New(Blocking())
	rt.SetStallInjection(16)
	const (
		goroutines = 4
		perG       = 1000
	)
	var (
		committed atomic.Uint64
		m         Mutable[uint64]
		l         Lock
		wg        sync.WaitGroup
	)
	s0 := obs.Snapshot()
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			p := rt.Register()
			defer p.Unregister()
			for n := 0; n < perG; n++ {
				p.Begin()
				if l.TryLock(p, func(hp *Proc) bool { m.Store(hp, m.Load(hp)+1); return true }) {
					committed.Add(1)
				}
				p.End()
			}
		}()
	}
	wg.Wait()
	d := obs.Snapshot().Sub(s0)
	if got := d.Get(obs.AcquiresBlocking); got != committed.Load() {
		t.Errorf("AcquiresBlocking = %d, want committed count %d", got, committed.Load())
	}
	for _, k := range []obs.Counter{obs.AcquiresLF, obs.HelpsGiven, obs.HelpsReceived, obs.ThunkReplays} {
		if got := d.Get(k); got != 0 {
			t.Errorf("blocking run moved lock-free counter %v: %d", k, got)
		}
	}
}

// TestMetricsStrictLockConservation runs the same laws through the
// strict Lock path (spin-then-help acquisition), which also records
// StrictSpins. Lock always succeeds, so committed == goroutines*perG.
func TestMetricsStrictLockConservation(t *testing.T) {
	prev := obs.Enabled()
	obs.SetEnabled(true)
	defer obs.SetEnabled(prev)

	rt := New()
	rt.SetStallInjection(16)
	const (
		goroutines = 4
		perG       = 2000
	)
	var (
		m  Mutable[uint64]
		l  Lock
		wg sync.WaitGroup
	)
	s0 := obs.Snapshot()
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			p := rt.Register()
			defer p.Unregister()
			for n := 0; n < perG; n++ {
				p.Begin()
				l.Lock(p, func(hp *Proc) bool {
					m.Store(hp, m.Load(hp)+1)
					return true
				})
				p.End()
			}
		}()
	}
	wg.Wait()
	d := obs.Snapshot().Sub(s0)
	const ops = uint64(goroutines * perG)
	if got := d.Get(obs.AcquiresLF); got != ops {
		t.Errorf("AcquiresLF = %d, want %d (strict Lock always completes)", got, ops)
	}
	own, recv, given := d.Get(obs.OwnCompletions), d.Get(obs.HelpsReceived), d.Get(obs.HelpsGiven)
	if own+recv != ops {
		t.Errorf("OwnCompletions(%d) + HelpsReceived(%d) = %d, want %d", own, recv, own+recv, ops)
	}
	if given != recv {
		t.Errorf("HelpsGiven = %d, HelpsReceived = %d", given, recv)
	}
}

// TestMetricsReclaimCountersMatchTrace pins the reclamation counters on
// the one grace-period queue, Recycler: a lock+Store loop in lock-free
// mode reuses batches of released descriptors, each batch waits at
// least one epoch, and every counted batch is exactly one EpochReclaim
// event on the Proc's ring, whose B is the lag the counters sum.
// Blocking mode has no descriptors and boxes are never pooled, so the
// same loop there parks nothing and reclaims no batch, in the counters
// and the trace alike.
func TestMetricsReclaimCountersMatchTrace(t *testing.T) {
	prev := obs.Enabled()
	obs.SetEnabled(true)
	defer obs.SetEnabled(prev)
	defer trace.SetRingShift(trace.SetRingShift(16))
	trace.SetEnabled(true)
	defer trace.SetEnabled(false)

	for _, mode := range []struct {
		name    string
		opts    []Option
		reclaim bool
	}{{"lockfree", nil, true}, {"blocking", []Option{Blocking()}, false}} {
		t.Run(mode.name, func(t *testing.T) {
			trace.Reset()
			p := New(mode.opts...).Register()
			defer p.Unregister()
			var l Lock
			var m Mutable[uint64]
			for i := uint64(0); i < 2000; i++ {
				p.Begin()
				l.TryLock(p, func(hp *Proc) bool {
					m.Store(hp, i)
					return true
				})
				p.End()
			}

			batches := p.metrics.Load(obs.EpochReclaimBatches)
			lag := p.metrics.Load(obs.EpochReclaimLagEpochs)
			if (batches > 0) != mode.reclaim {
				t.Fatalf("EpochReclaimBatches = %d after 2000 acquisitions, want reclaimed=%v", batches, mode.reclaim)
			}
			if lag < batches {
				t.Fatalf("EpochReclaimLagEpochs = %d < %d batches: a batch reclaimed in its own epoch", lag, batches)
			}
			tr := trace.Snapshot()
			if tr.Dropped != 0 {
				t.Fatalf("trace dropped %d records; enlarge the ring", tr.Dropped)
			}
			var events, lags uint64
			for _, e := range tr.Events {
				if e.Proc == p.id && e.Kind == trace.EpochReclaim {
					events++
					lags += e.B
				}
			}
			if events != batches {
				t.Fatalf("%d EpochReclaim events for %d counted batches", events, batches)
			}
			if lags != lag {
				t.Fatalf("EpochReclaim events carry a lag of %d epochs, the counter %d", lags, lag)
			}
		})
	}
}
