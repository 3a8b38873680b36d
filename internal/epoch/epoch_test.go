package epoch

import (
	"sync"
	"sync/atomic"
	"testing"

	"flock/internal/obs"
)

func TestRegisterStartsQuiescent(t *testing.T) {
	m := NewManager()
	s := m.Register()
	if got := s.Announced(); got != Quiescent {
		t.Fatalf("new slot announced %d, want Quiescent", got)
	}
	if s.Depth() != 0 {
		t.Fatalf("new slot depth %d, want 0", s.Depth())
	}
}

func TestEnterAnnouncesGlobal(t *testing.T) {
	m := NewManager()
	s := m.Register()
	s.Enter()
	if got, want := s.Announced(), m.GlobalEpoch(); got != want {
		t.Fatalf("announced %d, want global %d", got, want)
	}
	s.Exit()
	if got := s.Announced(); got != Quiescent {
		t.Fatalf("after Exit announced %d, want Quiescent", got)
	}
}

func TestGuardsNest(t *testing.T) {
	m := NewManager()
	s := m.Register()
	s.Enter()
	e := s.Announced()
	s.Enter()
	s.Enter()
	if s.Depth() != 3 {
		t.Fatalf("depth %d, want 3", s.Depth())
	}
	if s.Announced() != e {
		t.Fatalf("nested Enter changed announcement")
	}
	s.Exit()
	s.Exit()
	if s.Announced() != e {
		t.Fatalf("inner Exit cleared announcement early")
	}
	s.Exit()
	if s.Announced() != Quiescent {
		t.Fatalf("outermost Exit did not quiesce")
	}
}

func TestExitWithoutEnterPanics(t *testing.T) {
	m := NewManager()
	s := m.Register()
	defer func() {
		if recover() == nil {
			t.Fatalf("Exit without Enter did not panic")
		}
	}()
	s.Exit()
}

func TestAdvanceBlockedByLaggingGuard(t *testing.T) {
	m := NewManager()
	a := m.Register()
	b := m.Register()
	a.Enter() // announces current epoch g
	g := m.GlobalEpoch()
	if !m.TryAdvance() {
		t.Fatalf("advance should succeed when all guards are current")
	}
	if m.GlobalEpoch() != g+1 {
		t.Fatalf("global %d, want %d", m.GlobalEpoch(), g+1)
	}
	// a still announces g < g+1, so a second advance must fail.
	if m.TryAdvance() {
		t.Fatalf("advance should be blocked by lagging guard")
	}
	b.Enter() // announces g+1; does not unblock a's lag
	if m.TryAdvance() {
		t.Fatalf("advance should still be blocked")
	}
	a.Exit()
	if !m.TryAdvance() {
		t.Fatalf("advance should succeed once lagging guard exits")
	}
	b.Exit()
}

func TestLowerAndRestore(t *testing.T) {
	m := NewManager()
	s := m.Register()
	// Advance a few epochs first.
	for i := 0; i < 5; i++ {
		m.TryAdvance()
	}
	s.Enter()
	cur := s.Announced()
	prev := s.Lower(2)
	if prev != cur {
		t.Fatalf("Lower returned %d, want previous announcement %d", prev, cur)
	}
	if s.Announced() != 2 {
		t.Fatalf("announced %d after Lower(2)", s.Announced())
	}
	// Lowering to a higher epoch must not raise the announcement.
	p2 := s.Lower(100)
	if s.Announced() != 2 || p2 != 2 {
		t.Fatalf("Lower raised announcement to %d", s.Announced())
	}
	s.Restore(prev)
	if s.Announced() != cur {
		t.Fatalf("Restore did not reinstate announcement")
	}
	s.Exit()
}

// TestLoweredGuardBlocksReclaim: a helper lowered to an old thunk birth
// epoch holds both advancement and the reuse bound at that epoch, and
// releases both once it restores and exits.
func TestLoweredGuardBlocksReclaim(t *testing.T) {
	m := NewManager()
	helper := m.Register()

	birth := m.GlobalEpoch() // descriptor's birth epoch
	for i := 0; i < 4; i++ {
		m.TryAdvance()
	}

	helper.Enter()
	prev := helper.Lower(birth)
	for i := 0; i < 10; i++ {
		if m.TryAdvance() {
			t.Fatalf("TryAdvance passed a helper lowered to %d (global %d)", birth, m.GlobalEpoch())
		}
	}
	if got := m.SafeBefore(); got != birth {
		t.Fatalf("SafeBefore = %d under a helper lowered to %d", got, birth)
	}
	helper.Restore(prev)
	helper.Exit()
	if !m.TryAdvance() {
		t.Fatal("TryAdvance blocked after the helper exited")
	}
	if got := m.SafeBefore(); got != m.GlobalEpoch() || got <= birth+4 {
		t.Fatalf("SafeBefore = %d after the helper exited, want global %d", got, m.GlobalEpoch())
	}
}

func TestUnregisterInsideGuardPanics(t *testing.T) {
	m := NewManager()
	s := m.Register()
	s.Enter()
	defer func() {
		if recover() == nil {
			t.Fatalf("Unregister inside guard did not panic")
		}
	}()
	s.Unregister()
}

// TestConcurrentStress exercises registration, guards, helper lowering
// and advancing from many goroutines, and checks the safety property
// pooled reuse rests on: while a guard is open, SafeBefore never exceeds
// its announcement, lowered or not, so nothing unlinked at or after
// that epoch is ever handed out for reuse under it.
func TestConcurrentStress(t *testing.T) {
	m := NewManager()
	const workers = 8
	const opsPer = 2_000

	var wg sync.WaitGroup
	var violations atomic.Int32

	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			s := m.Register()
			for i := 0; i < opsPer; i++ {
				s.Enter()
				a := s.Announced()
				if i%8 == 0 {
					prev := s.Lower(a - 1)
					if m.SafeBefore() > a-1 {
						violations.Add(1)
					}
					s.Restore(prev)
				}
				m.TryAdvance()
				if m.SafeBefore() > a {
					violations.Add(1)
				}
				s.Exit()
			}
			s.Unregister()
		}()
	}
	wg.Wait()

	if violations.Load() != 0 {
		t.Fatalf("%d reuse-bound violations", violations.Load())
	}
	if g := m.GlobalEpoch(); g == 2 {
		t.Fatal("the global epoch never advanced")
	}
	if got := m.SafeBefore(); got != m.GlobalEpoch() {
		t.Fatalf("SafeBefore = %d with every slot gone, want global %d", got, m.GlobalEpoch())
	}
}

func BenchmarkGuardEnterExit(b *testing.B) {
	m := NewManager()
	s := m.Register()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Enter()
		s.Exit()
	}
}

// TestSafeBeforeBounds pins the exported reuse bound: with no active
// guards it equals the global epoch; with a guard open it equals the
// minimum announcement (including announcements lowered by helpers), so
// objects retired at or after that announcement are never handed out
// for reuse while the guard is open.
func TestSafeBeforeBounds(t *testing.T) {
	m := NewManager()
	if got := m.SafeBefore(); got != m.GlobalEpoch() {
		t.Fatalf("quiescent SafeBefore = %d, want global %d", got, m.GlobalEpoch())
	}
	s := m.Register()
	q := m.Register()
	q.Enter()
	announced := q.Announced()
	// Force the global ahead of the guard's announcement.
	for i := 0; i < 3; i++ {
		s.Enter()
		s.Exit()
		m.TryAdvance()
	}
	if got := m.SafeBefore(); got != announced {
		t.Fatalf("SafeBefore = %d with guard announced at %d", got, announced)
	}
	// A helper lowered below the guard's epoch drags the bound down too.
	prev := q.Lower(announced - 1)
	if got := m.SafeBefore(); got != announced-1 {
		t.Fatalf("SafeBefore = %d with lowered announcement %d", got, announced-1)
	}
	q.Restore(prev)
	q.Exit()
	if got := m.SafeBefore(); got != m.GlobalEpoch() {
		t.Fatalf("SafeBefore = %d after guard exit, want global %d", got, m.GlobalEpoch())
	}
}

// TestMetricsAdvanceAndReclaimCounters pins the obs wiring (DESIGN.md
// S14): TryAdvance traffic lands on the shared global block, and the
// epoch manager adds nothing to the reclaim counters — those belong to
// the one grace-period queue, the pooled-reuse drain in internal/core
// (its TestMetricsReclaimCountersMatchTrace).
func TestMetricsAdvanceAndReclaimCounters(t *testing.T) {
	prev := obs.Enabled()
	obs.SetEnabled(true)
	defer obs.SetEnabled(prev)

	m := NewManager()
	s := m.Register()
	s0 := obs.Snapshot()

	// A guard that has caught up with the global epoch does not block
	// the first advance, but it lags the bumped epoch and blocks the
	// second — one counted success and one counted failure.
	q := m.Register()
	q.Enter()
	if !m.TryAdvance() {
		t.Fatal("TryAdvance blocked by a caught-up guard")
	}
	if m.TryAdvance() {
		t.Fatal("TryAdvance succeeded under a lagging guard")
	}
	q.Exit()

	// Successful advances.
	for i := 0; i < 4; i++ {
		s.Enter()
		s.Exit()
		if !m.TryAdvance() {
			t.Fatalf("quiescent TryAdvance %d failed", i)
		}
	}

	d := obs.Snapshot().Sub(s0)
	// The slot machinery auto-advances on its own cadence (advanceEvery),
	// so exact counts would pin an internal policy; the
	// invariants are what matter: at least our 5 explicit successes, and
	// strictly more tries than successes (the blocked attempt counted).
	tries, adv := d.Get(obs.EpochAdvanceTries), d.Get(obs.EpochAdvances)
	if adv < 5 {
		t.Errorf("EpochAdvances = %d, want >= 5", adv)
	}
	if tries <= adv {
		t.Errorf("EpochAdvanceTries = %d with %d advances: the blocked attempt was not counted", tries, adv)
	}
	if b, lag := d.Get(obs.EpochReclaimBatches), d.Get(obs.EpochReclaimLagEpochs); b != 0 || lag != 0 {
		t.Errorf("epoch manager counted %d reclaim batches (lag %d); only the pool drain reclaims", b, lag)
	}
	q.Unregister()
	s.Unregister()
}
