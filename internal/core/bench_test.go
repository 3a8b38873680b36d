package flock

import (
	"sync/atomic"
	"testing"
)

// Micro-benchmarks and ablations for the core mechanism: the design
// choices §6 of the paper calls out (compare-and-compare-and-swap,
// update-once locations, log growth) plus the two stated sources of
// lock-free overhead (descriptor creation and log commits).

// BenchmarkUncontendedTryLockLF measures the full lock-free acquisition
// path: descriptor allocation + install + logged critical section. The
// gap to the blocking variant below is the paper's "overhead of
// lock-free locks" (§8: descriptor creation + log commits). Each
// acquisition runs inside Begin/End, as a structure operation does:
// guard entries advance the epoch, so the descriptor comes from the
// pool instead of the garbage collector. Both variants do so and make
// their thunk once, so they count only the lock's own allocations and
// the stored value's box (1 alloc/op in both modes).
func BenchmarkUncontendedTryLockLF(b *testing.B) {
	rt := New()
	p := rt.Register()
	defer p.Unregister()
	var l Lock
	var c Mutable[uint64]
	inc := func(hp *Proc) bool {
		v := c.Load(hp)
		c.Store(hp, v+1)
		return true
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.Begin()
		l.TryLock(p, inc)
		p.End()
	}
}

func BenchmarkUncontendedTryLockBlocking(b *testing.B) {
	rt := New(Blocking())
	p := rt.Register()
	defer p.Unregister()
	var l Lock
	var c Mutable[uint64]
	inc := func(hp *Proc) bool {
		v := c.Load(hp)
		c.Store(hp, v+1)
		return true
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.Begin()
		l.TryLock(p, inc)
		p.End()
	}
}

// BenchmarkAblationCCAS isolates §6's compare-and-compare-and-swap: the
// same contended helping workload with the read-before-CAS fast path on
// and off. The paper reports up to 2x under high contention.
func BenchmarkAblationCCAS(b *testing.B) {
	for _, cfg := range []struct {
		name string
		opts []Option
	}{
		{"ccas-on", nil},
		{"ccas-off", []Option{noCCAS()}},
	} {
		b.Run(cfg.name, func(b *testing.B) {
			rt := New(cfg.opts...)
			var l Lock
			var c Mutable[uint64]
			b.SetParallelism(8)
			b.RunParallel(func(pb *testing.PB) {
				p := rt.Register()
				defer p.Unregister()
				for pb.Next() {
					p.Begin()
					l.TryLock(p, func(hp *Proc) bool {
						v := c.Load(hp)
						c.Store(hp, v+1)
						return true
					})
					p.End()
				}
			})
		})
	}
}

// BenchmarkAblationLogLength measures commit cost as thunks grow past
// block boundaries (block length 7): the marginal cost of idempotent log
// growth.
func BenchmarkAblationLogLength(b *testing.B) {
	for _, steps := range []int{3, 7, 21, 70} {
		b.Run("steps="+itoa(steps), func(b *testing.B) {
			rt := New()
			p := rt.Register()
			defer p.Unregister()
			var l Lock
			cells := make([]Mutable[uint64], 8)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				l.TryLock(p, func(hp *Proc) bool {
					for s := 0; s < steps; s++ {
						c := &cells[s%len(cells)]
						v := c.Load(hp)
						c.Store(hp, v+1)
					}
					return true
				})
			}
			b.ReportMetric(float64(steps), "logged-ops")
		})
	}
}

// BenchmarkAblationUpdateOnce compares the update-once store (plain
// write) against the general mutable store (logged load + CAS) inside a
// thunk — §6's "update-once locations" optimization.
func BenchmarkAblationUpdateOnce(b *testing.B) {
	b.Run("mutable-store", func(b *testing.B) {
		rt := New()
		p := rt.Register()
		defer p.Unregister()
		var l Lock
		var m Mutable[bool]
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			l.TryLock(p, func(hp *Proc) bool {
				m.Store(hp, true)
				return true
			})
		}
	})
	b.Run("update-once-store", func(b *testing.B) {
		rt := New()
		p := rt.Register()
		defer p.Unregister()
		var l Lock
		var u UpdateOnce[bool]
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			l.TryLock(p, func(hp *Proc) bool {
				u.Store(hp, true)
				return true
			})
		}
	})
}

// BenchmarkTryVsStrict contends a single lock from parallel workers with
// both acquisition styles (the raw-lock view of Figure 4).
func BenchmarkTryVsStrict(b *testing.B) {
	for _, strict := range []bool{false, true} {
		name := "try"
		if strict {
			name = "strict"
		}
		b.Run(name, func(b *testing.B) {
			rt := New()
			var l Lock
			var c Mutable[uint64]
			b.SetParallelism(8)
			b.RunParallel(func(pb *testing.PB) {
				p := rt.Register()
				defer p.Unregister()
				for pb.Next() {
					p.Begin()
					if strict {
						l.Lock(p, func(hp *Proc) bool {
							v := c.Load(hp)
							c.Store(hp, v+1)
							return true
						})
					} else {
						l.TryLock(p, func(hp *Proc) bool {
							v := c.Load(hp)
							c.Store(hp, v+1)
							return true
						})
					}
					p.End()
				}
			})
		})
	}
}

// BenchmarkAblationPooling isolates the S10 memory management: the same
// guarded lock+store loop with per-Proc descriptor pooling on (default)
// and off (noPool, the GC-fresh path). At par=1 the pooled arm
// allocates only the stored value's box; heavily oversubscribed arms
// converge (grace periods stretch across scheduler quanta and the pool
// saturates to the GC fallback), which is why the FIFOs are capped.
func BenchmarkAblationPooling(b *testing.B) {
	for _, cfg := range []struct {
		name string
		opts []Option
	}{
		{"pooled", nil},
		{"nopool", []Option{noPool()}},
	} {
		for _, par := range []int{1, 8} {
			b.Run(cfg.name+"/par="+itoa(par), func(b *testing.B) {
				rt := New(cfg.opts...)
				var l Lock
				var c Mutable[uint64]
				b.SetParallelism(par)
				b.ReportAllocs()
				b.RunParallel(func(pb *testing.PB) {
					p := rt.Register()
					defer p.Unregister()
					f := func(hp *Proc) bool {
						v := c.Load(hp)
						c.Store(hp, v+1)
						return true
					}
					for pb.Next() {
						p.Begin()
						l.TryLock(p, f)
						p.End()
					}
				})
			})
		}
	}
}

// BenchmarkTryLocksInOneGuard runs uncontended acquisitions 64 to a
// guard, as a long composed operation does. The guard's own announcement
// keeps every descriptor it parks unripe until the next guard, so reuse
// depends on the epoch advancing between guards; B/op is the measure
// (the stored value's box alone is 8).
func BenchmarkTryLocksInOneGuard(b *testing.B) {
	p := New().Register()
	defer p.Unregister()
	var l Lock
	var c Mutable[uint64]
	inc := func(hp *Proc) bool {
		c.Store(hp, c.Load(hp)+1)
		return true
	}
	b.ReportAllocs()
	p.Begin()
	for i := 1; i <= b.N; i++ {
		l.TryLock(p, inc)
		if i%64 == 0 {
			p.End()
			p.Begin()
		}
	}
	p.End()
}

// BenchmarkHelpingStorm measures throughput when every operation fights
// over one lock with injected stalls, i.e. helping is constant — the
// worst case for the log and the best case for progress.
func BenchmarkHelpingStorm(b *testing.B) {
	rt := New()
	rt.SetStallInjection(64)
	var l Lock
	var c Mutable[uint64]
	var done atomic.Uint64
	b.SetParallelism(16)
	b.RunParallel(func(pb *testing.PB) {
		p := rt.Register()
		defer p.Unregister()
		for pb.Next() {
			p.Begin()
			if l.TryLock(p, func(hp *Proc) bool {
				v := c.Load(hp)
				c.Store(hp, v+1)
				return true
			}) {
				done.Add(1)
			}
			p.End()
		}
	})
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var buf [8]byte
	i := len(buf)
	for n > 0 {
		i--
		buf[i] = byte('0' + n%10)
		n /= 10
	}
	return string(buf[i:])
}
