package flock

// Runtime options the tests and ablation benchmarks use to switch off
// what the default runtime always does, so its effect can be measured.

// noCCAS turns off the compare-and-compare-and-swap read before each
// commit and install CAS (§6).
func noCCAS() Option { return func(rt *Runtime) { rt.avoidCAS = false } }

// noPool turns off descriptor pooling: every acquisition allocates a
// fresh descriptor and released ones are left to the garbage collector.
func noPool() Option { return func(rt *Runtime) { rt.pooling = false } }
