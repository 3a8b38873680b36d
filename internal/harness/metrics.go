package harness

// Harness-side surface of the obs runtime-metrics layer (DESIGN.md
// S14): window deltas, the sampled time series, per-thread fairness and
// the per-point summary flockbench renders. The hot-path side (padded
// per-Proc blocks, the enable flag) lives in internal/obs; this file
// only aggregates what measure() snapshotted.

import (
	"math"

	"flock/internal/obs"
)

// MetricSample is one point of a measured window's time series:
// cumulative counter deltas since the window began, at AtMs
// milliseconds from the window start. Consumers diff consecutive
// samples for rates (helps/s, CAS-fails/s over time).
type MetricSample struct {
	AtMs     float64 `json:"t_ms"`
	Helps    uint64  `json:"helps"`
	CASFails uint64  `json:"cas_fails"`
	// Goroutines is the process goroutine count at the sample instant
	// and GCPauseNs the cumulative GC stop-the-world pause time since
	// the window began (runtime/metrics' GC pause CPU time over
	// GOMAXPROCS) — the two runtime-level signals that distinguish
	// scheduler pressure and collector stalls from lock contention in a
	// window's time series.
	Goroutines int    `json:"goroutines"`
	GCPauseNs  uint64 `json:"gc_pause_ns"`
}

// MetricsWindow is the obs view of one measured window: the counter
// deltas between the window-edge snapshots, the sampled time series,
// and (KV/txn paths) the per-shard routed-op counts for skew.
type MetricsWindow struct {
	Window   obs.Counts
	Samples  []MetricSample
	ShardOps []uint64
}

// PointMetrics is the per-point metrics summary figures and flockbench
// emit: window counters normalized per completed operation, plus pool,
// epoch, transaction and shard-skew derivations. Rendered into the
// `-metrics` table sections, the JSONL "metrics" object and the
// `:metrics` CSV columns.
type PointMetrics struct {
	HelpsPerOp     float64 `json:"helps_per_op"`
	HelpsRecvPerOp float64 `json:"helps_recv_per_op"`
	ReplaysPerOp   float64 `json:"replays_per_op"`
	CASFailsPerOp  float64 `json:"cas_fails_per_op"`
	SpinsPerOp     float64 `json:"spins_per_op"`
	// PoolHitRate is recycled records (descriptors and the layers'
	// critical-section state) over every record taken, hits+misses (0
	// when the window took none).
	PoolHitRate float64 `json:"pool_hit_rate"`
	// EpochAdvances counts global-epoch advancements; EpochLagEpochs is
	// the mean number of epochs a batch of recycled records waited
	// between being put back and reused (obs.EpochReclaim*).
	EpochAdvances  uint64  `json:"epoch_advances"`
	EpochLagEpochs float64 `json:"epoch_lag_epochs"`
	// OptRestartsPerOp is the obs-mirrored optimistic restart rate (the
	// absolute store counter already rides on Point.OptRestarts).
	OptRestartsPerOp float64 `json:"opt_restarts_per_op"`
	// TxnHelpedPerOp is the fraction of committed transactions that a
	// foreign Proc ran at least part of; TxnDepthHist is the
	// nested-acquire depth histogram (buckets 1, 2, 3, 4, 5-8, 9+).
	// Both zero-valued outside the txn path.
	TxnHelpedPerOp float64  `json:"txn_helped_per_op,omitempty"`
	TxnDepthHist   []uint64 `json:"txn_depth_hist,omitempty"`
	// ShardSkew is max over mean of the per-shard routed-op counts (1.0
	// = perfectly uniform routing); ShardOps is the raw vector. Both
	// empty outside the KV/txn paths.
	ShardSkew float64  `json:"shard_skew,omitempty"`
	ShardOps  []uint64 `json:"shard_ops,omitempty"`
	// Samples is the window's cumulative time series (last repetition).
	Samples []MetricSample `json:"samples,omitempty"`
}

// pointMetrics derives the per-point summary from the obs window
// aggregated over opCount operations; nil when the run was not collected
// with Spec.Metrics.
func pointMetrics(opCount uint64, m *MetricsWindow) *PointMetrics {
	if m == nil {
		return nil
	}
	ops := float64(opCount)
	if ops == 0 {
		ops = 1 // zero-op windows report absolute counts as rates
	}
	w := m.Window
	pm := &PointMetrics{
		HelpsPerOp:       float64(w.Get(obs.HelpsGiven)) / ops,
		HelpsRecvPerOp:   float64(w.Get(obs.HelpsReceived)) / ops,
		ReplaysPerOp:     float64(w.Get(obs.ThunkReplays)) / ops,
		CASFailsPerOp:    float64(w.Get(obs.InstallCASFails)) / ops,
		SpinsPerOp:       float64(w.Get(obs.StrictSpins)) / ops,
		EpochAdvances:    w.Get(obs.EpochAdvances),
		OptRestartsPerOp: float64(w.Get(obs.OptRestarts)) / ops,
		Samples:          m.Samples,
	}
	if hm := w.Get(obs.PoolHits) + w.Get(obs.PoolMisses); hm > 0 {
		pm.PoolHitRate = float64(w.Get(obs.PoolHits)) / float64(hm)
	}
	if b := w.Get(obs.EpochReclaimBatches); b > 0 {
		pm.EpochLagEpochs = float64(w.Get(obs.EpochReclaimLagEpochs)) / float64(b)
	}
	depth := []uint64{
		w.Get(obs.TxnDepth1), w.Get(obs.TxnDepth2), w.Get(obs.TxnDepth3),
		w.Get(obs.TxnDepth4), w.Get(obs.TxnDepth5to8), w.Get(obs.TxnDepth9Plus),
	}
	for _, d := range depth {
		if d > 0 {
			pm.TxnDepthHist = depth
			pm.TxnHelpedPerOp = float64(w.Get(obs.TxnHelped)) / ops
			break
		}
	}
	if len(m.ShardOps) > 1 {
		var sum, max uint64
		for _, n := range m.ShardOps {
			sum += n
			if n > max {
				max = n
			}
		}
		if sum > 0 {
			mean := float64(sum) / float64(len(m.ShardOps))
			pm.ShardSkew = float64(max) / mean
			pm.ShardOps = m.ShardOps
		}
	}
	return pm
}

// fairness computes the per-thread op-count spread: the busiest
// thread's count over the laziest's (the laziest clamped to >= 1 so a
// zero-op thread on a tiny window yields a large finite ratio rather
// than +Inf, which JSON cannot carry), and the coefficient of variation.
func fairness(counts []uint64) (maxMin, cov float64) {
	if len(counts) == 0 {
		return 1, 0
	}
	var sum uint64
	min, max := counts[0], counts[0]
	for _, c := range counts {
		sum += c
		if c < min {
			min = c
		}
		if c > max {
			max = c
		}
	}
	if sum == 0 {
		return 1, 0
	}
	lo := float64(min)
	if lo < 1 {
		lo = 1
	}
	maxMin = float64(max) / lo
	mean := float64(sum) / float64(len(counts))
	var v float64
	for _, c := range counts {
		d := float64(c) - mean
		v += d * d
	}
	cov = math.Sqrt(v/float64(len(counts))) / mean
	return maxMin, cov
}

// subSlices returns cur - old elementwise, saturating at zero and
// tolerating length mismatches (extra cur entries pass through).
func subSlices(cur, old []uint64) []uint64 {
	out := make([]uint64, len(cur))
	for i, c := range cur {
		if i < len(old) && old[i] < c {
			out[i] = c - old[i]
		} else if i >= len(old) {
			out[i] = c
		}
	}
	return out
}

// addSlices returns a + b elementwise, growing to the longer length.
func addSlices(a, b []uint64) []uint64 {
	if len(b) > len(a) {
		a, b = b, a
	}
	out := make([]uint64, len(a))
	copy(out, a)
	for i, v := range b {
		out[i] += v
	}
	return out
}
