package main

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"testing"
	"time"

	"flock/internal/harness"
)

var update = flag.Bool("update", false, "rewrite the golden files under testdata/")

// checkGolden compares got with testdata/name, or rewrites the file
// under -update.
func checkGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *update {
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("%s differs from the golden file:\ngot:\n%s\nwant:\n%s", name, got, want)
	}
}

// goldenFigure is a synthetic measured figure whose points between them
// set every optional section the emitters render: obs metrics (on some
// points only), snapshot-loop progress and optimistic counters.
func goldenFigure() harness.Figure {
	full := &harness.PointMetrics{
		HelpsPerOp: 0.125, HelpsRecvPerOp: 0.0625, ReplaysPerOp: 0.5,
		CASFailsPerOp: 0.03125, SpinsPerOp: 1.5, PoolHitRate: 0.975,
		EpochAdvances: 12, EpochLagEpochs: 2.5,
		OptRestartsPerOp: 0.001,
		TxnHelpedPerOp:   0.25, TxnDepthHist: []uint64{10, 5, 0, 0, 1, 0},
		ShardSkew: 1.75, ShardOps: []uint64{100, 75, 25, 0},
		Samples: []harness.MetricSample{
			{AtMs: 12.5, Helps: 3, CASFails: 1, Goroutines: 9, GCPauseNs: 0},
			{AtMs: 25, Helps: 7, CASFails: 4, Goroutines: 9, GCPauseNs: 41000},
		},
	}
	sparse := &harness.PointMetrics{HelpsPerOp: 2, CASFailsPerOp: 0.5, PoolHitRate: 1}
	return harness.Figure{
		ID: "ext-golden", Paper: "Synthetic figure for emitter golden tests", XLabel: "threads",
		Points: []harness.Point{
			{Figure: "ext-golden", Series: "arm-lf", X: "1", Mops: 1.234567, Std: 0.0123, AllocsPerOp: 2.5,
				P50: 1500 * time.Nanosecond, P95: 2750 * time.Nanosecond, P99: 12345 * time.Nanosecond,
				OptRestarts: 3, FairMaxMin: 1.5, FairCoV: 0.125,
				SnapCycles: 4, SnapKeysPerSec: 12345.6, Metrics: full},
			{Figure: "ext-golden", Series: "arm-bl-with-a-long-name", X: "1", Mops: 0.5, Std: 0, AllocsPerOp: 0,
				P50: 900 * time.Nanosecond, P95: 4 * time.Microsecond, P99: 2 * time.Millisecond,
				FairMaxMin: 3.25, FairCoV: 0.5},
			{Figure: "ext-golden", Series: "arm-lf", X: "16", Mops: 10.5, Std: 1.25, AllocsPerOp: 0.125,
				P50: 3 * time.Microsecond, P95: 7 * time.Microsecond, P99: 90 * time.Microsecond,
				FairMaxMin: 1, FairCoV: 0, Metrics: sparse},
			{Figure: "ext-golden", Series: "arm-bl-with-a-long-name", X: "16", Mops: 0.001, Std: 0.0005, AllocsPerOp: 31.75,
				P50: 100 * time.Microsecond, P95: 300 * time.Microsecond, P99: 1500 * time.Microsecond,
				OptRestarts: 17, FairMaxMin: 40, FairCoV: 1.125, SnapCycles: 1, SnapKeysPerSec: 0.4},
		},
	}
}

// TestFigureEmittersGolden pins the table, CSV and JSONL renderings of
// a figure byte for byte.
func TestFigureEmittersGolden(t *testing.T) {
	fig := goldenFigure()
	var table, csv, jsonl bytes.Buffer
	printFigure(&table, fig, false)
	printFigure(&csv, fig, true)
	printFigureJSON(&jsonl, fig)
	checkGolden(t, "figure.table.golden", table.Bytes())
	checkGolden(t, "figure.csv.golden", csv.Bytes())
	checkGolden(t, "figure.jsonl.golden", jsonl.Bytes())
}

// TestListGolden pins the -list catalog byte for byte.
func TestListGolden(t *testing.T) {
	var out, errb bytes.Buffer
	if code := run([]string{"-list"}, &out, &errb); code != 0 {
		t.Fatalf("-list exited %d: %s", code, errb.String())
	}
	checkGolden(t, "list.golden", out.Bytes())
}
