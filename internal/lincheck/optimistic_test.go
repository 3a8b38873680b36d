package lincheck

import (
	"math"
	"testing"

	"flock/internal/structures/set"
)

// TestOptimisticRejectedReadsNotReported is the optimistic-read
// recording contract (DESIGN.md S13): an optimistic attempt whose
// version validation failed observed a possibly-torn state, its result
// is discarded, and only the validated retry reaches the history. Each
// case synthesizes the same torn attempt twice — once correctly
// unreported (the history must pass) and once wrongly reported as a
// completed operation (the checker must flag it) — so a recording-layer
// bug that leaks rejected observations cannot pass.
func TestOptimisticRejectedReadsNotReported(t *testing.T) {
	// Ground truth: key 1 holds 10 over [1,2]..[5,6], then is deleted.
	base := []Op{
		{Kind: KInsert, Key: 1, Arg: 10, Ok: true, Start: 1, End: 2},
		{Kind: KDelete, Key: 1, Ok: true, Start: 5, End: 6},
	}
	cases := []struct {
		name string
		// torn is the rejected attempt's observation; valid is the
		// validated retry that is always reported.
		torn, valid Op
	}{
		{
			name: "stale find after delete",
			// The attempt read (present, 10) but its window lies
			// entirely after the delete: impossible at any
			// linearization point, which is why validation rejected it.
			torn:  Op{Kind: KFind, Key: 1, Ok: true, Val: 10, Start: 8, End: 9},
			valid: Op{Kind: KFind, Key: 1, Ok: false, Start: 10, End: 11},
		},
		{
			name: "torn value never stored",
			// The attempt caught a value mid-update that no committed
			// state ever held.
			torn:  Op{Kind: KFind, Key: 1, Ok: true, Val: 999, Start: 3, End: 4},
			valid: Op{Kind: KFind, Key: 1, Ok: true, Val: 10, Start: 3, End: 4},
		},
		{
			name: "phantom scan pair",
			// The attempt's scan reported a pair after the delete;
			// the validated retry sees the empty range.
			torn: Op{Kind: KScan, Lo: 0, Hi: math.MaxUint64, Limit: -1,
				Scan: []set.KV{{Key: 1, Value: 10}}, Start: 8, End: 9},
			valid: Op{Kind: KScan, Lo: 0, Hi: math.MaxUint64, Limit: -1,
				Scan: nil, Start: 10, End: 11},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			clean := append(append([]Op(nil), base...), tc.valid)
			if res := Check(clean); !res.Ok {
				t.Fatalf("history without the rejected attempt must pass, got %v", res)
			}
			leaked := append(clean, tc.torn)
			if res := Check(leaked); res.Ok {
				t.Fatalf("leaked rejected observation accepted: %+v", tc.torn)
			}
		})
	}
}

// TestScanLimitZero pins the checker's side of the limit-0 contract:
// Scan(lo, hi, 0) must return no pairs and observes nothing (it
// constrains no key, even one whose state changes inside the window).
func TestScanLimitZero(t *testing.T) {
	h := []Op{
		{Kind: KInsert, Key: 1, Arg: 10, Ok: true, Start: 1, End: 2},
		{Kind: KScan, Lo: 0, Hi: math.MaxUint64, Limit: 0, Scan: nil, Start: 3, End: 4},
	}
	if res := Check(h); !res.Ok {
		t.Fatalf("empty limit-0 scan rejected: %v", res)
	}
	h[1].Scan = []set.KV{{Key: 1, Value: 10}}
	if res := Check(h); res.Ok {
		t.Fatal("limit-0 scan returning pairs accepted")
	}
}
