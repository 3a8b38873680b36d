package harness

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"strings"
	"testing"
	"time"
)

// goldenSpecDigest pins every measurement spec the figure tables build
// at goldenScale: the sha256 of one "figure series x %+v" line per
// (figure, series, x) triple, figures in FigureIDs order. A change to a
// figure table, a Series or the spec-building path that alters any
// point's spec changes the digest.
const goldenSpecDigest = "f863a5f7c3260d16f0e6fa00093ced4a048aa8d7d171c135c25fe819a4a0d332"

// goldenScale is an explicit Scale (DefaultScale depends on GOMAXPROCS).
func goldenScale() Scale {
	return Scale{
		LargeKeys: 100_000, SmallKeys: 10_000, ListKeys: 100,
		Duration: 100 * time.Millisecond, Warmup: 0, Repeats: 1,
		Threads: []int{1, 2, 4, 8, 16, 32}, Base: 8, Over: 24,
		Shards: 8, Seed: 42,
	}
}

func TestFigureSpecsGolden(t *testing.T) {
	sc := goldenScale()
	figs := Figures()
	var b strings.Builder
	for _, id := range FigureIDs() {
		fs := figs[id]
		for _, x := range fs.Xs(sc) {
			for _, s := range fs.Series {
				fmt.Fprintf(&b, "%s %s %s %+v\n", id, s.Name, x, fs.SpecFor(sc, s, x))
			}
		}
	}
	sum := sha256.Sum256([]byte(b.String()))
	if got := hex.EncodeToString(sum[:]); got != goldenSpecDigest {
		t.Errorf("figure spec digest = %s, want %s; specs:\n%s", got, goldenSpecDigest, b.String())
	}
}
