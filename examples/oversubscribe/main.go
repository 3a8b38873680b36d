// Oversubscribe: the paper's headline comparison, reproduced as a demo.
//
// The same leaftree (leaf-oriented BST with fine-grained try-locks) runs
// a 50%-update zipfian workload from many more goroutines than
// GOMAXPROCS, once in blocking mode and once in lock-free mode, with a
// descheduling event injected inside every 200th critical section (the
// event an oversubscribed OS produces naturally; DESIGN.md S3). Blocking
// locks strand every waiter behind the descheduled holder; lock-free
// locks let the first waiter finish the holder's work.
//
//	go run ./examples/oversubscribe
package main

import (
	"fmt"
	"runtime"
	"time"

	"flock/internal/harness"
)

func main() {
	threads := 6 * runtime.GOMAXPROCS(0)
	if threads < 24 {
		threads = 24
	}
	fmt.Printf("GOMAXPROCS=%d, workers=%d (oversubscribed %dx), stall every 200 acquisitions\n\n",
		runtime.GOMAXPROCS(0), threads, threads/runtime.GOMAXPROCS(0))

	var mops [2]float64
	for i, blocking := range []bool{true, false} {
		mode := "lock-free"
		if blocking {
			mode = "blocking"
		}
		pt, err := harness.RunStats(harness.Spec{
			Structure:  "leaftree",
			Blocking:   blocking,
			Threads:    threads,
			KeyRange:   10_000,
			UpdatePct:  50,
			Alpha:      0.75,
			Duration:   400 * time.Millisecond,
			Seed:       1,
			StallEvery: 200,
		}, 1, 3)
		if err != nil {
			panic(err)
		}
		mops[i] = pt.Mops
		fmt.Printf("%-9s: %7.3f Mop/s (±%.3f)\n", mode, pt.Mops, pt.Std)
	}
	fmt.Printf("\nlock-free / blocking = %.1fx under oversubscription with descheduling\n", mops[1]/mops[0])
	fmt.Println("(the paper's Figure 5d/5g effect: blocking waiters strand behind a " +
		"descheduled lock holder; lock-free helpers complete its critical section)")
}
