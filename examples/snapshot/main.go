// Snapshot: epoch-consistent whole-store snapshots and streaming dumps.
//
// A backup or analytics pass wants one consistent view of the whole
// store — every shard at a single logical instant — without stopping
// the writers. Store.Snapshot() takes that view by installing a
// pre-image overlay inside one composed all-shard critical section
// (a few microseconds), then iterating the shards chunk by chunk while
// transactions keep committing; writes that land mid-iteration are
// repaired back to their activation-time values from the overlay
// (DESIGN.md S17). Here a transfer storm runs throughout: every
// snapshot must still sum to the seeded total, and a streaming
// Dump/Restore round-trip must reproduce it exactly.
//
//	go run ./examples/snapshot
package main

import (
	"bytes"
	"fmt"
	"io"
	"math"
	"os"
	"sync"
	"sync/atomic"

	flock "flock/internal/core"
	"flock/internal/kv"
	"flock/internal/structures/leaftree"
	"flock/internal/structures/set"
	"flock/internal/txn"
	"flock/internal/workload"
)

func factory(rt *flock.Runtime, _ uint64) set.Set { return leaftree.New(rt) }

const (
	accounts = 1000
	initial  = uint64(100)
	total    = uint64(accounts) * initial
)

func main() {
	if err := run(os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "snapshot example:", err)
		os.Exit(1)
	}
}

func run(w io.Writer) error {
	st := txn.New(factory, txn.Options{Shards: 4, KeyRange: 4096})

	seed := st.Register()
	for k := uint64(1); k <= accounts; k++ {
		seed.Put(k, initial)
	}
	seed.Close()

	// The storm: transfer workers move money for the whole run.
	var stop atomic.Bool
	var wg sync.WaitGroup
	for wkr := 0; wkr < 4; wkr++ {
		wg.Add(1)
		go func(seed uint64) {
			defer wg.Done()
			c := st.Register()
			defer c.Close()
			rng := workload.NewSplitMix64(seed)
			for !stop.Load() {
				a := rng.Next()%accounts + 1
				b := rng.Next()%accounts + 1
				if a != b {
					c.Transfer(a, b, rng.Next()%5+1)
				}
			}
		}(uint64(wkr)*31 + 7)
	}
	defer func() { stop.Store(true); wg.Wait() }()

	// A consistent view mid-storm: iterate the whole store and the
	// conserved sum must hold, even though transfers commit underneath
	// the iteration the whole time.
	sn := st.KV().Snapshot()
	var sum uint64
	n := 0
	sn.Iterate(0, math.MaxUint64, func(_, v uint64) bool {
		sum += v
		n++
		return true
	})
	if n != accounts || sum != total {
		sn.Close()
		return fmt.Errorf("snapshot saw %d accounts totalling %d, want %d totalling %d", n, sum, accounts, total)
	}
	fmt.Fprintf(w, "snapshot: %d accounts, total %d (conserved)\n", n, sum)

	// Streaming dump of the same view — any io.Writer works; a real
	// backup would hand Dump an *os.File or a network connection.
	var backup bytes.Buffer
	if err := sn.Dump(&backup); err != nil {
		sn.Close()
		return fmt.Errorf("dump: %w", err)
	}
	sn.Close() // deactivates the overlay hooks and releases the client
	fmt.Fprintf(w, "dump: %d bytes (checksummed)\n", backup.Len())

	// Restore into a fresh store (any shard count) and verify the
	// round-trip byte for byte against the snapshot's view.
	fresh := kv.New(factory, kv.Options{Shards: 2, KeyRange: 4096})
	restored, err := fresh.Restore(&backup)
	if err != nil {
		return fmt.Errorf("restore: %w", err)
	}
	c := fresh.Register()
	defer c.Close()
	var rsum uint64
	for _, pair := range c.Scan(0, math.MaxUint64, -1) {
		rsum += pair.Value
	}
	if restored != n || rsum != sum {
		return fmt.Errorf("restore round-trip: %d records totalling %d, want %d totalling %d", restored, rsum, n, sum)
	}
	fmt.Fprintf(w, "restore: %d records, total %d (round-trip exact)\n", restored, rsum)
	return nil
}
