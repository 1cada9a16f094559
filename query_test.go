package rhhh_test

import (
	"net/netip"
	"slices"
	"testing"

	"rhhh"
)

// fillSharded drives a deterministic skewed workload into every shard.
func fillSharded(s *rhhh.Sharded, packets int) {
	rng := uint64(0x12345)
	next := func() uint64 {
		rng = rng*6364136223846793005 + 1442695040888963407
		return rng >> 33
	}
	for i := 0; i < packets; i++ {
		var src, dst netip.Addr
		switch next() % 10 {
		case 0, 1, 2, 3:
			src, dst = addr4(10, 1, 1, 1), addr4(20, 2, 2, 2)
		case 4, 5:
			src, dst = addr4(30, 3, byte(next()%4), byte(next()%256)), addr4(20, 2, 2, 2)
		default:
			src, dst = addr4(byte(next()%256), byte(next()%256), 0, 1), addr4(byte(next()%256), 0, 0, 2)
		}
		s.Worker(i%s.Workers()).Update(src, dst)
	}
	s.Sync() // publish every worker's tail so queries see the whole fill
}

// TestShardedWarmQueryZeroAlloc asserts the acceptance criterion on the
// public sharded query path: once warm, HeavyHitters allocates nothing —
// both when the shards are idle (the whole capture→merge→extract pipeline
// short-circuits) and when traffic flows between queries (the full flat
// extraction runs).
func TestShardedWarmQueryZeroAlloc(t *testing.T) {
	s, err := rhhh.NewSharded(rhhh.Config{Dims: 2, Epsilon: 0.01, Delta: 0.01, Seed: 1}, 4)
	if err != nil {
		t.Fatal(err)
	}
	fillSharded(s, 200000)

	query := func() {
		if len(s.HeavyHitters(0.05)) == 0 {
			t.Fatal("no heavy hitters")
		}
	}
	for i := 0; i < 16; i++ {
		query()
	}
	if allocs := testing.AllocsPerRun(100, query); allocs != 0 {
		t.Fatalf("idle warm query allocates %v times per run, want 0", allocs)
	}

	// With a fresh publication before every query the unchanged shortcuts
	// cannot fire, so this measures the full collect + merge + extract +
	// convert pipeline. The publication itself allocates (each changed node
	// is freshly copied so published epochs stay immutable) — measure the
	// producer side alone and the producer+query side and require the query
	// to add nothing. The updated key is one the warm text cache has seen.
	w := s.Worker(0)
	produce := func() {
		w.Update(addr4(10, 1, 1, 1), addr4(20, 2, 2, 2))
		w.Sync()
	}
	busy := func() {
		produce()
		query()
	}
	for i := 0; i < 16; i++ {
		busy()
	}
	pubOnly := testing.AllocsPerRun(100, produce)
	if pubOnly > 8 {
		t.Fatalf("one-packet publication allocates %v times, want a small constant", pubOnly)
	}
	if allocs := testing.AllocsPerRun(100, busy); allocs != pubOnly {
		t.Fatalf("busy warm query allocates %v times per run beyond the %v publication allocs, want 0",
			allocs-pubOnly, pubOnly)
	}
}

// TestSnapshotWarmQueryZeroAlloc: repeated queries on a standalone snapshot
// reuse all extraction state; after the first query at each θ, later ones
// allocate nothing.
func TestSnapshotWarmQueryZeroAlloc(t *testing.T) {
	s, err := rhhh.NewSharded(rhhh.Config{Dims: 2, Epsilon: 0.01, Delta: 0.01, Seed: 2}, 2)
	if err != nil {
		t.Fatal(err)
	}
	fillSharded(s, 150000)
	snap := s.Snapshot()
	query := func() {
		if len(snap.HeavyHitters(0.05)) == 0 || len(snap.HeavyHitters(0.1)) == 0 {
			t.Fatal("no heavy hitters")
		}
	}
	for i := 0; i < 8; i++ {
		query()
	}
	if allocs := testing.AllocsPerRun(100, query); allocs != 0 {
		t.Fatalf("warm snapshot query allocates %v times per run, want 0", allocs)
	}
}

// TestShardedQueryRepeatStable: re-querying an idle Sharded (the shortcut
// path) and a θ-alternating query sequence both reproduce the full
// extraction's answer exactly.
func TestShardedQueryRepeatStable(t *testing.T) {
	s, err := rhhh.NewSharded(rhhh.Config{Dims: 2, Epsilon: 0.02, Delta: 0.05, Seed: 3}, 2)
	if err != nil {
		t.Fatal(err)
	}
	fillSharded(s, 100000)
	first := slices.Clone(s.HeavyHitters(0.1))
	snapEqualHH(t, "repeat query (shortcut)", first, s.HeavyHitters(0.1))
	if len(s.HeavyHitters(0.3)) > len(first) {
		t.Fatal("higher θ returned more results")
	}
	// Back to the original θ after the buffer was reused for another query.
	snapEqualHH(t, "θ round-trip", first, s.HeavyHitters(0.1))
}

// TestWindowedWarmQueryZeroAlloc: a sliding Windowed's on-demand query —
// k−1 ring slots plus a fresh capture of the open sub-window, read as one
// union — allocates nothing once warm, with packets fed between queries
// and no window boundary crossed.
func TestWindowedWarmQueryZeroAlloc(t *testing.T) {
	const k, theta = 4, 0.05
	cfg := rhhh.Config{Dims: 2, Epsilon: 0.01, Delta: 0.01, Seed: 4}
	size := uint64(rhhh.MustNew(cfg).Psi())/k + 1
	w, err := rhhh.NewSlidingWindowed(cfg, size, k, theta, func(rhhh.WindowResult) {})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	rng := uint64(0x9876)
	next := func() uint64 {
		rng = rng*6364136223846793005 + 1442695040888963407
		return rng >> 33
	}
	feed := func(n int) {
		for range n {
			if next()%2 == 0 {
				w.Update(addr4(10, 1, 1, byte(next()%4)), addr4(20, 2, 2, 2))
			} else {
				w.Update(addr4(30, byte(next()%4), byte(next()%8), 1), addr4(byte(next()%8), 0, 0, 2))
			}
		}
	}
	feed(int(k*size) + int(size/4)) // the ring is full and the open sub-window a quarter in
	w.Sync()
	busy := func() {
		feed(64)
		if len(w.HeavyHitters(theta)) == 0 {
			t.Fatal("no heavy hitters")
		}
	}
	for range 16 {
		busy()
	}
	completed := w.Completed()
	feedOnly := testing.AllocsPerRun(100, func() { feed(64) })
	if allocs := testing.AllocsPerRun(100, busy); allocs != feedOnly {
		t.Fatalf("warm sliding query allocates %v times per run beyond the %v feed allocs, want 0",
			allocs-feedOnly, feedOnly)
	}
	if w.Completed() != completed {
		t.Fatal("a window boundary was crossed between queries")
	}
}
