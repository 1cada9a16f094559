package rhhh

import (
	"bytes"
	"math/rand/v2"
	"net/netip"
	"runtime"
	"slices"
	"sync"
	"testing"
	"time"

	"rhhh/internal/core"
)

// White-box differential and concurrency tests for the shared-nothing
// publication path: the lock-free Worker/epoch machinery is pinned against
// the preserved mutex reference (sharded_locked_test.go) over random
// update/publish/query interleavings, and the bounded-staleness contract is
// tested exactly.

func diffAddr4(a, b, c, d byte) netip.Addr { return netip.AddrFrom4([4]byte{a, b, c, d}) }

type diffPacket struct {
	src, dst netip.Addr
	w        uint64 // 0 means unweighted Update
}

func randDiffPacket(rng *rand.Rand) diffPacket {
	// Skewed: a quarter of traffic on one flow, a quarter on one /16, the
	// rest uniform — gives the extractor real HHH structure at every θ.
	switch rng.IntN(4) {
	case 0:
		return diffPacket{src: diffAddr4(10, 1, 1, 1), dst: diffAddr4(20, 2, 2, 2)}
	case 1:
		return diffPacket{
			src: diffAddr4(30, 3, byte(rng.IntN(4)), byte(rng.IntN(256))),
			dst: diffAddr4(20, 2, 2, 2),
		}
	default:
		return diffPacket{
			src: diffAddr4(byte(rng.IntN(256)), byte(rng.IntN(256)), 0, 1),
			dst: diffAddr4(byte(rng.IntN(256)), 0, 0, 2),
		}
	}
}

// publishedPackets reads worker w's latest published packet count (the
// per-worker stream prefix a query observes).
func publishedPackets[K comparable](w *Worker) uint64 {
	slot, _ := w.ring.(*core.PubRing[K]).Pin()
	defer slot.Unpin()
	return slot.Snapshot().Packets
}

// TestShardedDifferentialInterleaved drives random per-worker streams through
// the lock-free path with random publication points (explicit Syncs plus the
// automatic cadence), and after every query replays each worker's published
// stream prefix into the mutex reference: the two paths must answer
// bit-identically at every published epoch set — the "query results are
// bit-identical to a sequential merge of the per-worker streams" acceptance
// criterion.
func TestShardedDifferentialInterleaved(t *testing.T) {
	cfg := Config{Dims: 2, Epsilon: 0.02, Delta: 0.05, Seed: 71}
	const workers = 3
	s, err := NewShardedOptions(cfg, workers, ShardedOptions{PublishPackets: 512, PublishBatches: 8})
	if err != nil {
		t.Fatal(err)
	}
	ref, err := NewLockedShardedForTest(cfg, workers)
	if err != nil {
		t.Fatal(err)
	}

	rng := rand.New(rand.NewPCG(7, 21))
	logs := make([][]diffPacket, workers) // per-worker stream history
	refFed := make([]uint64, workers)     // prefix already replayed into ref
	thetas := []float64{0.05, 0.1, 0.25}

	feed := func(wi int) {
		w := s.workers[wi]
		burst := make([]diffPacket, 1+rng.IntN(200))
		for i := range burst {
			burst[i] = randDiffPacket(rng)
			if rng.IntN(8) == 0 {
				burst[i].w = 1 + uint64(rng.IntN(9))
			}
		}
		logs[wi] = append(logs[wi], burst...)
		switch rng.IntN(3) {
		case 0: // per-packet
			for _, p := range burst {
				if p.w != 0 {
					w.UpdateWeighted(p.src, p.dst, p.w)
				} else {
					w.Update(p.src, p.dst)
				}
			}
		case 1: // one unweighted batch (weights folded to 1)
			srcs := make([]netip.Addr, len(burst))
			dsts := make([]netip.Addr, len(burst))
			ws := make([]uint64, len(burst))
			for i, p := range burst {
				srcs[i], dsts[i] = p.src, p.dst
				if p.w == 0 {
					ws[i] = 1
				} else {
					ws[i] = p.w
				}
			}
			w.UpdateWeightedBatch(srcs, dsts, ws)
		default: // split into small batches
			srcs := make([]netip.Addr, 0, 64)
			dsts := make([]netip.Addr, 0, 64)
			for i, p := range burst {
				if p.w != 0 {
					// flush pending, then the weighted packet
					if len(srcs) > 0 {
						w.UpdateBatch(srcs, dsts)
						srcs, dsts = srcs[:0], dsts[:0]
					}
					w.UpdateWeighted(p.src, p.dst, p.w)
					continue
				}
				srcs = append(srcs, p.src)
				dsts = append(dsts, p.dst)
				if len(srcs) == 64 || i == len(burst)-1 {
					w.UpdateBatch(srcs, dsts)
					srcs, dsts = srcs[:0], dsts[:0]
				}
			}
			if len(srcs) > 0 {
				w.UpdateBatch(srcs, dsts)
			}
		}
	}

	check := func(step int) {
		// Replay each worker's published prefix into the reference. The
		// published packet count always lands on a call boundary of the
		// per-packet log, so the prefix is well defined.
		for wi := 0; wi < workers; wi++ {
			pub := publishedPackets[uint64](s.workers[wi])
			if pub < refFed[wi] {
				t.Fatalf("step %d worker %d: published packets went backwards (%d < %d)", step, wi, pub, refFed[wi])
			}
			for _, p := range logs[wi][refFed[wi]:pub] {
				if p.w != 0 {
					ref.Shard(wi).UpdateWeighted(p.src, p.dst, p.w)
				} else {
					ref.Shard(wi).Update(p.src, p.dst)
				}
			}
			refFed[wi] = pub
		}
		theta := thetas[rng.IntN(len(thetas))]
		got := s.HeavyHitters(theta)
		want := slices.Clone(ref.HeavyHitters(theta))
		if len(got) != len(want) {
			t.Fatalf("step %d θ=%v: %d vs %d results", step, theta, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("step %d θ=%v result %d:\n lock-free: %+v\n reference: %+v", step, theta, i, got[i], want[i])
			}
		}
	}

	for step := 0; step < 120; step++ {
		feed(rng.IntN(workers))
		if rng.IntN(3) == 0 {
			s.workers[rng.IntN(workers)].Sync()
		}
		if rng.IntN(2) == 0 {
			check(step)
		}
	}
	// Final fully synced comparison: everything published, everything fed.
	s.Sync()
	check(-1)
	var total uint64
	for wi := range logs {
		total += refFed[wi]
	}
	if got := s.N(); got != ref.N() {
		t.Fatalf("final N: lock-free %d vs reference %d", got, ref.N())
	}
	_ = total
}

// TestShardedSnapshotWarmMerge: Sharded.Snapshot merges through the query
// path's warm merger and destination and hands out a deep copy. Its bytes
// equal a cold sequential merge of the workers' own snapshots, a query
// right after it answers exactly as the query before it, and later traffic
// and queries leave an earlier snapshot's bytes untouched.
func TestShardedSnapshotWarmMerge(t *testing.T) {
	s, err := NewSharded(Config{Dims: 2, Epsilon: 0.02, Delta: 0.05, Seed: 29}, 3)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewPCG(29, 3))
	var prev *Snapshot
	var prevBytes []byte
	for round := 0; round < 4; round++ {
		for _, w := range s.workers {
			for i := 0; i < 5000+rng.IntN(20000); i++ {
				p := randDiffPacket(rng)
				w.Update(p.src, p.dst)
			}
		}
		s.Sync()
		before := slices.Clone(s.HeavyHitters(0.05))
		snap := s.Snapshot()
		after := s.HeavyHitters(0.05)
		if !slices.Equal(before, after) {
			t.Fatalf("round %d: query after Snapshot differs:\n before: %+v\n after:  %+v", round, before, after)
		}
		parts := make([]*Snapshot, len(s.workers))
		for i, w := range s.workers {
			parts[i] = w.m.Snapshot()
		}
		seq, err := parts[0].Merge(parts[1:]...)
		if err != nil {
			t.Fatal(err)
		}
		got, err := snap.MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		want, err := seq.MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("round %d: Snapshot bytes differ from a sequential merge (%d vs %d bytes)", round, len(got), len(want))
		}
		if prev != nil {
			if again, _ := prev.MarshalBinary(); !bytes.Equal(again, prevBytes) {
				t.Fatalf("round %d: an earlier snapshot changed under later traffic", round)
			}
		}
		prev, prevBytes = snap, got
	}
}

// TestShardedBoundedStaleness pins the publication-cadence contract exactly:
// a query lags each producer by less than one publication interval, the
// batch-count cadence publishes trickling batches, and Sync publishes
// immediately.
func TestShardedBoundedStaleness(t *testing.T) {
	t.Run("PacketWatermark", func(t *testing.T) {
		s, err := NewShardedOptions(Config{Dims: 2, Epsilon: 0.05, Delta: 0.05, Seed: 81}, 2,
			ShardedOptions{PublishPackets: 1000, PublishBatches: 1 << 30})
		if err != nil {
			t.Fatal(err)
		}
		w := s.Worker(0)
		rng := rand.New(rand.NewPCG(8, 1))
		for i := 0; i < 2500; i++ {
			p := randDiffPacket(rng)
			w.Update(p.src, p.dst)
			if lag := w.N() - s.N(); lag >= 1000 {
				t.Fatalf("after %d packets the query lags by %d ≥ PublishPackets", i+1, lag)
			}
		}
		if got := s.N(); got != 2000 {
			t.Fatalf("published N = %d, want exactly the 2×1000 watermark publications", got)
		}
		w.Sync()
		if got := s.N(); got != 2500 {
			t.Fatalf("after Sync published N = %d, want 2500", got)
		}
	})
	t.Run("BatchCadence", func(t *testing.T) {
		s, err := NewShardedOptions(Config{Dims: 2, Epsilon: 0.05, Delta: 0.05, Seed: 82}, 1,
			ShardedOptions{PublishPackets: 1 << 62, PublishBatches: 4})
		if err != nil {
			t.Fatal(err)
		}
		w := s.Worker(0)
		rng := rand.New(rand.NewPCG(8, 2))
		srcs := make([]netip.Addr, 10)
		dsts := make([]netip.Addr, 10)
		for b := 0; b < 5; b++ {
			for i := range srcs {
				p := randDiffPacket(rng)
				srcs[i], dsts[i] = p.src, p.dst
			}
			w.UpdateBatch(srcs, dsts)
		}
		if got := s.N(); got != 40 {
			t.Fatalf("published N = %d, want 40 (the 4-batch cadence publication)", got)
		}
		w.Sync()
		if got := s.N(); got != 50 {
			t.Fatalf("after Sync published N = %d, want 50", got)
		}
	})
}

// TestShardedEpochVersioning: the epoch increments exactly on publications
// that changed state; idle Syncs keep both the epoch and the published
// snapshot pointer.
func TestShardedEpochVersioning(t *testing.T) {
	s, err := NewShardedOptions(Config{Dims: 2, Epsilon: 0.05, Delta: 0.05, Seed: 83}, 1,
		ShardedOptions{PublishPackets: 1 << 62, PublishBatches: 1 << 30})
	if err != nil {
		t.Fatal(err)
	}
	w := s.Worker(0)
	if w.Epoch() != 0 {
		t.Fatalf("fresh worker epoch = %d", w.Epoch())
	}
	current := func() *core.PubSlot[uint64] {
		slot, _ := w.ring.(*core.PubRing[uint64]).Pin()
		slot.Unpin()
		return slot
	}
	before := current()
	w.Sync()
	if w.Epoch() != 0 || current() != before {
		t.Fatal("idle Sync republished")
	}
	rng := rand.New(rand.NewPCG(8, 3))
	for i := 1; i <= 5; i++ {
		p := randDiffPacket(rng)
		w.Update(p.src, p.dst)
		w.Sync()
		if got := w.Epoch(); got != uint64(i) {
			t.Fatalf("after publication %d epoch = %d", i, got)
		}
		if got := w.PublishedN(); got != uint64(i) {
			t.Fatalf("after publication %d PublishedN = %d", i, got)
		}
		w.Sync() // idle again
		if got := w.Epoch(); got != uint64(i) {
			t.Fatalf("idle Sync bumped epoch to %d", got)
		}
	}
}

// TestShardedQuerySideZeroAllocAcrossEpochs is the strong form of the warm
// busy-query pin: a worker publishes a new epoch before every query (so no
// unchanged shortcut can fire end-to-end and the merger re-merges the
// touched node each time), and the query side still allocates nothing —
// pinning is a few atomic operations per worker, merge and extraction reuse
// all scratch. Only the queries are counted: publication runs outside.
func TestShardedQuerySideZeroAllocAcrossEpochs(t *testing.T) {
	s, err := NewSharded(Config{Dims: 2, Epsilon: 0.01, Delta: 0.01, Seed: 85}, 2)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewPCG(8, 5))
	for wi := 0; wi < 2; wi++ {
		w := s.workers[wi]
		for i := 0; i < 100000; i++ {
			p := randDiffPacket(rng)
			w.Update(p.src, p.dst)
		}
		w.Sync()
	}
	w := s.workers[0]
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	var ms runtime.MemStats
	query := func() uint64 {
		epoch := w.Epoch()
		w.Update(diffAddr4(10, 1, 1, 1), diffAddr4(20, 2, 2, 2))
		w.Sync()
		if w.Epoch() == epoch {
			t.Fatal("publication did not produce a new epoch")
		}
		runtime.ReadMemStats(&ms)
		before := ms.Mallocs
		if len(s.HeavyHitters(0.05)) == 0 {
			t.Fatal("no heavy hitters")
		}
		runtime.ReadMemStats(&ms)
		return ms.Mallocs - before
	}
	for i := 0; i < 16; i++ {
		query()
	}
	var allocs uint64
	for i := 0; i < 100; i++ {
		allocs += query()
	}
	if allocs != 0 {
		t.Fatalf("query side allocates %d times over 100 queries with changing epochs, want 0", allocs)
	}
}

// TestShardedDifferentialRaceChurn is the -race differential: concurrent
// producers with a small publication cadence, a hammering query goroutine
// asserting well-formed monotone results, and watch subscription churn — then
// a final bit-identical comparison against the mutex reference fed the same
// per-worker streams.
func TestShardedDifferentialRaceChurn(t *testing.T) {
	cfg := Config{Dims: 2, Epsilon: 0.05, Delta: 0.05, Seed: 91}
	const workers = 4
	s, err := NewShardedOptions(cfg, workers, ShardedOptions{PublishPackets: 512, PublishBatches: 4})
	if err != nil {
		t.Fatal(err)
	}
	ref, err := NewLockedShardedForTest(cfg, workers)
	if err != nil {
		t.Fatal(err)
	}

	stop := make(chan struct{})
	var wg sync.WaitGroup
	logs := make([][]diffPacket, workers)

	for wi := 0; wi < workers; wi++ {
		wg.Add(1)
		go func(wi int) {
			defer wg.Done()
			w := s.workers[wi]
			rng := rand.New(rand.NewPCG(uint64(wi), 13))
			srcs := make([]netip.Addr, 64)
			dsts := make([]netip.Addr, 64)
			for {
				select {
				case <-stop:
					return
				default:
				}
				for i := range srcs {
					p := randDiffPacket(rng)
					srcs[i], dsts[i] = p.src, p.dst
					logs[wi] = append(logs[wi], p)
				}
				w.UpdateBatch(srcs, dsts)
				if rng.IntN(16) == 0 {
					w.Sync()
				}
			}
		}(wi)
	}

	// Query hammer: results well formed, published N monotone.
	wg.Add(1)
	go func() {
		defer wg.Done()
		var lastN uint64
		for {
			select {
			case <-stop:
				return
			default:
			}
			for _, h := range s.HeavyHitters(0.2) {
				if h.Upper < h.Lower {
					panic("inverted bounds in live query")
				}
			}
			if n := s.N(); n < lastN {
				panic("published N went backwards")
			} else {
				lastN = n
			}
			_ = s.Snapshot().N()
		}
	}()

	// Subscription churn against the 1ms watch driver.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 20; i++ {
			sub, err := s.Watch(WatchOptions{Theta: 0.1, Interval: time.Millisecond, OnDelta: func(Delta) {}})
			if err != nil {
				return
			}
			time.Sleep(2 * time.Millisecond)
			sub.Close()
			select {
			case <-stop:
				return
			default:
			}
		}
	}()

	time.Sleep(150 * time.Millisecond)
	close(stop)
	wg.Wait()
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	// Producers are quiescent with a happens-before edge: publish the tails
	// and compare against the reference fed the identical streams.
	s.Sync()
	for wi := 0; wi < workers; wi++ {
		sh := ref.Shard(wi)
		for _, p := range logs[wi] {
			sh.Update(p.src, p.dst)
		}
	}
	if s.N() != ref.N() {
		t.Fatalf("final N: lock-free %d vs reference %d", s.N(), ref.N())
	}
	got := s.HeavyHitters(0.1)
	want := slices.Clone(ref.HeavyHitters(0.1))
	if len(got) != len(want) {
		t.Fatalf("final query: %d vs %d results", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("final result %d:\n lock-free: %+v\n reference: %+v", i, got[i], want[i])
		}
	}
}
