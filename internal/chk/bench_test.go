package chk

import (
	"math/rand"
	"testing"

	"rhhh/internal/fastrand"
	"rhhh/internal/spacesaving"
)

// benchKeys builds a key stream over keyspace distinct values.
func benchKeys(n int, keyspace uint64, seed uint64) []uint64 {
	r := fastrand.New(seed)
	keys := make([]uint64, n)
	for i := range keys {
		keys[i] = r.Uint64n(keyspace)
	}
	return keys
}

// BenchmarkCHKUpdate isolates the sketch's two phases the way the
// Stream-Summary kernel bench does: HitOnly is the monitored fast path (two
// bucket probes, one add), Decay is the all-miss path (two probes plus one
// RNG draw per update — the price of an eviction here, vs the Summary's
// bucket-list surgery).
func BenchmarkCHKUpdate(b *testing.B) {
	const capacity = 1024
	b.Run("HitOnly", func(b *testing.B) {
		s := New[uint64](capacity, 1)
		keys := benchKeys(1<<14, 512, 2) // all resident: well under capacity
		for _, k := range keys {
			s.Increment(k)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			s.Increment(keys[i&(1<<14-1)])
		}
	})
	b.Run("Decay", func(b *testing.B) {
		s := New[uint64](capacity, 3)
		warm := benchKeys(1<<14, 1<<30, 4)
		for _, k := range warm {
			s.Increment(k) // fill the table so every miss runs decay
		}
		keys := benchKeys(1<<14, 1<<30, 5)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			s.Increment(keys[i&(1<<14-1)] | 1<<40) // disjoint keyspace: ~all miss
		}
	})
	b.Run("Mixed", func(b *testing.B) {
		// The Fig-5-like regime: heavy hitters hit, the tail decays.
		s := New[uint64](capacity, 6)
		r := fastrand.New(7)
		keys := make([]uint64, 1<<14)
		for i := range keys {
			if r.Uint64n(10) < 4 {
				keys[i] = r.Uint64n(256)
			} else {
				keys[i] = (1 << 20) | r.Uint64() // scattered tail, ~all miss
			}
		}
		for _, k := range keys {
			s.Increment(k)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			s.Increment(keys[i&(1<<14-1)])
		}
	})
	b.Run("WeightedDecay", func(b *testing.B) {
		s := New[uint64](capacity, 8)
		for _, k := range benchKeys(1<<14, 1<<30, 9) {
			s.IncrementBy(k, 100)
		}
		keys := benchKeys(1<<14, 1<<30, 10)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			s.IncrementBy(keys[i&(1<<14-1)]|1<<40, 100)
		}
	})
}

// BenchmarkCHKCapture times one capture of an engine's worth of sketches:
// 25 nodes (the 2D byte lattice) of CountersFor(ε = 0.001) = 1001
// counters, each full after 2¹⁷ Zipf updates, copied by SnapshotInto into
// reused snapshots. It is the cost a CHK-backed engine pays per
// publication and per delta report.
func BenchmarkCHKCapture(b *testing.B) {
	const nodes, counters = 25, 1001
	sketches := make([]*Sketch[uint64], nodes)
	for i := range sketches {
		s := New[uint64](counters, uint64(i))
		z := rand.NewZipf(rand.New(rand.NewSource(int64(i))), 1.1, 1, 1<<20)
		for range 1 << 17 {
			s.Increment(z.Uint64())
		}
		sketches[i] = s
	}
	dst := make([]spacesaving.Snapshot[uint64], nodes)
	for i, s := range sketches {
		s.SnapshotInto(&dst[i])
	}
	b.ReportAllocs()
	b.ResetTimer()
	for range b.N {
		for i, s := range sketches {
			s.SnapshotInto(&dst[i])
		}
	}
}
