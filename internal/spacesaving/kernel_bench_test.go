package spacesaving

import (
	"math/rand/v2"
	"slices"
	"testing"
)

// BenchmarkUpdateKernel measures the update kernel at the paper's ε=0.001
// scale (1001 counters, steady state, mostly monitored keys — the RHHH
// per-node workload):
//
//   - Sequential: the per-key Increment loop on one summary — the
//     dependent-chain baseline.
//   - SequentialNodes, ResolveAcrossNodes, ResolveApplyNodes: the same loop
//     and the two-phase batch kernel at the engine's 25-node shape (below).
//
// ns/op is per update (b.N counts keys, not chunks).
func BenchmarkUpdateKernel(b *testing.B) {
	const capacity = 1001
	rng := rand.New(rand.NewPCG(1, 2))
	// The steady-state mix: a key space a few times the capacity, so most
	// updates hit monitored keys with a steady trickle of evictions —
	// matching a converged RHHH node on a heavy-tailed trace.
	keys := make([]uint64, 1<<14)
	for i := range keys {
		keys[i] = rng.Uint64N(4 * capacity)
	}
	mask := len(keys) - 1

	b.Run("Sequential", func(b *testing.B) {
		s := New[uint64](capacity)
		for round := 0; round < 40; round++ {
			applyBatch(s, keys, nil)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			s.Increment(keys[i&mask])
		}
	})

	// Cross-node variants at the RHHH engine's shape: 25 summaries (the 2D
	// byte lattice), each update hitting a random node — the access pattern
	// whose memory latency the windowed kernel overlaps. The spread between
	// SequentialNodes and ResolveAcrossNodes is the memory-level-parallelism
	// headroom; ResolveAcrossNodes alone is the resolve-phase floor.
	const nodes = 25
	mkNodes := func() ([]*Summary[uint64], []int32) {
		rng := rand.New(rand.NewPCG(3, 4))
		sums := make([]*Summary[uint64], nodes)
		for i := range sums {
			sums[i] = New[uint64](capacity)
		}
		nd := make([]int32, len(keys))
		for i := range nd {
			nd[i] = int32(rng.Uint64N(nodes))
		}
		// Group each BatchChunk window by node, as the engine's counting
		// sort does: ApplyPlanned requires a window's same-node samples to
		// be contiguous so plans never go stale across runs.
		for off := 0; off < len(nd); off += BatchChunk {
			end := off + BatchChunk
			if end > len(nd) {
				end = len(nd)
			}
			slices.Sort(nd[off:end])
		}
		for round := 0; round < 40; round++ {
			for i, k := range keys {
				sums[nd[i]].Increment(k)
			}
		}
		return sums, nd
	}
	b.Run("SequentialNodes", func(b *testing.B) {
		sums, nd := mkNodes()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			j := i & mask
			sums[nd[j]].Increment(keys[j])
		}
	})
	b.Run("ResolveAcrossNodes", func(b *testing.B) {
		sums, nd := mkNodes()
		var slots [BatchChunk]int32
		var hashes [BatchChunk]uint32
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i += BatchChunk {
			off := i & mask
			end := off + BatchChunk
			if end > len(keys) {
				end = len(keys)
			}
			ResolveAcross(sums, nd[off:end], keys[off:end], slots[:end-off], hashes[:end-off])
		}
	})
	b.Run("ResolveApplyNodes", func(b *testing.B) {
		sums, nd := mkNodes()
		var slots [BatchChunk]int32
		var hashes [BatchChunk]uint32
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i += BatchChunk {
			off := i & mask
			end := off + BatchChunk
			if end > len(keys) {
				end = len(keys)
			}
			ResolveAcross(sums, nd[off:end], keys[off:end], slots[:end-off], hashes[:end-off])
			for j := off; j < end; {
				n := nd[j]
				k := j + 1
				for k < end && nd[k] == n {
					k++
				}
				sums[n].ApplyPlanned(keys[j:k], slots[j-off:k-off], hashes[j-off:k-off])
				j = k
			}
		}
	})
}
