package core_test

import (
	"fmt"
	"testing"

	"rhhh/internal/core"
	"rhhh/internal/fastrand"
	"rhhh/internal/hierarchy"
	"rhhh/internal/spacesaving"
)

// mustEqualSnapshots compares two engine snapshots bit for bit: every node's
// key/bound arrays in order, plus the stream counters.
func mustEqualSnapshots[K comparable](t *testing.T, tag string, a, b *core.EngineSnapshot[K]) {
	t.Helper()
	if a.Packets != b.Packets || a.Weight != b.Weight {
		t.Fatalf("%s: packets/weight (%d,%d) vs (%d,%d)", tag, a.Packets, a.Weight, b.Packets, b.Weight)
	}
	if len(a.Nodes) != len(b.Nodes) {
		t.Fatalf("%s: %d vs %d nodes", tag, len(a.Nodes), len(b.Nodes))
	}
	for n := range a.Nodes {
		na, nb := &a.Nodes[n], &b.Nodes[n]
		if na.N != nb.N || na.Min != nb.Min || na.Cap != nb.Cap || len(na.Keys) != len(nb.Keys) {
			t.Fatalf("%s node %d: header (N=%d Min=%d Cap=%d len=%d) vs (N=%d Min=%d Cap=%d len=%d)",
				tag, n, na.N, na.Min, na.Cap, len(na.Keys), nb.N, nb.Min, nb.Cap, len(nb.Keys))
		}
		for i := range na.Keys {
			if na.Keys[i] != nb.Keys[i] || na.Upper[i] != nb.Upper[i] || na.Lower[i] != nb.Lower[i] {
				t.Fatalf("%s node %d entry %d: (%v,%d,%d) vs (%v,%d,%d)", tag, n, i,
					na.Keys[i], na.Upper[i], na.Lower[i], nb.Keys[i], nb.Upper[i], nb.Lower[i])
			}
		}
	}
}

// kernelChunkSizes straddle the spacesaving.BatchChunk plan boundary and
// include a multi-chunk burst.
var kernelChunkSizes = []int{1, 63, 64, 65, 4096}

// runBatchKernelDifferential drives one engine per-packet and one through
// the batch surfaces over the same stream and RNG seed, comparing engine
// snapshots after every batch. Covers unit and weighted batches.
func runBatchKernelDifferential[K comparable](t *testing.T, dom *hierarchy.Domain[K], gen func(*fastrand.Source) K, vMult int, weighted bool) {
	h := dom.Size()
	cfg := core.Config{Epsilon: 0.05, Delta: 0.05, V: vMult * h, Seed: 1234}
	seq := core.New(dom, cfg)
	// Two batched engines: one on whatever path the engine picks for this
	// state size (the direct apply, at this ε), one forced through the
	// windowed resolve/apply kernel — both must match the sequential path.
	bat := core.New(dom, cfg)
	ker := core.New(dom, cfg)
	ker.ForceKernelApply()
	if _ = spacesaving.BatchChunk; !bat.UsesConcreteBackend() {
		t.Fatal("differential needs the concrete Space Saving backend")
	}
	r := fastrand.New(4321)
	var seqSnap, batSnap, kerSnap core.EngineSnapshot[K]
	for round := 0; round < 3; round++ {
		for _, n := range kernelChunkSizes {
			keys := make([]K, n)
			ws := make([]uint64, n)
			for i := range keys {
				keys[i] = gen(r)
				switch r.Uint64n(8) {
				case 0:
					ws[i] = 0
				case 1:
					ws[i] = 1 + r.Uint64n(1000)
				default:
					ws[i] = 1 + r.Uint64n(4)
				}
			}
			if weighted {
				for i, k := range keys {
					seq.UpdateWeighted(k, ws[i])
				}
				bat.UpdateWeightedBatch(keys, ws)
				ker.UpdateWeightedBatch(keys, ws)
			} else {
				for _, k := range keys {
					seq.Update(k)
				}
				bat.UpdateBatch(keys)
				ker.UpdateBatch(keys)
			}
			tag := fmt.Sprintf("V=%dH weighted=%v n=%d round=%d", vMult, weighted, n, round)
			mustEqualSnapshots(t, tag, seq.SnapshotInto(&seqSnap), bat.SnapshotInto(&batSnap))
			mustEqualSnapshots(t, tag+"/kernel", seq.SnapshotInto(&seqSnap), ker.SnapshotInto(&kerSnap))
		}
	}
}

// TestBatchKernelDifferential is the kernel's acceptance property: for every
// domain shape, V = H and V > H, unit and weighted batches, and chunk sizes
// at and around the plan boundary, engine state after the pipelined batch
// path is bit-identical to the sequential per-packet path.
func TestBatchKernelDifferential(t *testing.T) {
	gen1 := func(r *fastrand.Source) uint32 { return uint32(r.Uint64n(1 << 14)) }
	gen2 := func(r *fastrand.Source) uint64 {
		return hierarchy.Pack2D(uint32(r.Uint64n(1<<10)), uint32(r.Uint64n(1<<10)))
	}
	for _, vMult := range []int{1, 10} {
		for _, weighted := range []bool{false, true} {
			t.Run(fmt.Sprintf("1D-Bytes/V=%dH/weighted=%v", vMult, weighted), func(t *testing.T) {
				runBatchKernelDifferential(t, hierarchy.NewIPv4OneDim(hierarchy.Bytes), gen1, vMult, weighted)
			})
			t.Run(fmt.Sprintf("2D-Bytes/V=%dH/weighted=%v", vMult, weighted), func(t *testing.T) {
				runBatchKernelDifferential(t, hierarchy.NewIPv4TwoDim(hierarchy.Bytes), gen2, vMult, weighted)
			})
			t.Run(fmt.Sprintf("1D-Nibbles/V=%dH/weighted=%v", vMult, weighted), func(t *testing.T) {
				runBatchKernelDifferential(t, hierarchy.NewIPv4OneDim(hierarchy.Nibbles), gen1, vMult, weighted)
			})
		}
	}
}

// TestBatchKernelDifferentialMultiDraw covers the r > 1 per-draw path, which
// UpdateBatch now also node-groups.
func TestBatchKernelDifferentialMultiDraw(t *testing.T) {
	dom := hierarchy.NewIPv4OneDim(hierarchy.Bytes)
	cfg := core.Config{Epsilon: 0.05, Delta: 0.05, V: 4 * dom.Size(), R: 3, Seed: 5}
	seq := core.New(dom, cfg)
	bat := core.New(dom, cfg)
	r := fastrand.New(6)
	var seqSnap, batSnap core.EngineSnapshot[uint32]
	for round := 0; round < 4; round++ {
		n := 1 + int(r.Uint64n(3000))
		keys := make([]uint32, n)
		for i := range keys {
			keys[i] = uint32(r.Uint64n(1 << 12))
		}
		for _, k := range keys {
			seq.Update(k)
		}
		bat.UpdateBatch(keys)
		mustEqualSnapshots(t, fmt.Sprintf("r=3 round %d", round), seq.SnapshotInto(&seqSnap), bat.SnapshotInto(&batSnap))
	}
}

// TestBatchSurfacesZeroAlloc pins the steady-state allocation contract of
// the batch kernel: once scratch has grown, unit and weighted batches
// allocate nothing on any path (skip sampling and per-draw alike).
func TestBatchSurfacesZeroAlloc(t *testing.T) {
	dom := hierarchy.NewIPv4TwoDim(hierarchy.Bytes)
	r := fastrand.New(9)
	keys := make([]uint64, 512)
	ws := make([]uint64, 512)
	for i := range keys {
		keys[i] = hierarchy.Pack2D(uint32(r.Uint64()), uint32(r.Uint64()))
		ws[i] = 1 + r.Uint64n(9)
	}
	for _, vMult := range []int{1, 10} {
		for _, kernel := range []bool{false, true} {
			eng := core.New(dom, core.Config{Epsilon: 0.01, Delta: 0.01, V: vMult * dom.Size(), Seed: 2})
			if kernel {
				eng.ForceKernelApply()
			}
			// Warm: fill the summaries and grow all batch scratch.
			for i := 0; i < 400; i++ {
				eng.UpdateBatch(keys)
				eng.UpdateWeightedBatch(keys, ws)
			}
			if n := testing.AllocsPerRun(100, func() { eng.UpdateBatch(keys) }); n != 0 {
				t.Errorf("V=%dH kernel=%v UpdateBatch allocates %v/op", vMult, kernel, n)
			}
			if n := testing.AllocsPerRun(100, func() { eng.UpdateWeightedBatch(keys, ws) }); n != 0 {
				t.Errorf("V=%dH kernel=%v UpdateWeightedBatch allocates %v/op", vMult, kernel, n)
			}
		}
	}
}
