package core_test

import (
	"fmt"
	"testing"

	"rhhh/internal/core"
	"rhhh/internal/fastrand"
	"rhhh/internal/hierarchy"
	"rhhh/internal/spacesaving"
)

// equalResults requires bit-identical result slices (same order, same float
// bits).
func equalResults[K comparable](t *testing.T, label string, got, want []core.Result[K]) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d results, reference has %d", label, len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("%s: result %d differs:\n  got  %+v\n  want %+v", label, i, got[i], want[i])
		}
	}
}

// snapshotInstances wraps each of a snapshot's nodes in a read-only
// snapNode, so the map reference answers the exact query the snapshot path
// answers.
func snapshotInstances[K comparable](es *core.EngineSnapshot[K]) []core.Instance[K] {
	inst := make([]core.Instance[K], len(es.Nodes))
	for i := range es.Nodes {
		inst[i] = snapNode[K]{&es.Nodes[i]}
	}
	return inst
}

// snapNode is a read-only Instance over one snapshot node: the node's stored
// order and bounds, and its Min for keys it does not hold. (Loading a
// truncated merged node into a Summary would answer those with the smallest
// kept count instead.)
type snapNode[K comparable] struct{ sn *spacesaving.Snapshot[K] }

func (a snapNode[K]) Increment(K)                 { panic("read-only") }
func (a snapNode[K]) IncrementBy(K, uint64)       { panic("read-only") }
func (a snapNode[K]) Bounds(k K) (uint64, uint64) { return a.sn.Bounds(k) }
func (a snapNode[K]) Updates() uint64             { return a.sn.N }
func (a snapNode[K]) Reset()                      { panic("read-only") }
func (a snapNode[K]) Candidates(fn func(K, uint64, uint64)) {
	for i, k := range a.sn.Keys {
		fn(k, a.sn.Upper[i], a.sn.Lower[i])
	}
}

// TestExtractorMatchesMapReference is the differential property test pinning
// the flat Extractor bit-identical to the retired map-based implementation:
// live instances and snapshot-backed extraction, 1D and 2D domains, a θ
// sweep, a reused Extractor across every query (so stale scratch would
// surface), and both the incremental and full paths.
func TestExtractorMatchesMapReference(t *testing.T) {
	thetas := []float64{0.005, 0.01, 0.02, 0.05, 0.1, 0.3}

	t.Run("2D-Bytes", func(t *testing.T) {
		dom := hierarchy.NewIPv4TwoDim(hierarchy.Bytes)
		diffTestDomain(t, dom, func(r *fastrand.Source) uint64 { return gen2D(r) }, thetas)
	})
	t.Run("1D-Bytes", func(t *testing.T) {
		dom := hierarchy.NewIPv4OneDim(hierarchy.Bytes)
		diffTestDomain(t, dom, func(r *fastrand.Source) uint32 {
			return uint32(gen2D(r) >> 32) // the skewed source dimension
		}, thetas)
	})
	t.Run("2D-Nibbles", func(t *testing.T) {
		dom := hierarchy.NewIPv4TwoDim(hierarchy.Nibbles)
		diffTestDomain(t, dom, func(r *fastrand.Source) uint64 { return gen2D(r) }, thetas)
	})
}

func diffTestDomain[K comparable](t *testing.T, dom *hierarchy.Domain[K], gen func(*fastrand.Source) K, thetas []float64) {
	for seed := uint64(1); seed <= 3; seed++ {
		eng := core.New(dom, core.Config{Epsilon: 0.02, Delta: 0.05, Seed: seed})
		r := fastrand.New(seed * 13)
		ex := core.NewExtractor(dom) // reused across all queries below
		for i := 0; i < 30000; i++ {
			eng.Update(gen(r))
		}
		es := eng.Snapshot()
		inst := snapshotInstances(es)
		n := float64(es.Weight)

		for _, theta := range thetas {
			label := fmt.Sprintf("seed=%d θ=%g", seed, theta)
			want := extractMapRef(dom, inst, n, float64(es.V), corrOf(es), theta)
			equalResults(t, label+" live", eng.Output(theta), want)
			equalResults(t, label+" snapshot", ex.ExtractSnapshot(es, theta), want)
			equalResults(t, label+" one-shot", es.Output(dom, theta), want)
		}

		// Grow the stream a little and re-query the same extractor: its N
		// moved by under the growth bound, so this exercises the seeded
		// incremental path against a fresh full extraction.
		for i := 0; i < 3000; i++ {
			eng.Update(gen(r))
		}
		es2 := eng.Snapshot()
		inst2 := snapshotInstances(es2)
		n2 := float64(es2.Weight)
		for _, theta := range thetas {
			label := fmt.Sprintf("seed=%d θ=%g incr", seed, theta)
			want := extractMapRef(dom, inst2, n2, float64(es2.V), corrOf(es2), theta)
			equalResults(t, label, ex.ExtractSnapshot(es2, theta), want)

			full := core.NewExtractor(dom)
			full.SetMaxGrowth(-1)
			equalResults(t, label+" full-path", full.ExtractSnapshot(es2, theta), want)
		}
	}
}

// corrOf reproduces the snapshot query's sampling correction term.
func corrOf[K comparable](es *core.EngineSnapshot[K]) float64 {
	return core.SamplingCorrection(float64(es.Weight), es.V, es.R, es.Delta)
}

// TestExtractorMergedSnapshots runs the differential test over merged
// snapshots — the sharded/distributed query shape — including a repeated
// merge into the same destination (the unchanged-input skip), a merge after
// one source advanced, and truncated merges.
func TestExtractorMergedSnapshots(t *testing.T) {
	dom := hierarchy.NewIPv4TwoDim(hierarchy.Bytes)
	engs := make([]*core.Engine[uint64], 3)
	rngs := make([]*fastrand.Source, 3)
	for i := range engs {
		engs[i] = core.New(dom, core.Config{Epsilon: 0.02, Delta: 0.05, Seed: uint64(i + 1)})
		rngs[i] = fastrand.New(uint64(i+1) * 101)
		for j := 0; j < 20000; j++ {
			engs[i].Update(gen2D(rngs[i]))
		}
	}
	snaps := make([]*core.EngineSnapshot[uint64], 3)
	bufs := make([]core.EngineSnapshot[uint64], 3)
	for i, e := range engs {
		snaps[i] = e.SnapshotInto(&bufs[i])
	}
	var sm core.SnapshotMerger[uint64]
	var merged core.EngineSnapshot[uint64]
	ex := core.NewExtractor[uint64](dom)

	check := func(label string) {
		t.Helper()
		sm.Merge(&merged, snaps...)
		inst := snapshotInstances(&merged)
		n := float64(merged.Weight)
		for _, theta := range []float64{0.01, 0.05, 0.2} {
			want := extractMapRef(dom, inst, n, float64(merged.V), corrOf(&merged), theta)
			equalResults(t, fmt.Sprintf("%s θ=%g", label, theta), ex.ExtractSnapshot(&merged, theta), want)
		}
	}
	check("merged")
	check("merged unchanged") // repeat: merge skip + extraction shortcut
	for j := 0; j < 2000; j++ {
		engs[1].Update(gen2D(rngs[1]))
	}
	engs[1].SnapshotInto(&bufs[1])
	check("merged grown") // one input advanced: incremental path over a merge

	// Truncated merges: the union of W small engines (ε = 0.04) outgrows
	// each node's capacity, so a merged node keeps only its top keys and
	// its Min is the bound of the first one dropped. The reference must
	// answer the keys it reads outside the merged node with that Min.
	for _, w := range []int{2, 4} {
		_, in := unionEngines(dom, "ss", w, 1, gen2D)
		var tsm core.SnapshotMerger[uint64]
		m := tsm.Merge(nil, in...)
		inst := snapshotInstances(m)
		for _, theta := range nStarThetas(in) {
			want := extractMapRef(dom, inst, float64(m.Weight), float64(m.V), corrOf(m), theta)
			equalResults(t, fmt.Sprintf("truncated W=%d θ=%.4g", w, theta), ex.ExtractSnapshot(m, theta), want)
		}
	}
}

// TestExtractorUnchangedSnapshotShortcut pins the warm shortcut: re-querying
// an unchanged snapshot at the same θ returns the identical retained slice,
// and a mutation (new capture) breaks the shortcut.
func TestExtractorUnchangedSnapshotShortcut(t *testing.T) {
	dom := hierarchy.NewIPv4TwoDim(hierarchy.Bytes)
	eng := core.New(dom, core.Config{Epsilon: 0.02, Delta: 0.05, Seed: 7})
	r := fastrand.New(99)
	for i := 0; i < 30000; i++ {
		eng.Update(gen2D(r))
	}
	var buf core.EngineSnapshot[uint64]
	es := eng.SnapshotInto(&buf)
	ex := core.NewExtractor[uint64](dom)

	first := ex.ExtractSnapshot(es, 0.05)
	again := ex.ExtractSnapshot(es, 0.05)
	if len(first) == 0 || &first[0] != &again[0] || len(first) != len(again) {
		t.Fatal("unchanged snapshot did not short-circuit to the retained result")
	}
	// An unchanged engine re-captured into the same buffer keeps the
	// generation, so the shortcut still holds.
	es = eng.SnapshotInto(&buf)
	again = ex.ExtractSnapshot(es, 0.05)
	if &first[0] != &again[0] {
		t.Fatal("no-op recapture invalidated the shortcut")
	}
	// New traffic invalidates it and changes the answer's backing state.
	for i := 0; i < 5000; i++ {
		eng.Update(gen2D(r))
	}
	es = eng.SnapshotInto(&buf)
	fresh := core.NewExtractor[uint64](dom).ExtractSnapshot(es, 0.05)
	got := ex.ExtractSnapshot(es, 0.05)
	equalResults(t, "after growth", got, fresh)
}

// TestExtractorWarmZeroAlloc asserts the acceptance criterion at the core
// layer: a warm Extractor performs zero allocations per snapshot query, with
// the snapshot re-captured (changed generation) every iteration so the full
// extraction — not just the unchanged shortcut — is measured.
func TestExtractorWarmZeroAlloc(t *testing.T) {
	dom := hierarchy.NewIPv4TwoDim(hierarchy.Bytes)
	eng := core.New(dom, core.Config{Epsilon: 0.01, Delta: 0.01, Seed: 3})
	r := fastrand.New(17)
	for i := 0; i < 200000; i++ {
		eng.Update(gen2D(r))
	}
	ex := core.NewExtractor[uint64](dom)
	var buf core.EngineSnapshot[uint64]
	key := hierarchy.Pack2D(ip4(10, 1, 1, 1), ip4(20, 2, 2, 2))
	warm := func() {
		eng.Update(key)
		es := eng.SnapshotInto(&buf)
		if out := ex.ExtractSnapshot(es, 0.05); len(out) == 0 {
			t.Fatal("no heavy hitters in the warm query")
		}
	}
	for i := 0; i < 16; i++ {
		warm()
	}
	if allocs := testing.AllocsPerRun(100, warm); allocs != 0 {
		t.Fatalf("warm snapshot query allocates %v times per run, want 0", allocs)
	}
}
