package core_test

import (
	"fmt"
	"math"
	"slices"
	"testing"

	"rhhh/internal/core"
	"rhhh/internal/fastrand"
	"rhhh/internal/hierarchy"
	"rhhh/internal/spacesaving"
)

// bitsEqual requires bit-identical results: same keys and nodes in the same
// order, and the same float bits of Upper, Lower and Cond.
func bitsEqual[K comparable](t *testing.T, label string, got, want []core.Result[K]) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d results, merged reference has %d", label, len(got), len(want))
	}
	for i := range got {
		g, w := got[i], want[i]
		if g.Key != w.Key || g.Node != w.Node ||
			math.Float64bits(g.Upper) != math.Float64bits(w.Upper) ||
			math.Float64bits(g.Lower) != math.Float64bits(w.Lower) ||
			math.Float64bits(g.Cond) != math.Float64bits(w.Cond) {
			t.Fatalf("%s: result %d differs:\n  got  %+v\n  want %+v", label, i, g, w)
		}
	}
}

// unionChecker compares Extractor.ExtractSnapshots and SuggestTheta over W
// inputs against ExtractSnapshot and SuggestTheta over their
// SnapshotMerger.Merge, through one reused Extractor and a fresh one, and
// sums the reused extractors' node read paths.
type unionChecker[K comparable] struct {
	dom    *hierarchy.Domain[K]
	ex     *core.Extractor[K]
	fresh  [4]uint64
	mapRef bool // also pin the merged reference to the map-based extractor
}

func (c *unionChecker[K]) check(t *testing.T, label string, snaps []*core.EngineSnapshot[K], thetas []float64) {
	t.Helper()
	var sm core.SnapshotMerger[K]
	merged := sm.Merge(nil, snaps...)
	for _, theta := range thetas {
		l := fmt.Sprintf("%s θ=%.17g", label, theta)
		want := core.NewExtractor(c.dom).ExtractSnapshot(merged, theta)
		if c.mapRef {
			bitsEqual(t, l+" map reference", want, extractMapRef(c.dom, snapshotInstances(merged), float64(merged.Weight), float64(merged.V)/float64(merged.R), corrOf(merged), theta))
		}
		bitsEqual(t, l+" reused", c.ex.ExtractSnapshots(snaps, theta), want)
		bitsEqual(t, l+" unchanged", c.ex.ExtractSnapshots(snaps, theta), want)
		fresh := core.NewExtractor(c.dom)
		bitsEqual(t, l+" fresh", fresh.ExtractSnapshots(snaps, theta), want)
		h, m, cp, r := fresh.UnionPaths()
		c.fresh = [4]uint64{c.fresh[0] + h, c.fresh[1] + m, c.fresh[2] + cp, c.fresh[3] + r}
	}
	for _, k := range []int{1, 3, 40} {
		want := merged.SuggestTheta(c.dom, k)
		if got := c.ex.SuggestTheta(snaps, k); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("%s SuggestTheta(%d) = %v, merged reference %v", label, k, got, want)
		}
		// Extraction right after reads the full node through the same merge.
		bitsEqual(t, fmt.Sprintf("%s auto-θ k=%d", label, k), c.ex.ExtractSnapshots(snaps, want),
			core.NewExtractor(c.dom).ExtractSnapshot(merged, want))
	}
}

// paths sums the node read paths of the reused and the fresh extractors.
func (c *unionChecker[K]) paths() [4]uint64 {
	h, m, cp, r := c.ex.UnionPaths()
	return [4]uint64{c.fresh[0] + h, c.fresh[1] + m, c.fresh[2] + cp, c.fresh[3] + r}
}

// nStarThetas returns θ values placing the union's N below N* (where the
// correction alone clears θN), near it, at 2·N* and far past it. N* scales
// as 1/θ², so N = f·N* at θ = √f·θ*, with θ* = correction/N.
func nStarThetas[K comparable](snaps []*core.EngineSnapshot[K]) []float64 {
	var n uint64
	for _, s := range snaps {
		n += s.Weight
	}
	first := snaps[0]
	star := core.SamplingCorrection(float64(n), first.V, first.R, first.Delta) / float64(n)
	var out []float64
	for _, f := range []float64{0.7, 1.02, math.Sqrt2, 4} {
		out = append(out, min(f*star, 1))
	}
	return out
}

// TestExtractSnapshotsMatchesSnapshotMerger is the exactness differential of the
// union read: over seeds, θ on both sides of N*, W ∈ {1, 2, 3, 4}, three
// lattices and four kinds of inputs — Space Saving engines, CHK engines
// (whose Upper can sit below their Min), a collector-shaped set (an empty
// local input with a different capacity ahead of the senders) and
// hand-assembled snapshots with narrow bound ranges, where merged ties,
// evenly split keys at the per-input cut, truncation and heads over capacity
// are common — answers are bit-identical to extraction over the merged
// snapshot. On the Space Saving inputs that merged answer is also pinned to
// the map-based reference extractor, so a change to Algorithm 3's shared
// code cannot pass by changing both sides. It also requires that the
// head-only path and each of the three full-merge fallbacks ran.
func TestExtractSnapshotsMatchesSnapshotMerger(t *testing.T) {
	var total [4]uint64
	add := func(p [4]uint64) {
		for i := range p {
			total[i] += p[i]
		}
	}
	all := []int{1, 2, 3, 4}
	t.Run("1D-Bytes", func(t *testing.T) {
		add(unionDomain(t, "1D-Bytes", hierarchy.NewIPv4OneDim(hierarchy.Bytes), func(r *fastrand.Source) uint32 {
			return uint32(gen2D(r) >> 32)
		}, 3, all))
	})
	t.Run("2D-Bytes", func(t *testing.T) {
		add(unionDomain(t, "2D-Bytes", hierarchy.NewIPv4TwoDim(hierarchy.Bytes), gen2D, 2, all))
	})
	// H = 81: below N* every monitored key is admitted and Algorithm 3's
	// pair loops dominate, so the largest lattice runs a smaller matrix.
	t.Run("2D-Nibbles", func(t *testing.T) {
		add(unionDomain(t, "2D-Nibbles", hierarchy.NewIPv4TwoDim(hierarchy.Nibbles), gen2D, 1, []int{2, 3}))
	})
	t.Logf("node reads: head %d, merged for input Min %d, head over capacity %d, read past head %d",
		total[0], total[1], total[2], total[3])
	for i, name := range []string{"head-only", "input-Min", "head-over-capacity", "read-past-head"} {
		if total[i] == 0 {
			t.Errorf("the %s path never ran", name)
		}
	}
}

func unionDomain[K comparable](t *testing.T, name string, dom *hierarchy.Domain[K], gen func(*fastrand.Source) K, seeds uint64, ws []int) [4]uint64 {
	var sum [4]uint64
	add := func(c *unionChecker[K]) {
		for i, p := range c.paths() {
			sum[i] += p
		}
	}
	for _, kind := range []string{"ss", "chk", "collector"} {
		c := &unionChecker[K]{dom: dom, ex: core.NewExtractor(dom), mapRef: kind == "ss"}
		for seed := uint64(1); seed <= seeds; seed++ {
			for _, w := range ws {
				engs, snaps := unionEngines(dom, kind, w, seed, gen)
				label := fmt.Sprintf("%s/%s seed=%d W=%d", name, kind, seed, w)
				c.check(t, label, snaps, nStarThetas(snaps))
				// Grow one sender a little: its untouched nodes keep their
				// generations, so cached merged nodes are partly reused.
				r := fastrand.New(seed*7919 + uint64(w))
				last := engs[len(engs)-1]
				for range 500 {
					last.Update(gen(r))
				}
				snaps[len(snaps)-1] = last.Snapshot()
				c.check(t, label+" grown", snaps, nStarThetas(snaps))
			}
		}
		add(c)
	}
	c := &unionChecker[K]{dom: dom, ex: core.NewExtractor(dom)}
	for seed := uint64(1); seed <= seeds*seeds; seed++ {
		for _, w := range ws {
			if w == 1 {
				continue
			}
			snaps := synthUnion(dom, w, seed, gen)
			label := fmt.Sprintf("%s/synthetic seed=%d W=%d", name, seed, w)
			c.check(t, label, snaps, synthThetas(dom, snaps))
		}
	}
	add(c)
	return sum
}

// unionEngines builds W engines over disjoint sub-streams and snapshots them.
// "collector" puts an engine that saw no traffic, with a larger capacity,
// first — the collector's sample-fed local state in front of its replicas.
func unionEngines[K comparable](dom *hierarchy.Domain[K], kind string, w int, seed uint64, gen func(*fastrand.Source) K) ([]*core.Engine[K], []*core.EngineSnapshot[K]) {
	cfg := core.Config{Epsilon: 0.04, Delta: 0.05}
	if kind != "ss" {
		cfg.Backend = core.CHKBackend
	}
	var engs []*core.Engine[K]
	var snaps []*core.EngineSnapshot[K]
	senders := w
	if kind == "collector" {
		local := core.New(dom, core.Config{Epsilon: 0.03, Delta: 0.05, Seed: seed})
		engs = append(engs, local)
		snaps = append(snaps, local.Snapshot())
		senders = max(w-1, 1)
	}
	for i := range senders {
		cfg.Seed = seed*31 + uint64(i)
		e := core.New(dom, cfg)
		r := fastrand.New(seed*1000 + uint64(i))
		for range 4000 + 2000*i {
			e.Update(gen(r))
		}
		engs = append(engs, e)
		snaps = append(snaps, e.Snapshot())
	}
	return engs, snaps
}

// synthUnion hand-assembles W snapshots whose bounds come from a narrow
// range over a small key universe per node, so merged ties, keys split
// evenly across inputs at the per-input cut, unions beyond the capacity and
// heads over capacity all occur. Odd inputs follow Space Saving's rule
// (Upper ≥ Min); even ones may put Upper below Min, as CHK can.
func synthUnion[K comparable](dom *hierarchy.Domain[K], w int, seed uint64, gen func(*fastrand.Source) K) []*core.EngineSnapshot[K] {
	r := fastrand.New(seed * 104729)
	h := dom.Size()
	universe := make([][]K, h)
	for node := range universe {
		seen := map[K]bool{}
		for range 40 {
			k := dom.Mask(gen(r), node)
			if !seen[k] {
				seen[k] = true
				universe[node] = append(universe[node], k)
			}
		}
	}
	snaps := make([]*core.EngineSnapshot[K], w)
	for i := range snaps {
		es := &core.EngineSnapshot[K]{
			Nodes: make([]spacesaving.Snapshot[K], h),
			V:     h, R: 1, Epsilon: 0.05, Delta: 0.05,
			Weight: 200000, Packets: 200000,
		}
		for node := range es.Nodes {
			sn := &es.Nodes[node]
			sn.Cap = 8 + int(r.Uint64()%16)
			sn.Min = r.Uint64() % 6
			sn.N = 1000
			keys := slices.Clone(universe[node])
			if i%3 == 2 && len(keys) > 4 {
				keys = keys[len(keys)/2:] // a partly disjoint input
			}
			for j := len(keys) - 1; j > 0; j-- {
				x := int(r.Uint64() % uint64(j+1))
				keys[j], keys[x] = keys[x], keys[j]
			}
			m := min(len(keys), sn.Cap-int(r.Uint64()%4))
			var ups []uint64
			for range m {
				up := sn.Min + r.Uint64()%12
				if i%2 == 1 && r.Uint64()%4 == 0 && sn.Min > 0 {
					up = r.Uint64() % sn.Min // CHK-like: below Min
				}
				ups = append(ups, up)
			}
			slices.SortFunc(ups, func(a, b uint64) int { return -cmpU64(a, b) })
			for j := range m {
				sn.Keys = append(sn.Keys, keys[j])
				sn.Upper = append(sn.Upper, ups[j])
				sn.Lower = append(sn.Lower, ups[j]-r.Uint64()%(ups[j]+1))
			}
			sn.Stamp()
		}
		es.Invalidate()
		snaps[i] = es
	}
	return snaps
}

func cmpU64(a, b uint64) int {
	switch {
	case a < b:
		return -1
	case a > b:
		return 1
	}
	return 0
}

// synthThetas returns θ values whose cut lands exactly on, and one count
// either side of, merged bounds at the fully specified node, plus one below
// N* (every key qualifies).
func synthThetas[K comparable](dom *hierarchy.Domain[K], snaps []*core.EngineSnapshot[K]) []float64 {
	var sm core.SnapshotMerger[K]
	merged := sm.Merge(nil, snaps...)
	n := float64(merged.Weight)
	scale := float64(merged.V) / float64(merged.R)
	corr := core.SamplingCorrection(n, merged.V, merged.R, merged.Delta)
	out := []float64{corr / n / 2}
	ups := slices.Compact(slices.Clone(merged.Nodes[dom.FullNode()].Upper))
	for j, up := range ups {
		if j%3 != 0 {
			continue
		}
		for _, c := range []uint64{up, up + 1} {
			theta := (float64(c)*scale + corr) / n
			out = append(out, theta, math.Nextafter(theta, 0), math.Nextafter(theta, 2))
		}
	}
	return out
}

// TestUnionPoolLetsIdleBuffersGo: a query below N* merges every node, and
// the buffers it filled are let go once later queries, which merge few
// nodes, have left them unread for a while — the extractor does not keep a
// full merged snapshot for good.
func TestUnionPoolLetsIdleBuffersGo(t *testing.T) {
	dom := hierarchy.NewIPv4TwoDim(hierarchy.Bytes)
	engs, snaps := unionEngines(dom, "ss", 2, 3, gen2D)
	ex := core.NewExtractor(dom)
	low := nStarThetas(snaps)[0]
	ex.ExtractSnapshots(snaps, low)
	if got := ex.MergedBuffers(); got != dom.Size() {
		t.Fatalf("below N* the extractor holds %d merged nodes, want all %d", got, dom.Size())
	}
	r := fastrand.New(5)
	for range 80 {
		for _, e := range engs {
			for range 200 {
				e.Update(gen2D(r))
			}
		}
		for i, e := range engs {
			snaps[i] = e.Snapshot()
		}
		high := nStarThetas(snaps)[3]
		var sm core.SnapshotMerger[uint64]
		bitsEqual(t, "after the burst", ex.ExtractSnapshots(snaps, high),
			core.NewExtractor(dom).ExtractSnapshot(sm.Merge(nil, snaps...), high))
	}
	if got := ex.MergedBuffers(); got >= dom.Size() {
		t.Fatalf("80 queries later the extractor still holds %d merged nodes", got)
	}
}
