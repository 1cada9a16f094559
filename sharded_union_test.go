package rhhh_test

import (
	"fmt"
	"math"
	"math/rand/v2"
	"testing"
	"time"

	"rhhh"
	"rhhh/internal/core"
	"rhhh/internal/hierarchy"
)

// hhBitsEqual requires two heavy-hitter lists to be identical element by
// element, comparing the float bits of the bounds and estimate.
func hhBitsEqual(t *testing.T, label string, got, want []rhhh.HeavyHitter) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d heavy hitters, merged snapshot %d", label, len(got), len(want))
	}
	for i := range got {
		g, w := got[i], want[i]
		if g.Src != w.Src || g.Dst != w.Dst || g.Text != w.Text || g.Level != w.Level ||
			math.Float64bits(g.Upper) != math.Float64bits(w.Upper) ||
			math.Float64bits(g.Lower) != math.Float64bits(w.Lower) ||
			math.Float64bits(g.Cond) != math.Float64bits(w.Cond) {
			t.Fatalf("%s: heavy hitter %d differs:\n  got  %+v\n  want %+v", label, i, g, w)
		}
	}
}

// TestShardedQueryMatchesMergedSnapshot is the root-level exactness
// differential of the union read: Sharded.HeavyHitters, which reads the
// pinned publications without merging them, against the HeavyHitters of
// Sharded.Snapshot, which merges them in full with SnapshotMerger and
// extracts from the one merged snapshot — over 1 to 4 workers, seeds, 1D and
// 2D bytes and 2D nibbles, and θ on both sides of N* (the stream length below
// which the sampling correction alone clears θN). The aggregator's extractor
// is reused across every query of a monitor, so its cached merged nodes and
// unchanged-input shortcut are exercised. A watch tick reads the same pinned
// set for a fixed-θ and an AutoThetaK subscription: the auto threshold must
// equal the merged snapshot's SuggestTheta bit for bit, and both replayed
// sets the merged snapshot's answers.
func TestShardedQueryMatchesMergedSnapshot(t *testing.T) {
	shapes := []struct {
		name string
		dims int
		gran rhhh.Granularity
		h    int
	}{
		{"1D-Bytes", 1, rhhh.Byte, hierarchy.NewIPv4OneDim(hierarchy.Bytes).Size()},
		{"2D-Bytes", 2, rhhh.Byte, hierarchy.NewIPv4TwoDim(hierarchy.Bytes).Size()},
		{"2D-Nibbles", 2, rhhh.Nibble, hierarchy.NewIPv4TwoDim(hierarchy.Nibbles).Size()},
	}
	for _, sh := range shapes {
		for workers := 1; workers <= 4; workers++ {
			for seed := uint64(1); seed <= 2; seed++ {
				label := fmt.Sprintf("%s W=%d seed=%d", sh.name, workers, seed)
				shardedUnionCase(t, label, sh.dims, sh.gran, sh.h, workers, seed)
			}
		}
	}
}

func shardedUnionCase(t *testing.T, label string, dims int, gran rhhh.Granularity, h, workers int, seed uint64) {
	t.Helper()
	const delta = 0.05
	s, err := rhhh.NewSharded(rhhh.Config{Dims: dims, Granularity: gran, Epsilon: 0.04, Delta: delta, Seed: seed}, workers)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	var fixed, auto replaySet = replaySet{}, replaySet{}
	var autoTheta float64
	var autoTicked bool
	const fixedTheta, autoK = 0.1, 4
	if _, err := s.Watch(rhhh.WatchOptions{Theta: fixedTheta, Interval: time.Hour,
		OnDelta: func(d rhhh.Delta) { fixed.apply(t, d) }}); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Watch(rhhh.WatchOptions{AutoThetaK: autoK, Interval: time.Hour,
		OnDelta: func(d rhhh.Delta) { auto.apply(t, d); autoTheta, autoTicked = d.Theta, true }}); err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewPCG(seed, uint64(workers)))
	for round := range 4 {
		for n := 3000 + rng.IntN(3000); n > 0; n-- {
			s.Worker(n%workers).Update(watchAddr(rng), watchAddr(rng))
		}
		s.Sync()
		snap := s.Snapshot()
		n := float64(s.N())
		star := core.SamplingCorrection(n, h, 1, delta) / n
		for _, f := range []float64{0.7, 1.02, math.Sqrt2, 4} {
			theta := min(f*star, 1)
			l := fmt.Sprintf("%s round=%d θ=%g", label, round, theta)
			hhBitsEqual(t, l, s.HeavyHitters(theta), snap.HeavyHitters(theta))
			hhBitsEqual(t, l+" repeat", s.HeavyHitters(theta), snap.HeavyHitters(theta))
		}
		autoTicked = false
		s.TickWatch()
		fixed.mustEqualFull(t, snap.HeavyHitters(fixedTheta), label+" watch θ")
		want := snap.SuggestTheta(autoK)
		if !autoTicked {
			t.Fatalf("%s round=%d: the AutoThetaK subscription got no delta", label, round)
		}
		if math.Float64bits(autoTheta) != math.Float64bits(want) {
			t.Fatalf("%s round=%d: watch AutoThetaK θ = %v, merged SuggestTheta %v", label, round, autoTheta, want)
		}
		auto.mustEqualFull(t, snap.HeavyHitters(want), label+" watch auto-θ")
	}
}
