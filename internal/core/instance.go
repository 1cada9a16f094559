// Package core implements Randomized Hierarchical Heavy Hitters (RHHH),
// the paper's contribution: Algorithm 1 (constant-time Update and the
// Output procedure), the calcPred conditioned-frequency estimators for one
// and two dimensions (Algorithms 2 and 3), the 2·Z(1−δ)·√(N·V) sampling
// correction, the r-independent-updates extension (Corollary 6.8), and the
// convergence bound ψ = Z(1−δs/2)·V·εs⁻² (Theorem 6.17).
//
// The engine is generic over the lattice key type K and keeps one heavy
// hitters algorithm per lattice node, exactly as the paper structures it
// ("we use a matrix of H independent HH algorithms"). The deterministic MST
// baseline reuses this package's Extract output machinery with no sampling.
package core

import (
	"rhhh/internal/chk"
	"rhhh/internal/fastrand"
	"rhhh/internal/spacesaving"
)

// Instance is the read view the Output procedure takes of one lattice
// node's heavy hitters algorithm: bounds on any key's count (the paper's
// Definition 4, (ε,δ)-Frequency Estimation) and the monitored candidates
// (Definition 5). Updates go to the concrete structures; the engine's Space
// Saving and CHK counters, the collector's summaries and the baselines'
// per-node state are read through it.
type Instance[K comparable] interface {
	// Bounds returns upper and lower bounds on the number of updates of k,
	// in raw update units (the engine applies the V/r scaling).
	Bounds(k K) (upper, lower uint64)
	// Candidates visits every monitored key with its bounds.
	Candidates(fn func(k K, upper, lower uint64))
}

// ssInstance adapts spacesaving.Summary to Instance.
type ssInstance[K comparable] struct{ s *spacesaving.Summary[K] }

func (a ssInstance[K]) Bounds(k K) (uint64, uint64) { return a.s.Bounds(k) }
func (a ssInstance[K]) Candidates(fn func(K, uint64, uint64)) {
	a.s.ForEach(func(k K, count, err uint64) { fn(k, count, count-err) })
}

// chkInstance adapts chk.Sketch to Instance. CHK keeps point estimates, so
// both bounds are the slot count (err = 0); accuracy is probabilistic
// rather than Definition-4 guaranteed (see internal/chk).
type chkInstance[K comparable] struct{ c *chk.Sketch[K] }

func (a chkInstance[K]) Bounds(k K) (uint64, uint64) { return a.c.Bounds(k) }
func (a chkInstance[K]) Candidates(fn func(K, uint64, uint64)) {
	a.c.ForEach(func(k K, count uint64) { fn(k, count, count) })
}

// WrapSummaries adapts Space Saving summaries to Instances — for the
// components (the engine, the distributed collector, the MST baseline) that
// update the summaries directly and query them through Extract.
func WrapSummaries[K comparable](sums []*spacesaving.Summary[K]) []Instance[K] {
	out := make([]Instance[K], len(sums))
	for i, s := range sums {
		out[i] = ssInstance[K]{s}
	}
	return out
}

// chkNodeSeed derives node i's sketch seed from the engine seed: a seeded
// splitmix walk, so New and Reseed agree and distinct nodes get independent
// decay streams.
func chkNodeSeed(seed uint64, i int) uint64 {
	src := fastrand.New(seed ^ 0x6368_6b5f_6e6f_6465) // "chk_node"
	var s uint64
	for j := 0; j <= i; j++ {
		s = src.Uint64()
	}
	return s
}
