// Package mst implements the deterministic baseline of Mitzenmacher, Steinke
// and Thaler, "Hierarchical Heavy Hitters with the Space Saving Algorithm"
// (ALENEX 2012) — reference [35] of the paper and the algorithm RHHH
// randomizes. It keeps one Space Saving instance per lattice node and updates
// every node for every packet: O(H) per update, O(H/ε) space, deterministic
// accuracy and coverage.
//
// The package also provides SampledMST, the strawman discussed in the
// paper's introduction: sample each packet with probability H/V and feed the
// sampled packets to MST. It matches RHHH's convergence in expectation but
// only bounds the *amortized* update cost — a sampled packet still pays the
// full O(H) — which is exactly the behaviour the ablation benchmarks show.
package mst

import (
	"math"

	"rhhh/internal/core"
	"rhhh/internal/fastrand"
	"rhhh/internal/hierarchy"
	"rhhh/internal/spacesaving"
	"rhhh/internal/stats"
)

// Algorithm is a deterministic MST instance. Not safe for concurrent use.
type Algorithm[K comparable] struct {
	dom    *hierarchy.Domain[K]
	sums   []*spacesaving.Summary[K]
	inst   []core.Instance[K] // read view of sums for Extract
	weight uint64
}

// New builds an MST instance with ⌈1/ε⌉ Space Saving counters per lattice
// node, giving the deterministic (ε, θ)-approximate HHH guarantee of [35].
func New[K comparable](dom *hierarchy.Domain[K], epsilon float64) *Algorithm[K] {
	if !(epsilon > 0 && epsilon < 1) {
		panic("mst: epsilon must be in (0, 1)")
	}
	return newWithCounters(dom, int(math.Ceil(1/epsilon)))
}

// newWithCounters builds an MST instance with the given number of Space
// Saving counters per lattice node.
func newWithCounters[K comparable](dom *hierarchy.Domain[K], counters int) *Algorithm[K] {
	sums := make([]*spacesaving.Summary[K], dom.Size())
	for i := range sums {
		sums[i] = spacesaving.New[K](counters)
	}
	return &Algorithm[K]{dom: dom, sums: sums, inst: core.WrapSummaries(sums)}
}

// Domain returns the lattice domain.
func (a *Algorithm[K]) Domain() *hierarchy.Domain[K] { return a.dom }

// N returns the total stream weight processed.
func (a *Algorithm[K]) N() uint64 { return a.weight }

// Update feeds one packet to every lattice node: O(H).
func (a *Algorithm[K]) Update(k K) {
	a.weight++
	for node, s := range a.sums {
		s.Increment(a.dom.Mask(k, node))
	}
}

// UpdateWeighted feeds one packet of weight w to every lattice node: the
// O(H·log(1/ε))-flavoured weighted path the paper attributes to [35].
func (a *Algorithm[K]) UpdateWeighted(k K, w uint64) {
	a.weight += w
	for node, s := range a.sums {
		s.IncrementBy(a.dom.Mask(k, node), w)
	}
}

// Output returns the HHH set for threshold θ using the shared conditioned-
// frequency machinery with no sampling correction.
func (a *Algorithm[K]) Output(theta float64) []core.Result[K] {
	if !(theta > 0 && theta <= 1) {
		panic("mst: theta must be in (0, 1]")
	}
	return core.Extract(a.dom, a.inst, float64(a.weight), 1, 0, theta)
}

// Reset clears all state.
func (a *Algorithm[K]) Reset() {
	for _, s := range a.sums {
		s.Reset()
	}
	a.weight = 0
}

// SampledMST samples packets with probability H/V and feeds survivors to a
// full MST update. Amortized cost O(H²/V) per packet, but worst case O(H) —
// the contrast with RHHH's O(1) worst case motivates the paper's design
// (§1: a long in-path update can delay the victim packet and overflow
// buffers).
type SampledMST[K comparable] struct {
	inner   *Algorithm[K]
	rng     *fastrand.Source
	v, h    uint64
	packets uint64
	z       float64
}

// NewSampled builds a SampledMST with sampling probability H/V. delta sets
// the Z value used in the output correction, mirroring the RHHH engine.
func NewSampled[K comparable](dom *hierarchy.Domain[K], epsilon, delta float64, v int, seed uint64) *SampledMST[K] {
	h := dom.Size()
	if v == 0 {
		v = h
	}
	if v < h {
		panic("mst: V must be at least H")
	}
	return &SampledMST[K]{
		inner: newWithCounters(dom, int(math.Ceil((1+epsilon)/epsilon))),
		rng:   fastrand.New(seed),
		v:     uint64(v),
		h:     uint64(h),
		z:     stats.Z(delta),
	}
}

// N returns the number of packets offered (sampled or not).
func (s *SampledMST[K]) N() uint64 { return s.packets }

// Update samples the packet with probability H/V; survivors update all H
// lattice nodes.
func (s *SampledMST[K]) Update(k K) {
	s.packets++
	if s.rng.Uint64n(s.v) < s.h {
		s.inner.Update(k)
	}
}

// Output scales counts by V/H (each sampled packet stands for V/H packets)
// and applies the sampling correction 2·Z(1−δ)·√(N·V/H).
func (s *SampledMST[K]) Output(theta float64) []core.Result[K] {
	if !(theta > 0 && theta <= 1) {
		panic("mst: theta must be in (0, 1]")
	}
	n := float64(s.packets)
	if n == 0 {
		return nil
	}
	scale := float64(s.v) / float64(s.h)
	corr := 2 * s.z * math.Sqrt(n*scale)
	return core.Extract(s.inner.dom, s.inner.inst, n, scale, corr, theta)
}
