package spacesaving

import (
	"math/rand/v2"
	"slices"
	"testing"
)

// refMerger is the comparator-sort Merger the radix kernel replaced: a Go
// map index, a per-Add pass charging the snapshot's Min to every
// accumulated key it does not monitor, and slices.SortFunc with an index
// tie-break. Kept test-only as the exact-order reference (like
// mergeMapSort before it).
type refMerger[K comparable] struct {
	keys    []K
	upper   []uint64
	lower   []uint64
	touched []int32
	idx     map[K]int32
	minSum  uint64
	n       uint64
	round   int32
}

func (m *refMerger[K]) reset() {
	m.keys, m.upper, m.lower, m.touched = m.keys[:0], m.upper[:0], m.lower[:0], m.touched[:0]
	m.idx = make(map[K]int32)
	m.minSum, m.n, m.round = 0, 0, 0
}

func (m *refMerger[K]) add(sn *Snapshot[K]) {
	m.n += sn.N
	round := m.round
	m.round++
	for i, k := range sn.Keys {
		j, ok := m.idx[k]
		if !ok {
			j = int32(len(m.keys))
			m.idx[k] = j
			m.keys = append(m.keys, k)
			m.upper = append(m.upper, m.minSum)
			m.lower = append(m.lower, 0)
			m.touched = append(m.touched, round)
		}
		m.upper[j] += sn.Upper[i]
		m.lower[j] += sn.Lower[i]
		m.touched[j] = round
	}
	for j := range m.keys {
		if m.touched[j] != round {
			m.upper[j] += sn.Min
		}
	}
	m.minSum += sn.Min
}

func (m *refMerger[K]) mergeInto(dst *Snapshot[K], capacity int) {
	dst.reset()
	perm := make([]int32, len(m.keys))
	for i := range perm {
		perm[i] = int32(i)
	}
	slices.SortFunc(perm, func(a, b int32) int {
		if m.upper[a] != m.upper[b] {
			if m.upper[a] > m.upper[b] {
				return -1
			}
			return 1
		}
		return int(a - b)
	})
	dropMax := uint64(0)
	if len(perm) > capacity {
		dropMax = m.upper[perm[capacity]]
		perm = perm[:capacity]
	}
	for _, j := range perm {
		dst.Keys = append(dst.Keys, m.keys[j])
		dst.Upper = append(dst.Upper, m.upper[j])
		dst.Lower = append(dst.Lower, m.lower[j])
	}
	dst.N = m.n
	dst.Min = max(m.minSum, dropMax)
	dst.Cap = capacity
}

// pairKey is a struct carrier: hashFuncFor gives it the maphash fallback.
type pairKey struct{ hi, lo uint64 }

// TestMergerExactOrder: the radix kernel reproduces the comparator-sort
// reference element by element — same keys in the same order, same bounds,
// N, Min and Cap — on every carrier hash path. The inputs stress what an
// order change would need: heavy ties (few distinct bounds), capacities on
// both sides of the union size, bounds spread beyond 2³² so the high radix
// digits run, and nonzero Min, including CHK-style snapshots whose Min
// exceeds some monitored upper bounds.
func TestMergerExactOrder(t *testing.T) {
	t.Run("uint64", func(t *testing.T) {
		checkMergerExactOrder(t, 1, func(v uint64) uint64 { return v * 0x9e3779b97f4a7c15 })
	})
	t.Run("uint32", func(t *testing.T) {
		checkMergerExactOrder(t, 2, func(v uint64) uint32 { return uint32(v) * 2654435761 })
	})
	t.Run("struct", func(t *testing.T) {
		checkMergerExactOrder(t, 3, func(v uint64) pairKey { return pairKey{v >> 3, v & 7} })
	})
}

func checkMergerExactOrder[K comparable](t *testing.T, seed uint64, key func(uint64) K) {
	r := rand.New(rand.NewPCG(seed, 0))
	var m Merger[K]
	var ref refMerger[K]
	var got, want Snapshot[K]
	for trial := 0; trial < 400; trial++ {
		universe := 1 + r.IntN(300)
		inputs := make([]*Snapshot[K], 1+r.IntN(5))
		union := map[K]bool{}
		for i := range inputs {
			inputs[i] = randMergeInput(r, universe, key)
			for _, k := range inputs[i].Keys {
				union[k] = true
			}
		}
		m.Reset()
		ref.reset()
		for _, sn := range inputs {
			m.Add(sn)
			ref.add(sn)
		}
		capacity := 1 + r.IntN(2*len(union)+1)
		m.MergeInto(&got, capacity)
		ref.mergeInto(&want, capacity)
		if got.N != want.N || got.Min != want.Min || got.Cap != want.Cap || got.Len() != want.Len() {
			t.Fatalf("trial %d: N/Min/Cap/Len %d/%d/%d/%d, reference %d/%d/%d/%d", trial,
				got.N, got.Min, got.Cap, got.Len(), want.N, want.Min, want.Cap, want.Len())
		}
		for i := range want.Keys {
			if got.Keys[i] != want.Keys[i] || got.Upper[i] != want.Upper[i] || got.Lower[i] != want.Lower[i] {
				t.Fatalf("trial %d entry %d: (%v,%d,%d), reference (%v,%d,%d)", trial, i,
					got.Keys[i], got.Upper[i], got.Lower[i], want.Keys[i], want.Upper[i], want.Lower[i])
			}
		}
	}
}

// randMergeInput builds a well-formed snapshot over keys drawn from
// [0, universe): distinct keys, non-ascending upper bounds taken from a few
// levels (ties), lower ≤ upper, and a nonzero Min that usually sits at or
// below the smallest monitored bound and sometimes above it.
func randMergeInput[K comparable](r *rand.Rand, universe int, key func(uint64) K) *Snapshot[K] {
	sn := &Snapshot[K]{}
	size := r.IntN(min(universe, 100) + 1)
	base := uint64(r.IntN(64))
	if r.IntN(2) == 0 {
		base += 1<<32 + r.Uint64N(1<<36)
	}
	step := uint64(1) << r.IntN(37)
	levels := 1 + r.IntN(6)
	ups := make([]uint64, size)
	for i := range ups {
		ups[i] = base + step*uint64(r.IntN(levels))
	}
	slices.Sort(ups)
	slices.Reverse(ups)
	for i, v := range r.Perm(universe)[:size] {
		sn.Keys = append(sn.Keys, key(uint64(v)))
		sn.Upper = append(sn.Upper, ups[i])
		sn.Lower = append(sn.Lower, ups[i]-r.Uint64N(min(ups[i], 1<<34)+1))
	}
	sn.Min = 1 + base/2 + r.Uint64N(base/2+1)
	if r.IntN(4) == 0 {
		sn.Min += step * uint64(levels)
	}
	sn.N = sn.Min + r.Uint64N(1<<40)
	sn.Cap = size + r.IntN(8)
	return sn
}

// TestMergerWarmZeroAlloc pins the steady-state merge at zero allocations:
// once the index and sort buffers have grown, Reset/Add/MergeInto reuse
// them.
func TestMergerWarmZeroAlloc(t *testing.T) {
	x, y := buildMergeBenchPair()
	sx, sy := x.Snapshot(), y.Snapshot()
	var m Merger[uint64]
	var dst Snapshot[uint64]
	merge := func() {
		m.Reset()
		m.Add(sx)
		m.Add(sy)
		m.MergeInto(&dst, 1024)
	}
	merge()
	if allocs := testing.AllocsPerRun(20, merge); allocs != 0 {
		t.Fatalf("warm merge allocated %.1f objects per run, want 0", allocs)
	}
}
