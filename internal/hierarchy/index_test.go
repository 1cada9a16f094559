package hierarchy

import (
	"fmt"
	"math/rand/v2"
	"testing"
)

// mapIndex is the Go-map lattice index the dense grid replaced, rebuilt from
// the node table: the reference NodeByBits, GLB, Parents and Children below
// are the retired definitions over it.
type mapIndex[K comparable] struct {
	d   *Domain[K]
	idx map[[2]int]int
}

func newMapIndex[K comparable](d *Domain[K]) *mapIndex[K] {
	m := &mapIndex[K]{d: d, idx: map[[2]int]int{}}
	for i, n := range d.nodes {
		m.idx[[2]int{n.SrcBits, n.DstBits}] = i
	}
	return m
}

func (m *mapIndex[K]) nodeByBits(srcBits, dstBits int) (int, bool) {
	i, ok := m.idx[[2]int{srcBits, dstBits}]
	return i, ok
}

func (m *mapIndex[K]) glb(aKey K, a int, bKey K, b int) (K, int, bool) {
	d := m.d
	na, nb := d.nodes[a], d.nodes[b]
	node, ok := m.idx[[2]int{max(na.SrcBits, nb.SrcBits), max(na.DstBits, nb.DstBits)}]
	var zero K
	if !ok {
		return zero, 0, false
	}
	srcDonor, dstDonor := aKey, aKey
	if nb.SrcBits > na.SrcBits {
		srcDonor = bKey
	}
	if nb.DstBits > na.DstBits {
		dstDonor = bKey
	}
	cand := d.merge(srcDonor, dstDonor)
	if d.mask(cand, na.SrcBits, na.DstBits) != aKey || d.mask(cand, nb.SrcBits, nb.DstBits) != bKey {
		return zero, 0, false
	}
	return cand, node, true
}

func (m *mapIndex[K]) parents(i int) []int {
	d, n := m.d, m.d.nodes[i]
	var out []int
	if n.SrcBits > 0 {
		if p, ok := m.nodeByBits(n.SrcBits-d.step, n.DstBits); ok {
			out = append(out, p)
		}
	}
	if d.dims == 2 && n.DstBits > 0 {
		if p, ok := m.nodeByBits(n.SrcBits, n.DstBits-d.step); ok {
			out = append(out, p)
		}
	}
	return out
}

func (m *mapIndex[K]) children(i int) []int {
	d, n := m.d, m.d.nodes[i]
	var out []int
	if n.SrcBits < d.width {
		if c, ok := m.nodeByBits(n.SrcBits+d.step, n.DstBits); ok {
			out = append(out, c)
		}
	}
	if d.dims == 2 && n.DstBits < d.width {
		if c, ok := m.nodeByBits(n.SrcBits, n.DstBits+d.step); ok {
			out = append(out, c)
		}
	}
	return out
}

// TestLatticeIndexMatchesMap pins the dense lattice index against the map
// definitions on every built-in domain: NodeByBits on every (srcBits,
// dstBits) in and just around the valid range (invalid ones included),
// Parents and Children on every node, and GLB on every node pair where
// H ≤ 1,089 (sampled pairs beyond), each with keys drawn to agree on their
// overlap and with independent keys, whose prefixes mostly disagree and
// must report no glb.
func TestLatticeIndexMatchesMap(t *testing.T) {
	r := rand.New(rand.NewPCG(1, 2))
	u32 := func() uint32 { return r.Uint32() }
	u64 := func() uint64 { return r.Uint64() }
	addr := func() Addr { return Addr{Hi: r.Uint64(), Lo: r.Uint64()} }
	pair := func() AddrPair { return AddrPair{Src: addr(), Dst: addr()} }
	for _, g := range []Granularity{Bits, Nibbles, Bytes} {
		checkLatticeIndex(t, NewIPv4OneDim(g), r, u32)
		checkLatticeIndex(t, NewIPv4TwoDim(g), r, u64)
		checkLatticeIndex(t, NewIPv6OneDim(g), r, addr)
		checkLatticeIndex(t, NewIPv6TwoDim(g), r, pair)
	}
}

func checkLatticeIndex[K comparable](t *testing.T, d *Domain[K], r *rand.Rand, gen func() K) {
	t.Run(d.Name(), func(t *testing.T) {
		ref := newMapIndex(d)
		for s := -d.step - 1; s <= d.width+d.step+1; s++ {
			for b := -d.step - 1; b <= d.width+d.step+1; b++ {
				gi, gok := d.NodeByBits(s, b)
				wi, wok := ref.nodeByBits(s, b)
				if gok != wok || (gok && gi != wi) {
					t.Fatalf("NodeByBits(%d, %d) = %d, %v; map %d, %v", s, b, gi, gok, wi, wok)
				}
			}
		}
		for i := range d.Size() {
			if g, w := fmt.Sprint(d.Parents(i)), fmt.Sprint(ref.parents(i)); g != w {
				t.Fatalf("Parents(%d) = %s, map %s", i, g, w)
			}
			if g, w := fmt.Sprint(d.Children(i)), fmt.Sprint(ref.children(i)); g != w {
				t.Fatalf("Children(%d) = %s, map %s", i, g, w)
			}
		}
		h := d.Size()
		var found, missing int
		check := func(a, b int) {
			base := gen()
			keys := [][2]K{
				{d.Mask(base, a), d.Mask(base, b)}, // agree on the overlap
				{d.Mask(gen(), a), d.Mask(gen(), b)},
			}
			for _, k := range keys {
				gk, gn, gok := d.GLB(k[0], a, k[1], b)
				wk, wn, wok := ref.glb(k[0], a, k[1], b)
				if gok != wok || gk != wk || gn != wn {
					t.Fatalf("GLB(node %d, node %d) = %v, %d, %v; map %v, %d, %v", a, b, gk, gn, gok, wk, wn, wok)
				}
				if gok {
					found++
				} else {
					missing++
				}
			}
		}
		if h <= 1089 {
			for a := range h {
				for b := range h {
					check(a, b)
				}
			}
		} else {
			for range 200000 {
				check(r.IntN(h), r.IntN(h))
			}
		}
		if found == 0 || missing == 0 {
			t.Fatalf("GLB checks saw %d existing and %d missing glbs; want both", found, missing)
		}
	})
}
