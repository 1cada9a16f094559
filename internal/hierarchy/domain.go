package hierarchy

import "fmt"

// Node is one lattice node: a prefix pattern given by how many leading bits
// are kept in each dimension. In one-dimensional domains DstBits is always 0
// and ignored.
type Node struct {
	// SrcBits and DstBits are the kept prefix lengths, in bits.
	SrcBits, DstBits int
	// Level is the generalization distance from the fully specified node,
	// in hierarchy steps (Definition 7 numbers levels from fully specified,
	// level 0, to fully general, level L).
	Level int
}

// Domain describes a hierarchical prefix lattice over key type K. A Domain is
// immutable after construction and safe for concurrent use.
//
// K is the concrete masked-key representation: uint32 for 1D IPv4, uint64 for
// 2D IPv4 (source in the high 32 bits), Addr for 1D 128-bit, AddrPair for 2D
// 128-bit. All lattice logic is shared; only masking, merging and formatting
// differ per carrier.
type Domain[K comparable] struct {
	name     string
	dims     int
	width    int // bits per dimension
	step     int // bits per hierarchy step (8=bytes, 4=nibbles, 1=bits)
	nodes    []Node
	byLevel  [][]int // node indices grouped by Level, ascending
	fullNode int
	rootNode int

	// grid is the dense lattice index: grid[row*cols+col] is 1 + the node
	// keeping row·step source bits and col·step destination bits, 0 where
	// no node exists (cols is 1 in one dimension). nodeRow and nodeCol are
	// each node's coordinates, so GLB reads its node with no division.
	grid             []int32
	cols             int
	nodeRow, nodeCol []int32

	mask   func(k K, srcBits, dstBits int) K
	merge  func(src, dst K) K // take source dim of 1st arg, dest dim of 2nd
	format func(k K, srcBits, dstBits int) string

	// maskTable[i] is node i's projection mask applied to an all-ones key;
	// masking is then a carrier-level AND. fastMask is the devirtualized
	// equivalent of Mask: a single closure over the table with no Node
	// struct load and no inner func-field dispatch. Both are populated by
	// the concrete constructors (nil for carriers without them).
	maskTable []K
	fastMask  func(k K, node int) K
}

// Name returns a human-readable description such as "2D-IPv4-bytes (H=25)".
func (d *Domain[K]) Name() string { return d.name }

// Dims returns 1 or 2.
func (d *Domain[K]) Dims() int { return d.dims }

// Size returns H, the number of lattice nodes.
func (d *Domain[K]) Size() int { return len(d.nodes) }

// Depth returns L, the maximum level (the level of the fully general node).
func (d *Domain[K]) Depth() int { return len(d.byLevel) - 1 }

// Node returns the pattern of node i.
func (d *Domain[K]) Node(i int) Node { return d.nodes[i] }

// NodesByLevel returns node indices grouped by level, from fully specified
// (level 0) to fully general (level L). The caller must not modify the
// returned slices.
func (d *Domain[K]) NodesByLevel() [][]int { return d.byLevel }

// FullNode returns the index of the fully specified node.
func (d *Domain[K]) FullNode() int { return d.fullNode }

// RootNode returns the index of the fully general node (*, or (*,*)).
func (d *Domain[K]) RootNode() int { return d.rootNode }

// NodeByBits returns the node index for the given kept-bits pattern.
func (d *Domain[K]) NodeByBits(srcBits, dstBits int) (int, bool) {
	if srcBits < 0 || dstBits < 0 || srcBits%d.step != 0 || dstBits%d.step != 0 {
		return 0, false
	}
	row, col := srcBits/d.step, dstBits/d.step
	if row >= len(d.grid)/d.cols || col >= d.cols {
		return 0, false
	}
	v := d.grid[row*d.cols+col]
	return int(v) - 1, v != 0
}

// Mask projects a fully specified key onto node i's pattern.
func (d *Domain[K]) Mask(k K, i int) K {
	n := d.nodes[i]
	return d.mask(k, n.SrcBits, n.DstBits)
}

// MaskTable returns the per-node projection masks for carriers where
// masking is a plain bitwise AND of the key with table[node] — the uint32
// and uint64 IPv4 carriers. Callers holding the concrete key type can then
// mask inline (`k & table[node]`) with no function call at all. ok is false
// for carriers without an integer AND (Addr, AddrPair); use Mask or Masker
// there. The caller must not modify the returned slice.
func (d *Domain[K]) MaskTable() (table []K, ok bool) {
	switch any(d.maskTable).(type) {
	case []uint32, []uint64:
		return d.maskTable, d.maskTable != nil
	default:
		return nil, false
	}
}

// Masker returns a devirtualized masking function equivalent to Mask: one
// closure call over a precomputed per-node mask table, with no Node struct
// load and no func-field dispatch. Every built-in carrier gets a fast
// closure; an unknown carrier falls back to the generic Mask path.
func (d *Domain[K]) Masker() func(k K, node int) K {
	if d.fastMask != nil {
		return d.fastMask
	}
	return d.Mask
}

// NodeGeneralizes reports whether node a's pattern generalizes node b's:
// a keeps at most as many bits as b in every dimension (Definition 1 lifted
// to patterns). A node generalizes itself.
func (d *Domain[K]) NodeGeneralizes(a, b int) bool {
	na, nb := d.nodes[a], d.nodes[b]
	return na.SrcBits <= nb.SrcBits && na.DstBits <= nb.DstBits
}

// Generalizes reports whether prefix (aKey at node a) generalizes prefix
// (bKey at node b): the pattern generalizes and the kept bits agree
// (Definition 1). A prefix generalizes itself.
func (d *Domain[K]) Generalizes(aKey K, a int, bKey K, b int) bool {
	if !d.NodeGeneralizes(a, b) {
		return false
	}
	na := d.nodes[a]
	return d.mask(bKey, na.SrcBits, na.DstBits) == aKey
}

// ProperlyGeneralizes reports a ≺ b on prefixes: generalizes and not equal.
func (d *Domain[K]) ProperlyGeneralizes(aKey K, a int, bKey K, b int) bool {
	if a == b && aKey == bKey {
		return false
	}
	return d.Generalizes(aKey, a, bKey, b)
}

// GLB returns the greatest lower bound of two prefixes (Definition 12): their
// unique most-general common descendant. ok is false when the prefixes have
// no common descendant (the paper then treats glb as an item with count 0).
func (d *Domain[K]) GLB(aKey K, a int, bKey K, b int) (K, int, bool) {
	na, nb := d.nodes[a], d.nodes[b]
	v := d.grid[max(d.nodeRow[a], d.nodeRow[b])*int32(d.cols)+max(d.nodeCol[a], d.nodeCol[b])]
	if v == 0 {
		var zero K
		return zero, 0, false
	}
	node := int(v) - 1
	// Candidate key: source dimension from the deeper-source prefix,
	// destination dimension from the deeper-destination prefix.
	srcDonor := aKey
	if nb.SrcBits > na.SrcBits {
		srcDonor = bKey
	}
	dstDonor := aKey
	if nb.DstBits > na.DstBits {
		dstDonor = bKey
	}
	cand := d.merge(srcDonor, dstDonor)
	// The glb exists only if the candidate is consistent with both inputs
	// (i.e. the prefixes agree on their overlapping bits).
	if d.mask(cand, na.SrcBits, na.DstBits) != aKey ||
		d.mask(cand, nb.SrcBits, nb.DstBits) != bKey {
		var zero K
		return zero, 0, false
	}
	return cand, node, true
}

// Parents returns the immediate parents of node i: one hierarchy step more
// general in exactly one dimension. The fully general node has no parents.
func (d *Domain[K]) Parents(i int) []int {
	n := d.nodes[i]
	var out []int
	if n.SrcBits > 0 {
		if p, ok := d.NodeByBits(n.SrcBits-d.step, n.DstBits); ok {
			out = append(out, p)
		}
	}
	if d.dims == 2 && n.DstBits > 0 {
		if p, ok := d.NodeByBits(n.SrcBits, n.DstBits-d.step); ok {
			out = append(out, p)
		}
	}
	return out
}

// Children returns the immediate children of node i: one hierarchy step more
// specific in exactly one dimension.
func (d *Domain[K]) Children(i int) []int {
	n := d.nodes[i]
	var out []int
	if n.SrcBits < d.width {
		if c, ok := d.NodeByBits(n.SrcBits+d.step, n.DstBits); ok {
			out = append(out, c)
		}
	}
	if d.dims == 2 && n.DstBits < d.width {
		if c, ok := d.NodeByBits(n.SrcBits, n.DstBits+d.step); ok {
			out = append(out, c)
		}
	}
	return out
}

// Format renders a prefix at node i, e.g. "181.7.*" or "(181.7.* -> 10.0.0.1)".
func (d *Domain[K]) Format(k K, i int) string {
	n := d.nodes[i]
	return d.format(k, n.SrcBits, n.DstBits)
}

// buildNodes enumerates lattice nodes for the given shape and fills d's node
// tables and dense index. Nodes are ordered by level ascending (fully
// specified first) and, within a level, by source bits descending; the order
// is fixed but otherwise arbitrary — RHHH's update only needs a uniform draw
// over node indices.
func (d *Domain[K]) buildNodes(dims, width, step int) {
	if width%step != 0 {
		panic(fmt.Sprintf("hierarchy: width %d not divisible by step %d", width, step))
	}
	perDim := width/step + 1
	maxLevel := (perDim - 1) * dims
	d.cols = 1
	if dims == 2 {
		d.cols = perDim
	}
	d.grid = make([]int32, perDim*d.cols)
	d.byLevel = make([][]int, maxLevel+1)
	for lvl := 0; lvl <= maxLevel; lvl++ {
		for sSteps := perDim - 1; sSteps >= 0; sSteps-- {
			srcGen := (perDim - 1) - sSteps // generalization steps in src
			dGen := lvl - srcGen
			if dGen < 0 || dGen > (perDim-1)*(dims-1) {
				continue
			}
			dSteps := 0
			if dims == 2 {
				dSteps = perDim - 1 - dGen
			}
			i := len(d.nodes)
			d.nodes = append(d.nodes, Node{SrcBits: sSteps * step, DstBits: dSteps * step, Level: lvl})
			d.nodeRow = append(d.nodeRow, int32(sSteps))
			d.nodeCol = append(d.nodeCol, int32(dSteps))
			d.grid[sSteps*d.cols+dSteps] = int32(i) + 1
			d.byLevel[lvl] = append(d.byLevel[lvl], i)
		}
	}
	d.fullNode, _ = d.NodeByBits(width, width*(dims-1))
	d.rootNode, _ = d.NodeByBits(0, 0)
}
