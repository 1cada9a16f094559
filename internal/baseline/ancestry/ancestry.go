// Package ancestry reconstructs the Full Ancestry and Partial Ancestry
// baselines of Cormode, Korn, Muthukrishnan and Srivastava, "Finding
// Hierarchical Heavy Hitters in Streaming Data" (ACM TKDD 2008) — reference
// [14] of the paper. The paper under reproduction uses them only as
// comparison baselines and does not restate their pseudocode, so this is a
// faithful-in-spirit reconstruction:
//
//   - a lattice trie of materialized prefixes, each carrying a count g since
//     insertion and an error bound Δ (Lossy Counting style);
//   - every ⌈1/ε⌉ updates a compression pass deletes trie leaves with
//     g+Δ ≤ b (b = current bucket number), rolling their counts into a
//     parent — so space stays O(H/ε) and estimates stay within εN;
//   - Full Ancestry materializes every ancestor of an inserted item and uses
//     the per-node m value (the largest g+Δ ever rolled into the node) to
//     give tight Δs to new descendants; Partial Ancestry inserts lazily with
//     the generic Δ = b−1 bound and keeps the trie smaller.
//
// Update cost is O(1) map work on a hit, O(H) on a miss (ancestor scan and,
// for Full, materialization), plus amortized O(size·ε) compression — which
// reproduces the characteristic the paper measures: these algorithms get
// faster as ε shrinks (compression runs less often), unlike MST.
package ancestry

import (
	"math"

	"rhhh/internal/core"
	"rhhh/internal/hierarchy"
)

// Variant selects the ancestry strategy.
type Variant int

// Full materializes all ancestors at insert; Partial inserts lazily.
const (
	Full Variant = iota
	Partial
)

func (v Variant) String() string {
	if v == Full {
		return "full-ancestry"
	}
	return "partial-ancestry"
}

// entry is one materialized trie node.
type entry struct {
	g     uint64 // count accumulated since insertion (plus rolled-up children)
	delta uint64 // upper bound on occurrences missed before insertion
	m     uint64 // largest g+Δ rolled into this node (Full Ancestry bookkeeping)
}

// Algorithm is a Full/Partial Ancestry instance. Not safe for concurrent use.
type Algorithm[K comparable] struct {
	dom     *hierarchy.Domain[K]
	variant Variant
	nodes   []map[K]*entry // per lattice node: prefix key → state
	n       uint64         // stream weight
	w       uint64         // bucket width = ⌈1/ε⌉
	pending uint64         // updates since last compression
}

// New builds an instance with bucket width ⌈1/ε⌉.
func New[K comparable](dom *hierarchy.Domain[K], epsilon float64, variant Variant) *Algorithm[K] {
	if !(epsilon > 0 && epsilon < 1) {
		panic("ancestry: epsilon must be in (0, 1)")
	}
	a := &Algorithm[K]{
		dom:     dom,
		variant: variant,
		nodes:   make([]map[K]*entry, dom.Size()),
		w:       uint64(math.Ceil(1 / epsilon)),
	}
	for i := range a.nodes {
		a.nodes[i] = make(map[K]*entry)
	}
	// The fully general node is always materialized; rolled counts
	// terminate there and it is never deleted.
	var zero K
	a.nodes[dom.RootNode()][dom.Mask(zero, dom.RootNode())] = &entry{}
	return a
}

// Domain returns the lattice domain.
func (a *Algorithm[K]) Domain() *hierarchy.Domain[K] { return a.dom }

// N returns the total stream weight processed.
func (a *Algorithm[K]) N() uint64 { return a.n }

// Size returns the number of materialized trie nodes (for space accounting).
func (a *Algorithm[K]) Size() int {
	s := 0
	for _, m := range a.nodes {
		s += len(m)
	}
	return s
}

// bucket returns the current bucket number b = ⌈n/w⌉ (1-based).
func (a *Algorithm[K]) bucket() uint64 {
	if a.n == 0 {
		return 1
	}
	return (a.n-1)/a.w + 1
}

// Update processes one packet.
func (a *Algorithm[K]) Update(k K) { a.UpdateWeighted(k, 1) }

// UpdateWeighted processes one packet of weight w.
func (a *Algorithm[K]) UpdateWeighted(k K, w uint64) {
	if w == 0 {
		return
	}
	a.n += w
	full := a.dom.FullNode()
	key := a.dom.Mask(k, full) // identity for fully specified input
	if e, ok := a.nodes[full][key]; ok {
		e.g += w
	} else {
		a.insert(key, w)
	}
	a.pending += w
	if a.pending >= a.w {
		a.pending = 0
		a.compress()
	}
}

// insert materializes the fully specified item, with ancestry handling per
// the variant.
func (a *Algorithm[K]) insert(key K, w uint64) {
	full := a.dom.FullNode()
	b := a.bucket()
	switch a.variant {
	case Partial:
		a.nodes[full][key] = &entry{g: w, delta: b - 1}
	case Full:
		// Scan ancestors from most to least specific for the deepest
		// materialized one; its m value bounds what this item may have
		// missed (tighter than the generic b−1 when descendants of this
		// region were compressed away recently).
		delta := b - 1
		byLevel := a.dom.NodesByLevel()
		found := false
		for lvl := 1; lvl < len(byLevel) && !found; lvl++ {
			for _, node := range byLevel[lvl] {
				if !a.dom.NodeGeneralizes(node, full) {
					continue
				}
				if anc, ok := a.nodes[node][a.dom.Mask(key, node)]; ok {
					if anc.m < delta {
						delta = anc.m
					}
					found = true
					break
				}
			}
		}
		a.nodes[full][key] = &entry{g: w, delta: delta}
		// Materialize every missing ancestor so future descendants find a
		// close m and compression can roll bottom-up one step at a time.
		for lvl := 1; lvl < len(byLevel); lvl++ {
			for _, node := range byLevel[lvl] {
				if !a.dom.NodeGeneralizes(node, full) {
					continue
				}
				mk := a.dom.Mask(key, node)
				if _, ok := a.nodes[node][mk]; !ok {
					a.nodes[node][mk] = &entry{}
				}
			}
		}
	}
}

// compress runs one Lossy Counting pass: sweep lattice levels from most
// specific to most general, delete entries with g+Δ ≤ b that have no
// materialized children, and roll their counts into a parent (the first
// materialized immediate parent, materializing one if necessary — the
// "split" roll-up, which keeps Σg equal to the stream weight so lower
// bounds stay sound in two dimensions).
func (a *Algorithm[K]) compress() {
	b := a.bucket()
	root := a.dom.RootNode()
	// hasChild marks (node, key) pairs that still have a materialized
	// strictly-more-specific immediate child after this sweep's deletions.
	hasChild := make([]map[K]bool, a.dom.Size())
	for i := range hasChild {
		hasChild[i] = make(map[K]bool)
	}
	markParents := func(node int, key K) {
		for _, p := range a.dom.Parents(node) {
			hasChild[p][a.dom.Mask(key, p)] = true
		}
	}
	for _, level := range a.dom.NodesByLevel() {
		for _, node := range level {
			if node == root {
				continue
			}
			for key, e := range a.nodes[node] {
				if e.g+e.delta <= b && !hasChild[node][key] {
					delete(a.nodes[node], key)
					a.rollUp(node, key, e)
				} else {
					markParents(node, key)
				}
			}
		}
	}
}

// rollUp moves a deleted entry's count into its first immediate parent,
// materializing the parent if needed, and records the child's g+Δ in the
// parent's m (the Full Ancestry error bookkeeping; harmless for Partial).
func (a *Algorithm[K]) rollUp(node int, key K, e *entry) {
	parents := a.dom.Parents(node)
	if len(parents) == 0 {
		return // root is never deleted, so this cannot happen
	}
	p := parents[0]
	pk := a.dom.Mask(key, p)
	pe, ok := a.nodes[p][pk]
	if !ok {
		pe = &entry{}
		a.nodes[p][pk] = pe
	}
	pe.g += e.g
	if v := e.g + e.delta; v > pe.m {
		pe.m = v
	}
}

// trieInstance exposes the post-aggregation view of one lattice node to the
// shared Output machinery: counts are sums of materialized-descendant g
// values projected onto the node's pattern, with the Lossy Counting εN ≈ b
// slack as the upper-bound error.
type trieInstance[K comparable] struct {
	acc   map[K]uint64
	slack uint64
}

func (t trieInstance[K]) Bounds(k K) (uint64, uint64) {
	if g, ok := t.acc[k]; ok {
		return g + t.slack, g
	}
	return t.slack, 0
}
func (t trieInstance[K]) Candidates(fn func(K, uint64, uint64)) {
	for k, g := range t.acc {
		fn(k, g+t.slack, g)
	}
}

// Output returns the HHH set for threshold θ: project every materialized
// count onto every generalizing lattice node (O(size·H)), then run the
// shared conditioned-frequency extraction with upper bounds g+b.
func (a *Algorithm[K]) Output(theta float64) []core.Result[K] {
	if !(theta > 0 && theta <= 1) {
		panic("ancestry: theta must be in (0, 1]")
	}
	if a.n == 0 {
		return nil
	}
	b := a.bucket()
	insts := make([]core.Instance[K], a.dom.Size())
	accs := make([]map[K]uint64, a.dom.Size())
	for v := range accs {
		accs[v] = make(map[K]uint64)
	}
	for u := range a.nodes {
		for key, e := range a.nodes[u] {
			if e.g == 0 {
				continue
			}
			for v := range accs {
				if a.dom.NodeGeneralizes(v, u) {
					accs[v][a.dom.Mask(key, v)] += e.g
				}
			}
		}
	}
	for v := range insts {
		insts[v] = trieInstance[K]{acc: accs[v], slack: b}
	}
	return core.Extract(a.dom, insts, float64(a.n), 1, 0, theta)
}

// Reset clears all state.
func (a *Algorithm[K]) Reset() {
	for i := range a.nodes {
		a.nodes[i] = make(map[K]*entry)
	}
	var zero K
	a.nodes[a.dom.RootNode()][a.dom.Mask(zero, a.dom.RootNode())] = &entry{}
	a.n = 0
	a.pending = 0
}
