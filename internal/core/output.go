package core

import (
	"hash/maphash"
	"math"
	"math/rand/v2"

	"rhhh/internal/hierarchy"
	"rhhh/internal/spacesaving"
	"rhhh/internal/stats"
)

// Result is one HHH prefix produced by the Output procedure, with its
// frequency bounds (Algorithm 1 line 16 prints (p, f̂p−, f̂p+)) and the
// conservative conditioned-frequency estimate that admitted it.
type Result[K comparable] struct {
	// Key is the masked prefix value; Node the lattice node it lives at.
	Key  K
	Node int
	// Upper and Lower bound the prefix frequency: f̂p+ and f̂p−, already
	// scaled to stream units (counts × V/r for RHHH, raw counts for MST).
	Upper, Lower float64
	// Cond is the Ĉp|P estimate (including the sampling correction) that
	// was compared against θN.
	Cond float64
}

// Extractor is a reusable workspace for the paper's Output procedure
// (Algorithm 1 lines 8–21 with the calcPred estimators of Algorithms 2–3).
// It replaces the per-query map bookkeeping the procedure naturally wants —
// admitted prefixes indexed by their generalization at every ancestor node,
// plus per-node membership for the maximality filter — with flat slabs tied
// together by one open-addressing (node, key) index and index-linked
// per-entry lists, the same slab idiom the Space Saving summary uses. All
// scratch (result buffer, entry and list slabs, gSet buffers, GLB domination
// stamps, snapshot bounds indices, per-node heads and lazily merged nodes)
// is retained across calls, so a warm query allocates nothing.
//
// An Extractor is bound to one lattice domain and is not safe for concurrent
// use. Its Extract methods return a slice owned by the Extractor: treat it
// as read-only, valid until the next call on the same Extractor — copy it to
// retain results across queries.
type Extractor[K comparable] struct {
	dom  *hierarchy.Domain[K]
	dims int
	h    int
	mask func(K, int) K
	hash func(K, int32) uint32

	// Static lattice tables: for each node, the other nodes whose pattern
	// generalizes it (genUp, used to fan a new result into its ancestors'
	// byGen lists) and the same set including the node itself (genUpSelf,
	// used by the GLB domination scan).
	genUp     [][]int32
	genUpSelf [][]int32

	// The admitted set P of the in-flight (or, between calls, the previous)
	// query. resEntry[i] is the slab entry of results[i]'s own (node, key).
	results  []Result[K]
	resEntry []int32

	// Entry slab: one entry per (node, key) touched this query — admitted
	// prefixes (flagInP) and their generalizations at ancestor nodes (with
	// the index-linked list of admitted descendants that gSet consumes).
	// The slab is indexed by tab (open addressing, entry+1, 0 = empty) and
	// chained per node through eNext for the tail scan.
	eKey   []K
	eNode  []int32
	eHash  []uint32
	eFlags []uint8
	eHead  []int32 // admitted-descendant list head (element slab index)
	eTail  []int32 // list tail, so lists preserve admission order
	eCount []int32
	eGMark []uint32 // stamp: member of the G set of the current calcPred
	eGWho  []int32  // result index owning the stamp
	eNext  []int32  // next entry at the same node

	tab      []int32
	tabMask  uint32
	nodeHead []int32 // per node: first entry + 1

	// Element slab: the per-entry admitted-descendant lists.
	elRes  []int32
	elNext []int32

	gBuf     []int32 // gSet result scratch
	gRound   uint32
	gNodeMrk []uint32 // per node: gRound when it holds a member of G
	tailBuf  []int32  // tail-scan position scratch

	// Per-call state. in holds the snapshot query's inputs (nil for live
	// instances); one backs ExtractSnapshot's single input.
	scale, corr, threshold float64
	curNode                int32
	inst                   []Instance[K]
	in                     []*EngineSnapshot[K]
	one                    [1]*EngineSnapshot[K]
	visitCb                func(K, uint64, uint64)
	call                   uint64 // snapshot-call counter, keys gen-0 bounds indices

	// Snapshot bounds-index cache: per-node key→position tables over the
	// Keys array a node is read from (the input for one snapshot, the
	// lazily merged node for several), built on first use — only GLB and
	// tail reads need them — and kept while the node's generation holds.
	nodeIdx []boundsIndex[K]

	// The union view of several inputs (see heads.go): per-node heads and
	// the lazily merged nodes.
	union unionView[K]

	// fullScan makes snapshot queries read every node in full (merged, for
	// several inputs) and visit every key: the reference evaluation.
	fullScan bool

	// Unchanged-query shortcut: the input generations and θ of the last
	// snapshot query, so re-asking it returns the retained results.
	lastGens  []uint64
	lastTheta float64
	lastValid bool
}

// extFlagInP marks an entry whose (node, key) is in the admitted set.
const extFlagInP uint8 = 1 << 0

// NewExtractor builds a reusable extraction workspace over dom.
func NewExtractor[K comparable](dom *hierarchy.Domain[K]) *Extractor[K] {
	h := dom.Size()
	ex := &Extractor[K]{
		dom:       dom,
		dims:      dom.Dims(),
		h:         h,
		mask:      dom.Masker(),
		hash:      extHashFor[K](),
		genUp:     make([][]int32, h),
		genUpSelf: make([][]int32, h),
		tab:       make([]int32, 1024),
		tabMask:   1023,
		nodeHead:  make([]int32, h),
		gNodeMrk:  make([]uint32, h),
		nodeIdx:   make([]boundsIndex[K], h),
	}
	for node := 0; node < h; node++ {
		for v := 0; v < h; v++ {
			if !dom.NodeGeneralizes(v, node) {
				continue
			}
			ex.genUpSelf[node] = append(ex.genUpSelf[node], int32(v))
			if v != node {
				ex.genUp[node] = append(ex.genUp[node], int32(v))
			}
		}
	}
	ex.visitCb = ex.visit
	return ex
}

// SetMaxGrowth selects the snapshot scan. A negative value makes every
// changed snapshot query read each node in full — merged, when there are
// several inputs — and visit every monitored key: the reference evaluation
// the differential tests and benchmarks compare against. Any other value,
// the default, selects the pruned scan. The unchanged-snapshot shortcut is
// unaffected, and output is bit-identical either way. (The name is
// historical: the pruned scan used to be bounded by stream growth.)
func (ex *Extractor[K]) SetMaxGrowth(g float64) { ex.fullScan = g < 0 }

// Extract runs the Output procedure over live per-node instances:
//
//	for level ℓ from most specific to most general, for each candidate p at ℓ:
//	    Ĉp|P = f̂p+ + calcPred(p, P) + correction
//	    if Ĉp|P ≥ θ·n: P ← P ∪ {p}
//
// scale converts instance counts to stream units (V/r for RHHH, 1 for MST);
// correction is the sampling slack (2·Z(1−δ)·√(N·V/r) for RHHH, 0 for
// deterministic algorithms); n is the total stream weight.
//
// calcPred subtracts the lower-bound frequencies of p's closest HHH
// descendants G(p|P) (Algorithm 2); in two dimensions it adds back the upper
// bounds of pairwise greatest lower bounds to avoid double counting
// (Algorithm 3).
func (ex *Extractor[K]) Extract(inst []Instance[K], n, scale, correction, theta float64) []Result[K] {
	if len(inst) != ex.dom.Size() {
		panic("core: instance count does not match lattice size")
	}
	ex.inst, ex.in = inst, nil
	ex.lastValid = false // live instances mutate freely; no unchanged shortcut
	out := ex.run(n, scale, correction, theta)
	ex.inst = nil
	return out
}

// ExtractSnapshot answers the HHH query from one engine snapshot, exactly as
// the engine it was taken from would have at capture time (same candidate
// order, same bounds, same V/r scaling and sampling correction). It is
// ExtractSnapshots with a single input.
func (ex *Extractor[K]) ExtractSnapshot(es *EngineSnapshot[K], theta float64) []Result[K] {
	ex.one[0] = es
	out := ex.ExtractSnapshots(ex.one[:], theta)
	ex.one[0] = nil
	return out
}

// ExtractSnapshots answers the HHH query over the union of snapshots taken
// over disjoint sub-streams, bit-identical to ExtractSnapshot over their
// SnapshotMerger.Merge (inputs in the same order) but without building the
// merged snapshot: each node is read from its head — the keys that can
// qualify, with exact merged bounds — and merged in full only when the
// procedure reads past the head (see heads.go). One input is read directly.
// The inputs must share the lattice and V and R, like Merge's; they are
// only read, and only during the call.
//
// Per-node bounds indices and merged nodes are cached inside the Extractor
// across calls, keyed on node generations, and a query whose inputs'
// generations and θ match the previous call returns the retained result.
func (ex *Extractor[K]) ExtractSnapshots(snaps []*EngineSnapshot[K], theta float64) []Result[K] {
	n := ex.bind(snaps)
	defer clear(ex.in)
	if n == 0 {
		return nil
	}
	if ex.unchanged(theta) {
		return ex.resultsOrNil()
	}
	first := snaps[0]
	out := ex.run(float64(n), float64(first.V)/float64(first.R),
		SamplingCorrection(float64(n), first.V, first.R, first.Delta), theta)
	ex.lastGens = ex.lastGens[:0]
	for _, s := range snaps {
		ex.lastGens = append(ex.lastGens, s.gen)
	}
	ex.lastTheta, ex.lastValid = theta, true
	return out
}

// SuggestTheta is EngineSnapshot.SuggestTheta over the union of snaps: the
// fully specified node is read merged, through the same lazy merge a
// following ExtractSnapshots call on the same inputs reuses.
func (ex *Extractor[K]) SuggestTheta(snaps []*EngineSnapshot[K], k int) float64 {
	if k < 1 {
		panic("core: SuggestTheta needs k >= 1")
	}
	n := ex.bind(snaps)
	defer clear(ex.in)
	if len(snaps) == 1 {
		return snaps[0].SuggestTheta(ex.dom, k)
	}
	if n == 0 {
		return 1
	}
	full := ex.dom.FullNode()
	ex.union.begin(ex, false)
	if !ex.union.cached(ex, full) {
		ex.union.merge(ex, full)
	}
	first := snaps[0]
	return suggestTheta(ex.union.merged(full), float64(n), first.V, first.R, first.Delta, k)
}

// NodeMerges returns how many lattice nodes the Extractor has merged in full
// over its lifetime: the fallback reads of ExtractSnapshots and
// SuggestTheta over several inputs.
func (ex *Extractor[K]) NodeMerges() uint64 { return ex.union.merges }

// bind validates and records a snapshot call's inputs and returns their
// total stream weight.
func (ex *Extractor[K]) bind(snaps []*EngineSnapshot[K]) uint64 {
	if len(snaps) == 0 {
		panic("core: snapshot query over zero snapshots")
	}
	first := snaps[0]
	var n uint64
	for _, s := range snaps {
		if len(s.Nodes) != ex.h {
			panic("core: snapshot does not match lattice size")
		}
		if s.V != first.V || s.R != first.R {
			panic("core: snapshot union requires equal V and R")
		}
		n += s.Weight
	}
	ex.inst, ex.in = nil, append(ex.in[:0], snaps...)
	return n
}

// unchanged reports whether the bound inputs and θ repeat the previous
// snapshot query: every input generation known and equal. Generations, not
// pointers, identify content (see SnapshotMerger).
func (ex *Extractor[K]) unchanged(theta float64) bool {
	if !ex.lastValid || theta != ex.lastTheta || len(ex.in) != len(ex.lastGens) {
		return false
	}
	for i, s := range ex.in {
		if s.gen == 0 || s.gen != ex.lastGens[i] {
			return false
		}
	}
	return true
}

// run is the shared admission loop.
func (ex *Extractor[K]) run(n, scale, correction, theta float64) []Result[K] {
	ex.scale, ex.corr, ex.threshold = scale, correction, theta*n
	ex.resetQuery()
	if ex.in != nil {
		ex.call++
		if len(ex.in) > 1 {
			ex.union.begin(ex, true)
		}
	}
	for _, level := range ex.dom.NodesByLevel() {
		for _, node := range level {
			ex.curNode = int32(node)
			switch {
			case ex.in == nil:
				ex.inst[node].Candidates(ex.visitCb)
			case len(ex.in) == 1:
				ex.scanSorted(&ex.in[0].Nodes[node], node)
			default:
				ex.union.scan(ex, node)
			}
		}
	}
	return ex.resultsOrNil()
}

// resetQuery clears the per-query state, keeping all storage.
func (ex *Extractor[K]) resetQuery() {
	clear(ex.tab)
	clear(ex.nodeHead)
	clear(ex.gNodeMrk)
	ex.results = ex.results[:0]
	ex.resEntry = ex.resEntry[:0]
	ex.eKey = ex.eKey[:0]
	ex.eNode = ex.eNode[:0]
	ex.eHash = ex.eHash[:0]
	ex.eFlags = ex.eFlags[:0]
	ex.eHead = ex.eHead[:0]
	ex.eTail = ex.eTail[:0]
	ex.eCount = ex.eCount[:0]
	ex.eGMark = ex.eGMark[:0]
	ex.eGWho = ex.eGWho[:0]
	ex.eNext = ex.eNext[:0]
	ex.elRes = ex.elRes[:0]
	ex.elNext = ex.elNext[:0]
	ex.gRound = 0
}

func (ex *Extractor[K]) resultsOrNil() []Result[K] {
	if len(ex.results) == 0 {
		return nil
	}
	return ex.results
}

// visit evaluates one candidate at the current node (Algorithm 1 lines
// 12–15) and admits it when its conditioned estimate reaches the threshold.
func (ex *Extractor[K]) visit(k K, up, lo uint64) {
	fUp := float64(up) * ex.scale
	fLo := float64(lo) * ex.scale
	cond := fUp + ex.calcPred(k) + ex.corr
	if cond >= ex.threshold {
		ex.admit(k, fUp, fLo, cond)
	}
}

// admit appends the candidate to P and links it into the byGen list of every
// ancestor node, in the ancestors' node order (the list order itself is the
// admission order, which fixes the float summation order downstream).
func (ex *Extractor[K]) admit(k K, fUp, fLo, cond float64) {
	idx := int32(len(ex.results))
	ex.results = append(ex.results, Result[K]{
		Key: k, Node: int(ex.curNode),
		Upper: fUp, Lower: fLo,
		Cond: cond,
	})
	e := ex.entryFor(ex.curNode, k)
	ex.eFlags[e] |= extFlagInP
	ex.resEntry = append(ex.resEntry, e)
	for _, v := range ex.genUp[ex.curNode] {
		ex.pushElem(ex.entryFor(v, ex.mask(k, int(v))), idx)
	}
}

// pushElem appends result idx to entry e's admitted-descendant list.
func (ex *Extractor[K]) pushElem(e, idx int32) {
	el := int32(len(ex.elRes))
	ex.elRes = append(ex.elRes, idx)
	ex.elNext = append(ex.elNext, -1)
	if t := ex.eTail[e]; t >= 0 {
		ex.elNext[t] = el
	} else {
		ex.eHead[e] = el
	}
	ex.eTail[e] = el
	ex.eCount[e]++
}

// calcPred implements Algorithms 2 and 3: the adjustment added to f̂p+ to
// form the conditioned-frequency estimate for the candidate at the current
// node.
func (ex *Extractor[K]) calcPred(pKey K) float64 {
	e := ex.find(ex.curNode, pKey)
	if e < 0 || ex.eCount[e] == 0 {
		return 0
	}
	g := ex.gSet(e)
	r := 0.0
	for _, idx := range g {
		r -= ex.results[idx].Lower
	}
	if ex.dims == 1 || len(g) < 2 {
		return r
	}
	// Two dimensions: add back the pairwise overlaps (inclusion-exclusion),
	// skipping a glb that is itself inside a third element of G(p|P)
	// (Algorithm 3 line 8); missing glbs count as zero (Definition 12).
	//
	// The domination test has two equivalent forms: scan G directly, or look
	// the glb's ancestor positions up in the admitted-set index against the
	// G-membership stamps. The index costs O(ancestors(glb)) ≤ H per pair,
	// so it wins once |G| outgrows the hierarchy — the pre-convergence
	// regime where the old triple loop over G went cubic.
	//
	// The indexed scan skips an ancestor node of the glb that is one of the
	// pair's own nodes (the only element there generalizing the glb is the
	// pair's own, since masking the glb to that node gives its key) or that
	// holds no member of G at all.
	useIdx := len(g) > ex.h
	round := uint32(0)
	if useIdx {
		ex.gRound++
		round = ex.gRound
		for _, idx := range g {
			me := ex.resEntry[idx]
			ex.eGMark[me] = round
			ex.eGWho[me] = idx
			ex.gNodeMrk[ex.results[idx].Node] = round
		}
	}
	for i := 0; i < len(g); i++ {
		hi := ex.results[g[i]]
		for j := i + 1; j < len(g); j++ {
			hj := ex.results[g[j]]
			qKey, qNode, ok := ex.dom.GLB(hi.Key, hi.Node, hj.Key, hj.Node)
			if !ok {
				continue
			}
			dominated := false
			if useIdx {
				for _, w := range ex.genUpSelf[qNode] {
					if int(w) == hi.Node || int(w) == hj.Node || ex.gNodeMrk[w] != round {
						continue
					}
					me := ex.find(w, ex.mask(qKey, int(w)))
					if me >= 0 && ex.eGMark[me] == round {
						if who := ex.eGWho[me]; who != g[i] && who != g[j] {
							dominated = true
							break
						}
					}
				}
			} else {
				for t := 0; t < len(g); t++ {
					if t == i || t == j {
						continue
					}
					h3 := ex.results[g[t]]
					if ex.dom.Generalizes(h3.Key, h3.Node, qKey, qNode) {
						dominated = true
						break
					}
				}
			}
			if dominated {
				continue
			}
			r += float64(ex.upperOf(qKey, qNode)) * ex.scale
		}
	}
	return r
}

// gSet computes G(p|P) (Definition 2) for the candidate at the current node
// whose entry is e: the prefixes in P that p properly generalizes, keeping
// only the maximal ones (no other element of P strictly between them and p).
// Returned as result indices in admission order, in ex.gBuf (valid until the
// next gSet call).
func (ex *Extractor[K]) gSet(e int32) []int32 {
	ex.gBuf = ex.gBuf[:0]
	if ex.eCount[e] == 1 {
		ex.gBuf = append(ex.gBuf, ex.elRes[ex.eHead[e]])
		return ex.gBuf
	}
	// Keep only maximal elements: h is dominated when some strictly closer
	// generalization of h (still strictly below p) is already in P. Each
	// intermediate lattice node — a strict ancestor of h's node that p's
	// node generalizes — is tested with one index probe, keeping this
	// O(|desc|·H) instead of O(|desc|²).
	pNode := int(ex.curNode)
	for el := ex.eHead[e]; el >= 0; el = ex.elNext[el] {
		idx := ex.elRes[el]
		h := &ex.results[idx]
		dominated := false
		for _, v := range ex.genUp[h.Node] {
			w := int(v)
			if w == pNode || !ex.dom.NodeGeneralizes(pNode, w) {
				continue
			}
			if me := ex.find(v, ex.mask(h.Key, w)); me >= 0 && ex.eFlags[me]&extFlagInP != 0 {
				dominated = true
				break
			}
		}
		if !dominated {
			ex.gBuf = append(ex.gBuf, idx)
		}
	}
	return ex.gBuf
}

// upperOf returns the upper frequency bound of an arbitrary prefix, in raw
// instance units (the caller applies the scale).
func (ex *Extractor[K]) upperOf(k K, node int) uint64 {
	switch {
	case ex.in == nil:
		up, _ := ex.inst[node].Bounds(k)
		return up
	case len(ex.in) == 1:
		return ex.boundOf(&ex.in[0].Nodes[node], k, node)
	default:
		return ex.union.upperOf(ex, k, node)
	}
}

// boundOf returns k's upper bound in the snapshot node sn that node is read
// from: the stored bound when monitored, sn.Min otherwise.
func (ex *Extractor[K]) boundOf(sn *spacesaving.Snapshot[K], k K, node int) uint64 {
	if pos := ex.keyPos(sn, k, node); pos >= 0 {
		return sn.Upper[pos]
	}
	return sn.Min
}

// qualifies reports whether an upper bound alone (with the correction, no
// calcPred adjustment) reaches the threshold. It is monotone in up, and a
// candidate it rejects can only be admitted through a positive calcPred,
// which needs two admitted descendants (a glb add-back, Algorithm 3).
func (ex *Extractor[K]) qualifies(up uint64) bool {
	return !(float64(up)*ex.scale+ex.corr < ex.threshold)
}

// scanSorted enumerates one node's candidates from the snapshot node sn it
// is read from, whose keys are stored in non-ascending upper-bound order.
// The prefix whose bounds qualify is visited in order; past it, only keys
// with at least two admitted descendants can be admitted (every other
// candidate's calcPred is ≤ 0), and those are fetched directly from the
// node's entry list — so the pruned scan admits exactly what the full scan
// (every key, in order) admits, with identical estimates.
func (ex *Extractor[K]) scanSorted(sn *spacesaving.Snapshot[K], node int) {
	keys := sn.Keys
	if ex.fullScan {
		for i, k := range keys {
			ex.visit(k, sn.Upper[i], sn.Lower[i])
		}
		return
	}
	i := 0
	for ; i < len(keys) && ex.qualifies(sn.Upper[i]); i++ {
		ex.visit(keys[i], sn.Upper[i], sn.Lower[i])
	}
	if i < len(keys) {
		ex.scanTail(sn, node, int32(i))
	}
}

// scanTail visits, in stored order, the keys of sn at or past position from
// that have at least two admitted descendants.
func (ex *Extractor[K]) scanTail(sn *spacesaving.Snapshot[K], node int, from int32) {
	ex.tailBuf = ex.tailBuf[:0]
	for e := ex.nodeHead[node] - 1; e >= 0; e = ex.eNext[e] {
		if ex.eCount[e] < 2 {
			continue
		}
		if pos := ex.keyPos(sn, ex.eKey[e], node); pos >= from {
			ex.tailBuf = append(ex.tailBuf, pos)
		}
	}
	sortInt32(ex.tailBuf)
	for _, pos := range ex.tailBuf {
		ex.visit(sn.Keys[pos], sn.Upper[pos], sn.Lower[pos])
	}
}

// sortInt32 sorts a short slice ascending in place (tail sets are small).
func sortInt32(a []int32) {
	for i := 1; i < len(a); i++ {
		for j := i; j > 0 && a[j] < a[j-1]; j-- {
			a[j], a[j-1] = a[j-1], a[j]
		}
	}
}

// find returns the entry of (node, k), or −1.
func (ex *Extractor[K]) find(node int32, k K) int32 {
	h := ex.hash(k, node)
	pos := h & ex.tabMask
	for {
		v := ex.tab[pos]
		if v == 0 {
			return -1
		}
		if e := v - 1; ex.eHash[e] == h && ex.eNode[e] == node && ex.eKey[e] == k {
			return e
		}
		pos = (pos + 1) & ex.tabMask
	}
}

// entryFor returns the entry of (node, k), creating it if absent.
func (ex *Extractor[K]) entryFor(node int32, k K) int32 {
	h := ex.hash(k, node)
	pos := h & ex.tabMask
	for {
		v := ex.tab[pos]
		if v == 0 {
			break
		}
		if e := v - 1; ex.eHash[e] == h && ex.eNode[e] == node && ex.eKey[e] == k {
			return e
		}
		pos = (pos + 1) & ex.tabMask
	}
	e := int32(len(ex.eKey))
	ex.eKey = append(ex.eKey, k)
	ex.eNode = append(ex.eNode, node)
	ex.eHash = append(ex.eHash, h)
	ex.eFlags = append(ex.eFlags, 0)
	ex.eHead = append(ex.eHead, -1)
	ex.eTail = append(ex.eTail, -1)
	ex.eCount = append(ex.eCount, 0)
	ex.eGMark = append(ex.eGMark, 0)
	ex.eGWho = append(ex.eGWho, -1)
	ex.eNext = append(ex.eNext, ex.nodeHead[node]-1)
	ex.nodeHead[node] = e + 1
	ex.tab[pos] = e + 1
	if uint32(len(ex.eKey))*4 >= uint32(len(ex.tab))*3 {
		ex.growTable()
	}
	return e
}

// growTable doubles the open-addressing table and reinserts every entry.
func (ex *Extractor[K]) growTable() {
	n := uint32(len(ex.tab)) * 2
	ex.tab = make([]int32, n)
	ex.tabMask = n - 1
	for e := range ex.eHash {
		pos := ex.eHash[e] & ex.tabMask
		for ex.tab[pos] != 0 {
			pos = (pos + 1) & ex.tabMask
		}
		ex.tab[pos] = int32(e) + 1
	}
}

// boundsIndex is one node's key→position table over the Keys array the
// node is read from.
type boundsIndex[K comparable] struct {
	tab  []int32 // position + 1; 0 = empty
	mask uint32
	gen  uint64 // generation of the snapshot node the index was built from
	call uint64 // snapshot call it was built in (a generation of 0 is unknown)
}

// keyPos returns k's position in sn's Keys array (sn is the snapshot node
// node is read from this call), or −1 when unmonitored, (re)building the
// node's index when sn's generation moved or is unknown.
func (ex *Extractor[K]) keyPos(sn *spacesaving.Snapshot[K], k K, node int) int32 {
	bi := &ex.nodeIdx[node]
	if g := sn.Gen(); bi.tab == nil || bi.gen != g || (g == 0 && bi.call != ex.call) {
		ex.buildIndex(bi, sn, int32(node))
	}
	h := ex.hash(k, int32(node))
	pos := h & bi.mask
	for {
		v := bi.tab[pos]
		if v == 0 {
			return -1
		}
		if p := v - 1; sn.Keys[p] == k {
			return p
		}
		pos = (pos + 1) & bi.mask
	}
}

// buildIndex (re)builds one node's bounds index over sn's Keys, reusing the
// table storage.
func (ex *Extractor[K]) buildIndex(bi *boundsIndex[K], sn *spacesaving.Snapshot[K], node int32) {
	keys := sn.Keys
	n := uint32(8)
	for int(n) < 2*len(keys) {
		n <<= 1
	}
	if uint32(cap(bi.tab)) >= n {
		bi.tab = bi.tab[:n]
		clear(bi.tab)
	} else {
		bi.tab = make([]int32, n)
	}
	bi.mask = n - 1
	for i, k := range keys {
		pos := ex.hash(k, node) & bi.mask
		for bi.tab[pos] != 0 {
			pos = (pos + 1) & bi.mask
		}
		bi.tab[pos] = int32(i) + 1
	}
	bi.gen, bi.call = sn.Gen(), ex.call
}

// extHashFor resolves the (key, node) hash at instantiation time: integer
// carriers get an inline splitmix64 finalizer, Addr and AddrPair mix their
// words directly, and any other comparable type falls back to hash/maphash.
// Each extractor gets its own random seed; output never depends on the hash.
func extHashFor[K comparable]() func(k K, node int32) uint32 {
	seed := rand.Uint64()
	const phi = 0x9e3779b97f4a7c15
	mix := func(z uint64) uint64 {
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		return z ^ (z >> 31)
	}
	var fn any
	switch any(*new(K)).(type) {
	case uint32:
		fn = func(k uint32, node int32) uint32 {
			return uint32(mix(seed ^ uint64(k) ^ uint64(node)*phi))
		}
	case uint64:
		fn = func(k uint64, node int32) uint32 {
			return uint32(mix(seed ^ k ^ uint64(node)*phi))
		}
	case hierarchy.Addr:
		fn = func(k hierarchy.Addr, node int32) uint32 {
			return uint32(mix(mix(seed^k.Hi) ^ k.Lo ^ uint64(node)*phi))
		}
	case hierarchy.AddrPair:
		fn = func(k hierarchy.AddrPair, node int32) uint32 {
			h := mix(seed ^ k.Src.Hi)
			h = mix(h ^ k.Src.Lo)
			h = mix(h ^ k.Dst.Hi)
			return uint32(mix(h ^ k.Dst.Lo ^ uint64(node)*phi))
		}
	default:
		ms := maphash.MakeSeed()
		return func(k K, node int32) uint32 {
			return uint32(maphash.Comparable(ms, k) ^ uint64(node)*phi)
		}
	}
	return fn.(func(k K, node int32) uint32)
}

// SamplingCorrection returns RHHH's conservative sampling slack, the term
// added to every conditioned estimate in the Output procedure:
// 2·Z(1−δ)·√(n·V/r).
func SamplingCorrection(n float64, v, r int, delta float64) float64 {
	return 2 * stats.Z(delta) * math.Sqrt(n*float64(v)/float64(r))
}

// Extract runs the Output procedure on a freshly allocated workspace — the
// convenience entry point for one-shot queries (the deterministic baselines
// use it). Hot query paths hold an Extractor and reuse it instead.
func Extract[K comparable](dom *hierarchy.Domain[K], inst []Instance[K], n, scale, correction, theta float64) []Result[K] {
	return NewExtractor(dom).Extract(inst, n, scale, correction, theta)
}
