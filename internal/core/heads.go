package core

import (
	"cmp"
	"math"
	"slices"
	"sort"

	"rhhh/internal/spacesaving"
)

// unionView is how an Extractor reads W ≥ 2 snapshots over disjoint
// sub-streams as if they were their SnapshotMerger.Merge, without building
// the merged snapshot.
//
// Let c be the smallest upper bound that qualifies on its own (see
// Extractor.qualifies): c = ⌈(θN − correction)/scale⌉ up to float rounding.
// A key's merged upper bound is the sum of its W per-input bounds, an
// input's Min standing in where it does not monitor the key. So a key whose
// merged bound reaches c has a bound of at least a = ⌈c/W⌉ in some input —
// monitored there, unless that input's Min is itself ≥ a (TPUT's threshold
// idea, Cao & Wang, PODC 2004). Inputs that hold no key and a zero Min add
// nothing to any bound and are left out of W.
//
// A node's head is every key with an upper bound ≥ a in at least one input:
// the top of each input's descending list. One probe pass over the inputs'
// keys gives each head key its exact merged bounds, and the head is then
// ordered the way spacesaving.Merger orders keys (merged upper bound
// descending, then first input, then position in that input). Its
// qualifying prefix is exactly the merged node's qualifying prefix.
//
// A head is a function of c and the node's inputs alone, so it is kept and
// reused by later calls while c and the inputs' node generations hold.
//
// A node is instead merged in full, with the same Merger, lazily and at
// most once per call — the merged node is kept, and reused by later calls
// while its inputs' generations hold — when:
//   - some input's Min is ≥ a (this covers N below N*, where the correction
//     alone clears θN and every key qualifies);
//   - the head holds more keys than the node's capacity;
//   - the procedure reads a key past the qualifying prefix that the head
//     cannot answer: a key outside the head, or a head key that may have
//     been truncated away. Merging truncates to the capacity, and a
//     truncated node's Min is the first dropped key's bound, which no
//     input's Min reveals. A head key with merged bound x is certainly kept
//     when at most capacity keys can reach x: every such key has a bound
//     ≥ ⌈x/W⌉ in some input, so counting those per input bounds them.
type unionView[K comparable] struct {
	cut   uint64    // c: the smallest upper bound that qualifies
	mode  []uint8   // per node: nodeUnread, nodeHead or nodeMerged
	heads []head[K] // per node
	pre   []int32   // per input: length of the prefix at or above the cut

	// Lazily merged nodes live in a pool of buffers, so the memory held
	// follows how many nodes recent calls merged, not the lattice size.
	// mBuf[n] is 1 + the pool slot holding node n's merged copy (0: none).
	// A slot read in the current call is never handed to another node, and
	// one left unread for poolIdle calls is let go.
	m      spacesaving.Merger[K]
	pool   []*mergedNode[K]
	mBuf   []int32
	call   uint64
	merges uint64 // nodes merged in full, lifetime

	// paths counts, per node scan, how each node was read: from its head
	// alone, or merged because of an input Min at the cut, a head over
	// capacity, or a read past the head.
	paths [4]uint64
}

// head is one node's head: ents in merged order, the first qual of them
// qualifying, indexed by tab (rank+1, 0 = empty). wEff, maxMin and capacity
// are the node's effective input count, largest input Min and capacity. It
// was built for cut and inputs whose node generations were gens, and is
// valid while valid holds.
type head[K comparable] struct {
	ents     []headEnt[K]
	tab      []int32
	mask     uint32
	qual     int32
	wEff     uint64
	maxMin   uint64
	capacity int
	cut      uint64
	gens     []uint64
	valid    bool
}

// mergedNode is one pool buffer: node's merged copy, valid while the inputs'
// node generations still equal gens.
type mergedNode[K comparable] struct {
	sn   spacesaving.Snapshot[K]
	node int
	gens []uint64
	call uint64 // the last call that read it
}

// headEnt is one head key with its merged bounds. While the head is built,
// up accumulates Σ (Upperᵢ − Minᵢ) over the inputs that monitor the key
// (wrapping, as in spacesaving.Merger); it is then offset by ΣMin to the
// merged upper bound. ord is the key's first input << 32 | its position
// there, the Merger's tie order.
type headEnt[K comparable] struct {
	key K
	up  uint64
	lo  uint64
	ord uint64
}

// poolIdle is how many calls a merged-node buffer may go unread before the
// pool lets it go, so a burst of merges (below N* every node merges) does
// not hold a full merged snapshot for the extractor's lifetime.
const poolIdle = 64

const (
	nodeUnread uint8 = iota
	nodeHead
	nodeMerged
)

// Node read paths, indexing unionView.paths.
const (
	pathHead = iota
	pathMinFallback
	pathCapFallback
	pathReadFallback
)

// cmpHead orders head entries as spacesaving.Merger orders merged keys.
func cmpHead[K comparable](a, b headEnt[K]) int {
	if a.up != b.up {
		return cmp.Compare(b.up, a.up)
	}
	return cmp.Compare(a.ord, b.ord)
}

// begin prepares a call over ex.in: a node whose merged copy is still valid
// is read from it, else one whose head is still valid (withHeads) from
// that, and the rest start unread. withHeads also computes the cut for the
// call's threshold.
func (u *unionView[K]) begin(ex *Extractor[K], withHeads bool) {
	if len(u.mode) != ex.h {
		u.mode = make([]uint8, ex.h)
		u.heads = make([]head[K], ex.h)
		u.mBuf = make([]int32, ex.h)
	}
	u.call++
	u.shrinkPool()
	if withHeads {
		// The smallest qualifying bound, by bisection on the monotone
		// predicate.
		lo, hi := uint64(0), uint64(math.MaxUint64)
		if ex.qualifies(hi) {
			for lo < hi {
				if mid := lo + (hi-lo)/2; ex.qualifies(mid) {
					hi = mid
				} else {
					lo = mid + 1
				}
			}
		}
		u.cut = hi
	}
	for node := range u.mode {
		hd := &u.heads[node]
		switch {
		case u.cached(ex, node):
			u.mode[node] = nodeMerged
		case withHeads && !ex.fullScan && hd.valid && hd.cut == u.cut && sameGens(ex, node, hd.gens):
			u.mode[node] = nodeHead
		default:
			u.mode[node] = nodeUnread
		}
	}
}

// sameGens reports whether the inputs' generations at node are all known
// and equal gens.
func sameGens[K comparable](ex *Extractor[K], node int, gens []uint64) bool {
	if len(gens) != len(ex.in) {
		return false
	}
	for i, s := range ex.in {
		if g := s.Nodes[node].Gen(); g == 0 || g != gens[i] {
			return false
		}
	}
	return true
}

// cached reports whether node's merged copy matches the current inputs.
func (u *unionView[K]) cached(ex *Extractor[K], node int) bool {
	b := u.mBuf[node] - 1
	return b >= 0 && sameGens(ex, node, u.pool[b].gens)
}

// shrinkPool lets go of the buffers no call has read for poolIdle calls.
func (u *unionView[K]) shrinkPool() {
	kept := u.pool[:0]
	for _, p := range u.pool {
		if u.call-p.call > poolIdle {
			u.mBuf[p.node] = 0
			continue
		}
		u.mBuf[p.node] = int32(len(kept)) + 1
		kept = append(kept, p)
	}
	clear(u.pool[len(kept):])
	u.pool = kept
}

// merged returns node's merged copy, marking its buffer read this call.
func (u *unionView[K]) merged(node int) *spacesaving.Snapshot[K] {
	p := u.pool[u.mBuf[node]-1]
	p.call = u.call
	return &p.sn
}

// merge folds node's inputs into its merged copy, exactly as
// SnapshotMerger.Merge does, and reads the node from it from now on. The
// copy goes to the node's own buffer, else to one no node has read this
// call (whose node then starts over unread), else to a new one.
func (u *unionView[K]) merge(ex *Extractor[K], node int) {
	b := int(u.mBuf[node]) - 1
	for i := 0; b < 0 && i < len(u.pool); i++ {
		if p := u.pool[i]; p.call != u.call {
			u.mBuf[p.node] = 0
			if u.mode[p.node] == nodeMerged {
				u.mode[p.node] = nodeUnread
			}
			b = i
		}
	}
	if b < 0 {
		b = len(u.pool)
		u.pool = append(u.pool, &mergedNode[K]{})
	}
	p := u.pool[b]
	u.m.Reset()
	capacity := 1
	p.gens = p.gens[:0]
	for _, s := range ex.in {
		sn := &s.Nodes[node]
		u.m.Add(sn)
		capacity = max(capacity, sn.Cap)
		p.gens = append(p.gens, sn.Gen())
	}
	u.m.MergeInto(&p.sn, capacity)
	p.node, p.call = node, u.call
	u.mBuf[node] = int32(b) + 1
	u.mode[node] = nodeMerged
	u.merges++
}

// scan enumerates node's candidates: from its head when it has one, from
// its merged copy otherwise.
func (u *unionView[K]) scan(ex *Extractor[K], node int) {
	if u.mode[node] == nodeUnread {
		if ex.fullScan {
			u.merge(ex, node)
		} else if p := u.buildHead(ex, node); p != pathHead {
			u.paths[p]++
			u.merge(ex, node)
		}
	}
	if u.mode[node] == nodeMerged {
		ex.scanSorted(u.merged(node), node)
		return
	}
	hd := &u.heads[node]
	for _, e := range hd.ents[:hd.qual] {
		ex.visit(e.key, e.up, e.lo)
	}
	// Past the prefix only keys with two admitted descendants can pass (see
	// scanSorted). Visit them in merged order when the head answers for all
	// of them; otherwise merge and read the tail from the merged node.
	ex.tailBuf = ex.tailBuf[:0]
	for e := ex.nodeHead[node] - 1; e >= 0; e = ex.eNext[e] {
		if ex.eCount[e] < 2 {
			continue
		}
		r := hd.find(ex, node, ex.eKey[e])
		if r >= 0 && r < hd.qual {
			continue
		}
		if r < 0 || !hd.kept(ex, node, hd.ents[r].up) {
			u.paths[pathReadFallback]++
			u.merge(ex, node)
			ex.scanTail(u.merged(node), node, hd.qual)
			return
		}
		ex.tailBuf = append(ex.tailBuf, r)
	}
	u.paths[pathHead]++
	sortInt32(ex.tailBuf)
	for _, r := range ex.tailBuf {
		e := hd.ents[r]
		ex.visit(e.key, e.up, e.lo)
	}
}

// upperOf returns k's merged upper bound at node (raw units): from the head
// when it answers, from the merged node otherwise.
func (u *unionView[K]) upperOf(ex *Extractor[K], k K, node int) uint64 {
	switch u.mode[node] {
	case nodeHead:
		hd := &u.heads[node]
		if r := hd.find(ex, node, k); r >= 0 {
			if up := hd.ents[r].up; r < hd.qual || hd.kept(ex, node, up) {
				return up
			}
		}
		u.paths[pathReadFallback]++
		u.merge(ex, node)
	case nodeUnread:
		u.merge(ex, node)
	}
	return ex.boundOf(u.merged(node), k, node)
}

// buildHead builds node's head and returns pathHead, or returns the reason
// the node must be merged instead.
func (u *unionView[K]) buildHead(ex *Extractor[K], node int) int {
	hd := &u.heads[node]
	hd.valid = false
	var wEff, maxMin, minSum uint64
	capacity := 1
	for _, s := range ex.in {
		sn := &s.Nodes[node]
		if len(sn.Keys) > 0 || sn.Min > 0 {
			wEff++
		}
		maxMin = max(maxMin, sn.Min)
		minSum += sn.Min
		capacity = max(capacity, sn.Cap)
	}
	wEff = max(wEff, 1)
	a := ceilDiv(u.cut, wEff)
	if maxMin >= a {
		return pathMinFallback
	}
	u.pre = u.pre[:0]
	total := 0
	for _, s := range ex.in {
		up := s.Nodes[node].Upper
		p := 0
		for p < len(up) && up[p] >= a {
			p++
		}
		u.pre = append(u.pre, int32(p))
		total += p
	}
	size := 8
	for size < 2*total {
		size <<= 1
	}
	hd.tab = slices.Grow(hd.tab[:0], size)[:size]
	clear(hd.tab)
	hd.mask = uint32(size - 1)
	hd.ents = hd.ents[:0]

	// Pass 1: the inputs' prefixes make up the head.
	for i, s := range ex.in {
		sn := &s.Nodes[node]
		for p := range int(u.pre[i]) {
			k := sn.Keys[p]
			pos := ex.hash(k, int32(node)) & hd.mask
			for {
				v := hd.tab[pos]
				if v == 0 {
					hd.ents = append(hd.ents, headEnt[K]{key: k, ord: math.MaxUint64})
					v = int32(len(hd.ents))
					hd.tab[pos] = v
				}
				if e := &hd.ents[v-1]; e.key == k {
					addBound(e, sn, i, p)
					break
				}
				pos = (pos + 1) & hd.mask
			}
		}
	}
	hl := int32(len(hd.ents))
	if int(hl) > capacity {
		return pathCapFallback
	}
	// Pass 2: the rest of every input, for the head keys' exact bounds. An
	// input is left once every head key outside its prefix has turned up.
	for i, s := range ex.in {
		sn := &s.Nodes[node]
		need := hl - u.pre[i]
		for p := int(u.pre[i]); need > 0 && p < len(sn.Keys); p++ {
			if r := hd.find(ex, node, sn.Keys[p]); r >= 0 {
				addBound(&hd.ents[r], sn, i, p)
				need--
			}
		}
	}
	for j := range hd.ents {
		hd.ents[j].up += minSum
	}
	slices.SortFunc(hd.ents, cmpHead[K])
	clear(hd.tab)
	for r, e := range hd.ents {
		pos := ex.hash(e.key, int32(node)) & hd.mask
		for hd.tab[pos] != 0 {
			pos = (pos + 1) & hd.mask
		}
		hd.tab[pos] = int32(r) + 1
	}
	hd.qual = 0
	for hd.qual < hl && ex.qualifies(hd.ents[hd.qual].up) {
		hd.qual++
	}
	hd.wEff, hd.maxMin, hd.capacity, hd.cut = wEff, maxMin, capacity, u.cut
	hd.gens = hd.gens[:0]
	for _, s := range ex.in {
		hd.gens = append(hd.gens, s.Nodes[node].Gen())
	}
	hd.valid = true
	u.mode[node] = nodeHead
	return pathHead
}

// addBound folds input i's entry at position p into a head entry.
func addBound[K comparable](e *headEnt[K], sn *spacesaving.Snapshot[K], i, p int) {
	e.up += sn.Upper[p] - sn.Min
	e.lo += sn.Lower[p]
	e.ord = min(e.ord, uint64(i)<<32|uint64(p))
}

// find returns k's rank in the head of node, or −1.
func (hd *head[K]) find(ex *Extractor[K], node int, k K) int32 {
	if len(hd.ents) == 0 {
		return -1
	}
	for pos := ex.hash(k, int32(node)) & hd.mask; ; pos = (pos + 1) & hd.mask {
		v := hd.tab[pos]
		if v == 0 {
			return -1
		}
		if hd.ents[v-1].key == k {
			return v - 1
		}
	}
}

// kept reports whether a key with merged upper bound x certainly survives
// the merge's truncation at node: at most capacity keys can reach x.
func (hd *head[K]) kept(ex *Extractor[K], node int, x uint64) bool {
	y := ceilDiv(x, hd.wEff)
	if hd.maxMin >= y {
		return false
	}
	total := 0
	for _, s := range ex.in {
		up := s.Nodes[node].Upper
		if total += sort.Search(len(up), func(j int) bool { return up[j] < y }); total > hd.capacity {
			return false
		}
	}
	return true
}

// ceilDiv returns ⌈x/w⌉ without overflow.
func ceilDiv(x, w uint64) uint64 {
	q := x / w
	if x%w != 0 {
		q++
	}
	return q
}
