package spacesaving

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math/bits"
	"slices"
	"sync/atomic"
)

// Snapshot is a compact, immutable copy of a Summary's observable state:
// flat parallel key/upper/lower arrays in descending upper-bound order (the
// same order ForEach visits), plus the stream weight and the MinCount bound
// for unmonitored keys. Snapshots are the unit of the read path — queries,
// merges, serialization and window rings all operate on snapshots, never on
// live summaries — so the update path is never paused for more than one
// O(capacity) copy.
//
// A Snapshot preserves the Definition 4 contract of the summary it was taken
// from: for every key, Lower ≤ f ≤ Upper for monitored keys, and f ≤ Min for
// unmonitored ones.
type Snapshot[K comparable] struct {
	// Keys, Upper and Lower are parallel arrays in non-ascending Upper
	// order. Upper[i] and Lower[i] bound the true frequency of Keys[i].
	Keys  []K
	Upper []uint64
	Lower []uint64
	// N is the total stream weight the source summary had absorbed.
	N uint64
	// Min bounds the frequency of any key not present in Keys.
	Min uint64
	// Cap is the source summary's counter capacity (⌈1/ε⌉-ish); merged
	// snapshots record the capacity they were truncated to.
	Cap int

	// gen is the snapshot's mutation generation, drawn from a process-wide
	// counter whenever a mutator (SnapshotInto, Merger.MergeInto, Decode)
	// rewrites the contents. Downstream caches — the per-node merge skip,
	// the extractor's bounds indices — key on it; 0 means "unknown"
	// (hand-assembled) and disables them. Code that fills the exported
	// fields directly must leave gen at 0 or not reuse the snapshot where
	// caches watch it.
	gen uint64
}

// snapGenCounter issues mutation generations; see Snapshot.gen.
var snapGenCounter atomic.Uint64

// Gen returns the snapshot's mutation generation: two reads returning the
// same non-zero value guarantee the snapshot contents have not been
// rewritten in between. 0 means the snapshot was assembled by hand and has
// no tracked generation.
func (sn *Snapshot[K]) Gen() uint64 { return sn.gen }

// Invalidate clears the snapshot's generation to "unknown", so every cache
// keyed on it rebuilds. Call it after mutating the exported fields in
// place; the tracked mutators stamp a fresh generation on their own.
func (sn *Snapshot[K]) Invalidate() { sn.gen = 0 }

// Stamp issues the snapshot a fresh mutation generation, marking it as
// rewritten-and-current. It is for alternative backend implementations
// (internal/chk) that fill the exported fields directly but want downstream
// generation-keyed caches — the merge skips, the delta encoder — to track
// the snapshot exactly as if a tracked mutator had produced it. Plain
// in-place mutators should call Invalidate instead.
func (sn *Snapshot[K]) Stamp() { sn.gen = snapGenCounter.Add(1) }

// Len returns the number of monitored keys in the snapshot.
func (sn *Snapshot[K]) Len() int { return len(sn.Keys) }

// Bounds returns (upper, lower) frequency bounds for k: the stored entry for
// monitored keys, (Min, 0) otherwise. Linear scan — build an index for bulk
// lookups (the core package's query adapter does).
func (sn *Snapshot[K]) Bounds(k K) (upper, lower uint64) {
	for i, key := range sn.Keys {
		if key == k {
			return sn.Upper[i], sn.Lower[i]
		}
	}
	return sn.Min, 0
}

// reset empties the snapshot, keeping array capacity for reuse.
func (sn *Snapshot[K]) reset() {
	sn.Keys = sn.Keys[:0]
	sn.Upper = sn.Upper[:0]
	sn.Lower = sn.Lower[:0]
	sn.N, sn.Min, sn.Cap = 0, 0, 0
	sn.gen = 0
}

// SnapshotInto copies the summary's state into dst, reusing dst's arrays
// (zero allocations once the arrays have grown to capacity). A nil dst
// allocates a fresh snapshot. Returns dst.
//
// The copy walks the bucket list straight into arrays sized to the
// monitored-key count, in ForEach order: buckets by descending count, and
// each bucket's counters from its head.
func (s *Summary[K]) SnapshotInto(dst *Snapshot[K]) *Snapshot[K] {
	if dst == nil {
		dst = &Snapshot[K]{}
	}
	n := s.used
	dst.Keys = slices.Grow(dst.Keys[:0], n)[:n]
	dst.Upper = slices.Grow(dst.Upper[:0], n)[:n]
	dst.Lower = slices.Grow(dst.Lower[:0], n)[:n]
	keys, upper, lower := dst.Keys, dst.Upper, dst.Lower
	bkts, hot, cold := s.buckets, s.hot, s.cold
	if s.min != nilIdx {
		last := s.min
		for bkts[last].next != nilIdx {
			last = bkts[last].next
		}
		i := 0
		for b := last; b != nilIdx; b = bkts[b].prev {
			count := bkts[b].count
			for c := bkts[b].head; c != nilIdx; c = hot[c].next {
				keys[i] = hot[c].key
				upper[i] = count
				lower[i] = count - cold[c].err
				i++
			}
		}
	}
	dst.N = s.n
	dst.Min = s.MinCount()
	dst.Cap = s.capacity
	dst.gen = snapGenCounter.Add(1)
	return dst
}

// Snapshot returns a freshly allocated snapshot of the summary.
func (s *Summary[K]) Snapshot() *Snapshot[K] { return s.SnapshotInto(nil) }

// LoadSnapshot rebuilds the summary's state from a snapshot: counters are
// inserted in ascending count order so the bucket list is constructed in one
// pass. The snapshot must fit the summary's capacity and be well formed
// (non-ascending Upper, Lower ≤ Upper); snapshots produced by SnapshotInto,
// Merger.MergeInto or a validated Decode always are.
func (s *Summary[K]) LoadSnapshot(sn *Snapshot[K]) {
	if sn.Len() > s.capacity {
		panic("spacesaving: snapshot exceeds summary capacity")
	}
	s.Reset()
	s.n = sn.N
	tail := nilIdx
	for i := sn.Len() - 1; i >= 0; i-- {
		up := sn.Upper[i]
		if i+1 < sn.Len() && sn.Upper[i+1] > up {
			panic("spacesaving: snapshot upper bounds not sorted")
		}
		c := int32(s.used)
		s.used++
		s.hot[c].key = sn.Keys[i]
		s.cold[c].err = up - sn.Lower[i]
		s.indexInsert(c, s.hash(sn.Keys[i]))
		if tail == nilIdx || s.buckets[tail].count != up {
			tail = s.newBucket(up, tail, nilIdx)
		}
		s.pushCounter(tail, c)
	}
}

// Merger accumulates snapshots over disjoint sub-streams into merged
// frequency bounds, in the style of mergeable summaries (Agarwal et al.,
// PODS 2012). All scratch (union arrays, key index, sort buffers) is
// retained across merges, so a steady-state merge allocates nothing.
//
// For every key the merged upper bound is the sum of the per-snapshot upper
// bounds (using a snapshot's Min when it does not monitor the key) and the
// merged lower bound is the sum of the lower bounds, preserving Definition 4:
//
//	Σfᵢ(k) ≤ upper(k),   lower(k) ≤ Σfᵢ(k),   upper(k)−lower(k) ≤ Σ εᵢNᵢ.
//
// The union is indexed by a flat open-addressing table hashed like Summary's
// index, and MergeInto orders it with a stable LSD radix sort on the merged
// upper bound, so a merge costs O(union) with no comparator calls.
//
// Usage: Reset, Add each snapshot, then MergeInto a destination snapshot.
type Merger[K comparable] struct {
	keys []K
	// excess[j] is Σ (Upperᵢ − Minᵢ) over the added snapshots that monitor
	// keys[j], so the merged upper bound is excess[j] + minSum: the Min of
	// every snapshot that does not monitor the key is included without
	// touching the key. The sum wraps when a snapshot's Upper is below its
	// own Min (CHK's estimates can be); it is exact modulo 2⁶⁴ all the same,
	// so the bound equals the direct per-key sum bit for bit.
	excess []uint64
	lower  []uint64
	slots  []int32 // linear-probing index: 1 + position in keys, 0 = empty
	hash   func(K) uint32
	perm   []int32 // radix sort buffers, swapped each pass
	tmp    []int32
	minSum uint64 // Σ Min over added snapshots
	n      uint64 // Σ N over added snapshots
}

// Reset clears the accumulator for a new merge, keeping scratch storage.
func (m *Merger[K]) Reset() {
	if len(m.keys) != 0 {
		clear(m.slots)
	}
	m.keys = m.keys[:0]
	m.excess = m.excess[:0]
	m.lower = m.lower[:0]
	m.minSum, m.n = 0, 0
}

// Add folds one snapshot into the accumulator.
func (m *Merger[K]) Add(sn *Snapshot[K]) {
	if need := 2 * (len(m.keys) + len(sn.Keys)); need > len(m.slots) {
		m.grow(need)
	}
	mask := uint32(len(m.slots) - 1)
	for i, k := range sn.Keys {
		for p := m.hash(k) & mask; ; p = (p + 1) & mask {
			s := m.slots[p]
			if s == 0 {
				m.slots[p] = int32(len(m.keys)) + 1
				m.keys = append(m.keys, k)
				m.excess = append(m.excess, sn.Upper[i]-sn.Min)
				m.lower = append(m.lower, sn.Lower[i])
				break
			}
			if m.keys[s-1] == k {
				m.excess[s-1] += sn.Upper[i] - sn.Min
				m.lower[s-1] += sn.Lower[i]
				break
			}
		}
	}
	m.minSum += sn.Min
	m.n += sn.N
}

// grow resizes the index to the smallest power of two holding need slots
// (at most half of them full once the pending Add lands) and reinserts the
// accumulated keys. It runs only while the merger warms up to its largest
// union; later merges reuse the table.
func (m *Merger[K]) grow(need int) {
	if m.hash == nil {
		m.hash = hashFuncFor[K]()
	}
	size := 16
	for size < need {
		size <<= 1
	}
	m.slots = make([]int32, size)
	mask := uint32(size - 1)
	for j, k := range m.keys {
		p := m.hash(k) & mask
		for m.slots[p] != 0 {
			p = (p + 1) & mask
		}
		m.slots[p] = int32(j) + 1
	}
}

// N returns the total stream weight accumulated so far.
func (m *Merger[K]) N() uint64 { return m.n }

// MergeInto writes the merged result into dst, truncated to the `capacity`
// keys with the largest upper bounds (deterministically: ties keep the
// earlier-accumulated key). dst's arrays are reused; a nil dst allocates.
// A dropped key's frequency is bounded by dst.Min, exactly as in a freshly
// built summary. Returns dst.
func (m *Merger[K]) MergeInto(dst *Snapshot[K], capacity int) *Snapshot[K] {
	if capacity < 1 {
		panic("spacesaving: capacity must be >= 1")
	}
	if dst == nil {
		dst = &Snapshot[K]{}
	}
	dst.reset()
	kept := m.sortByUpper()
	dropMax := uint64(0)
	if len(kept) > capacity {
		dropMax = m.excess[kept[capacity]] + m.minSum
		kept = kept[:capacity]
	}
	dst.Keys = slices.Grow(dst.Keys, len(kept))
	dst.Upper = slices.Grow(dst.Upper, len(kept))
	dst.Lower = slices.Grow(dst.Lower, len(kept))
	for _, j := range kept {
		dst.Keys = append(dst.Keys, m.keys[j])
		dst.Upper = append(dst.Upper, m.excess[j]+m.minSum)
		dst.Lower = append(dst.Lower, m.lower[j])
	}
	dst.N = m.n
	dst.Min = max(m.minSum, dropMax)
	dst.Cap = capacity
	dst.gen = snapGenCounter.Add(1)
	return dst
}

// sortByUpper returns the union positions in descending merged-upper-bound
// order, ties in accumulation order. It is a stable LSD radix sort, 8 bits a
// pass, on each bound's distance below the largest one, so it runs only the
// passes the spread of the bounds needs.
func (m *Merger[K]) sortByUpper() []int32 {
	n := len(m.keys)
	if cap(m.perm) < n {
		m.perm = make([]int32, n)
		m.tmp = make([]int32, n)
	}
	perm, tmp := m.perm[:n], m.tmp[:n]
	if n == 0 {
		return perm
	}
	hi, lo := uint64(0), ^uint64(0)
	for j := range perm {
		perm[j] = int32(j)
		u := m.excess[j] + m.minSum
		hi, lo = max(hi, u), min(lo, u)
	}
	for shift := 0; shift < bits.Len64(hi-lo); shift += 8 {
		var count [256]int32
		for _, j := range perm {
			count[byte((hi-m.excess[j]-m.minSum)>>shift)]++
		}
		sum := int32(0)
		for d, c := range count {
			count[d] = sum
			sum += c
		}
		for _, j := range perm {
			d := byte((hi - m.excess[j] - m.minSum) >> shift)
			tmp[count[d]] = j
			count[d]++
		}
		perm, tmp = tmp, perm
	}
	return perm
}

// Snapshot binary encoding, version 1. The format is deterministic: a
// snapshot always encodes to the same bytes, and decode∘encode is the
// identity. Layout (all varints are unsigned LEB128):
//
//	byte    version (1)
//	uvarint capacity
//	uvarint n
//	uvarint min
//	uvarint number of entries
//	entries × { key (caller codec, fixed width), uvarint upper, uvarint upper−lower }
//
// Key bytes are produced by a caller-supplied codec so this package stays
// agnostic of the carrier types (the core package provides codecs for the
// four lattice carriers).
const snapshotVersion = 1

// snapMaxCap guards decode against absurd allocations from corrupt input.
const snapMaxCap = 1 << 24

// AppendBinary appends the versioned binary encoding of the snapshot to buf
// and returns the extended slice. putKey appends one key's fixed-width
// encoding.
func (sn *Snapshot[K]) AppendBinary(buf []byte, putKey func([]byte, K) []byte) []byte {
	buf = append(buf, snapshotVersion)
	buf = binary.AppendUvarint(buf, uint64(sn.Cap))
	buf = binary.AppendUvarint(buf, sn.N)
	buf = binary.AppendUvarint(buf, sn.Min)
	buf = binary.AppendUvarint(buf, uint64(len(sn.Keys)))
	for i, k := range sn.Keys {
		buf = putKey(buf, k)
		buf = binary.AppendUvarint(buf, sn.Upper[i])
		buf = binary.AppendUvarint(buf, sn.Upper[i]-sn.Lower[i])
	}
	return buf
}

// Decode parses one encoded snapshot from b into sn (reusing sn's arrays)
// and returns the remaining bytes. It rejects version mismatches, truncated
// input, and structurally invalid state (more entries than capacity,
// ascending upper bounds, error exceeding the bound, duplicate keys), so a
// decoded snapshot is always safe to merge or load.
func (sn *Snapshot[K]) Decode(b []byte, getKey func([]byte) (K, []byte, error)) (rest []byte, err error) {
	if len(b) < 1 {
		return nil, errors.New("spacesaving: short snapshot")
	}
	if b[0] != snapshotVersion {
		return nil, fmt.Errorf("spacesaving: unknown snapshot version %d", b[0])
	}
	b = b[1:]
	var capacity, n, min, entries uint64
	for _, dst := range []*uint64{&capacity, &n, &min, &entries} {
		v, w := binary.Uvarint(b)
		if w <= 0 {
			return nil, errors.New("spacesaving: truncated snapshot header")
		}
		*dst, b = v, b[w:]
	}
	if capacity < 1 || capacity > snapMaxCap {
		return nil, fmt.Errorf("spacesaving: snapshot capacity %d out of range", capacity)
	}
	if entries > capacity {
		return nil, fmt.Errorf("spacesaving: snapshot has %d entries for capacity %d", entries, capacity)
	}
	sn.reset()
	sn.Cap = int(capacity)
	sn.N = n
	sn.Min = min
	// Size hints come from untrusted input: bound them by what the
	// remaining bytes could possibly hold (≥ 3 bytes per entry: one key
	// byte minimum via getKey plus two uvarints) so a tiny corrupt datagram
	// cannot trigger a huge eager allocation.
	hint := entries
	if most := uint64(len(b)) / 3; hint > most {
		hint = most
	}
	seen := make(map[K]struct{}, hint)
	prev := ^uint64(0)
	for i := uint64(0); i < entries; i++ {
		k, rest, err := getKey(b)
		if err != nil {
			return nil, err
		}
		b = rest
		up, w := binary.Uvarint(b)
		if w <= 0 {
			return nil, errors.New("spacesaving: truncated snapshot entry")
		}
		b = b[w:]
		e, w := binary.Uvarint(b)
		if w <= 0 {
			return nil, errors.New("spacesaving: truncated snapshot entry")
		}
		b = b[w:]
		if e > up {
			return nil, fmt.Errorf("spacesaving: snapshot error %d exceeds upper bound %d", e, up)
		}
		if up > prev {
			return nil, errors.New("spacesaving: snapshot upper bounds not sorted")
		}
		if _, dup := seen[k]; dup {
			return nil, errors.New("spacesaving: duplicate key in snapshot")
		}
		seen[k] = struct{}{}
		prev = up
		sn.Keys = append(sn.Keys, k)
		sn.Upper = append(sn.Upper, up)
		sn.Lower = append(sn.Lower, up-e)
	}
	sn.gen = snapGenCounter.Add(1)
	return b, nil
}
