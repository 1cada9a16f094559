// Package spacesaving implements the Space Saving algorithm of Metwally,
// Agrawal and El Abbadi (ICDT 2005), the per-lattice-node heavy-hitters
// building block the paper uses ("we use Space Saving because it is believed
// to have an empirical edge over other algorithms").
//
// Summary is the Stream-Summary variant with O(1) worst-case updates — the
// property Theorem 6.18 relies on for RHHH's O(1) update complexity. It
// also takes weighted increments (IncrementBy and ApplyWeightedPlanned), for
// the weighted-input extension.
//
// Summary stores all counters in one flat slab indexed by an open-addressed
// hash table, and the Stream-Summary bucket list links counters and buckets
// by slab index rather than by pointer. The slab is split hot/cold: the hot
// array holds exactly the fields a monitored-key increment touches (key +
// bucket/sibling links), the cold array the fields only insertions, evictions
// and mid-list detaches need (error, index lane position). A steady-state
// update therefore touches a handful of contiguous arrays — and within the
// slab a single, denser cache line — instead of chasing map buckets and
// heap-allocated nodes, and the structure performs zero allocations after
// construction.
//
// Batched updates run a two-phase kernel (ResolveAcross + ApplyPlanned, see
// those functions) that issues every update's index and slab loads for a
// whole window before applying any of them, so the cache misses of up to
// BatchChunk independent updates overlap instead of serializing through the
// per-key path.
//
// Guarantees (for capacity c after N unit updates):
//
//   - every monitored key satisfies count−error ≤ f ≤ count;
//   - every key with f > N/c is monitored;
//   - an unmonitored key has f ≤ MinCount() ≤ N/c.
//
// These are exactly the (ε,0)-Frequency Estimation requirements of
// Definition 4 with c = ⌈1/ε⌉ counters.
package spacesaving

import (
	"hash/maphash"
	"math/bits"
	"math/rand/v2"
)

// nilIdx is the shared sentinel for "no counter / no bucket" slab links.
const nilIdx = int32(-1)

// hotCounter is the hot half of one monitored key's state: the fields every
// increment of a monitored key touches. Counters with equal counts hang off a
// shared bucket; the count itself lives on the bucket (the Stream-Summary
// trick that makes increments O(1)). Links are slab indices. Sibling lists
// are singly linked: head removal (the eviction case) touches no sibling,
// and mid-list removal swaps the head's key into the vacated position
// (detach), so no counter ever needs a back link.
type hotCounter[K comparable] struct {
	key  K
	bkt  int32
	next int32 // next sibling in the same bucket
}

// coldCounter is the cold half: fields only the insertion, eviction and
// mid-list detach paths touch, split off so the monitored-key fast path
// never loads their cache lines.
type coldCounter struct {
	err    uint64
	tabPos uint32 // lane position in the cuckoo index (stashPos if stashed)
}

// bucket groups counters with the same count. Buckets form a doubly linked
// list ordered by count ascending; links are indices into the bucket slab.
type bucket struct {
	count      uint64
	head       int32
	prev, next int32
}

// BatchChunk is the window depth of the two-phase batch kernel:
// ResolveAcross issues the loads for up to this many updates before
// ApplyPlanned retires them. 64 keeps the plan (slots + hashes) at 512 bytes
// while saturating the load buffers of current cores.
const BatchChunk = 64

// Summary is a Stream-Summary Space Saving instance. It is not safe for
// concurrent use; RHHH gives each lattice node its own instance.
type Summary[K comparable] struct {
	capacity int
	hot      []hotCounter[K] // hot counter slab; [0:used) are live
	cold     []coldCounter   // cold counter slab, parallel to hot
	used     int
	buckets  []bucket // bucket slab, recycled through freeBkt
	min      int32    // bucket with the smallest count, or nilIdx when empty
	freeBkt  int32    // free bucket list, avoids steady-state allocation
	n        uint64   // total weight of all increments

	// Bucketized cuckoo index: key → slab slot, two candidate buckets of
	// four lanes each (in the style of cuckoo filters and Cuckoo Heavy
	// Keeper's stores). fps holds one fingerprint byte per lane packed four
	// to a word — a lookup SWAR-compares four lanes at once and a deletion
	// is a single byte clear, with no probe chains to repair. refs holds
	// the slab slot per lane. The alternate bucket is derived from the
	// occupied bucket and the fingerprint alone, so displacements never
	// rehash keys. stash absorbs the astronomically rare displacement
	// overflow (the table runs at ~50% of a scheme that sustains >95%).
	fps     []uint32 // 4 fingerprint bytes per bucket; 0 = free lane
	refs    []int32  // 4 slot ids per bucket
	bktMask uint32   // number of buckets − 1 (power of two)
	stash   []int32  // overflowed slots, scanned only when non-empty
	hash    func(k K) uint32

	warmSink uint64 // defeats dead-load elimination of the resolve loads

	// evictions counts minimum-counter takeovers over the summary's
	// lifetime (it survives Reset so published telemetry stays monotone).
	// Owned by the updating goroutine like all other state; readers go
	// through the publication path, never this field.
	evictions uint64
}

// fpOf derives a non-zero fingerprint byte from a key hash.
func fpOf(h uint32) uint32 { return (h >> 24) | 1 }

// altBucket returns the other candidate bucket for a fingerprint: an
// xor-displacement keyed on the fingerprint byte (cuckoo-filter style), so
// it is an involution computable without the key.
func altBucket(b, fp, mask uint32) uint32 { return (b ^ (fp * 0x5bd1)) & mask }

// swarMatch returns a mask with bit 8i+7 set when byte i of w equals the
// (repeated) byte b.
func swarMatch(w, b uint32) uint32 { return swarZero(w ^ (b * 0x01010101)) }

// swarZero returns a mask with bit 8i+7 set exactly when byte i of w is
// zero. No carry crosses a byte: the subtract-and-mask form would also flag
// a 0x01 byte above a zero byte, so a lookup of fingerprint 1 would follow
// the stale ref of an empty lane above a matching one.
func swarZero(w uint32) uint32 {
	return ^((w&0x7f7f7f7f + 0x7f7f7f7f) | w) & 0x80808080
}

// hashFuncFor picks the key-hash function at construction time: integer
// carriers (the IPv4 key types) get an inline splitmix64 finalizer, and any
// other comparable type, the IPv6 Addr and AddrPair included, falls back to
// hash/maphash. Each summary gets its own random seed.
func hashFuncFor[K comparable]() func(k K) uint32 {
	seed := rand.Uint64()
	mix := func(z uint64) uint32 {
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		return uint32(z ^ (z >> 31))
	}
	var fn any
	switch any(*new(K)).(type) {
	case uint32:
		fn = func(k uint32) uint32 { return mix(seed ^ uint64(k)) }
	case uint64:
		fn = func(k uint64) uint32 { return mix(seed ^ k) }
	default:
		ms := maphash.MakeSeed()
		return func(k K) uint32 { return uint32(maphash.Comparable(ms, k)) }
	}
	return fn.(func(k K) uint32)
}

// New returns a Space Saving instance with the given number of counters.
// capacity must be at least 1.
func New[K comparable](capacity int) *Summary[K] {
	if capacity < 1 {
		panic("spacesaving: capacity must be >= 1")
	}
	nBkt := uint32(2) // ≥ 2 buckets so the two candidates can differ
	for nBkt*4 < uint32(2*capacity) {
		nBkt <<= 1
	}
	s := &Summary[K]{
		capacity: capacity,
		hot:      make([]hotCounter[K], capacity),
		cold:     make([]coldCounter, capacity),
		buckets:  make([]bucket, 0, capacity+1),
		min:      nilIdx,
		freeBkt:  nilIdx,
		fps:      make([]uint32, nBkt),
		refs:     make([]int32, nBkt*4),
		bktMask:  nBkt - 1,
		stash:    make([]int32, 0, 8),
		hash:     hashFuncFor[K](),
	}
	return s
}

// Capacity returns the number of counters the instance was built with.
func (s *Summary[K]) Capacity() int { return s.capacity }

// N returns the total weight processed so far.
func (s *Summary[K]) N() uint64 { return s.n }

// Len returns the number of currently monitored keys.
func (s *Summary[K]) Len() int { return s.used }

// Evictions returns the lifetime count of minimum-counter takeovers.
func (s *Summary[K]) Evictions() uint64 { return s.evictions }

// StashLen returns the number of slots parked in the cuckoo-index stash.
func (s *Summary[K]) StashLen() int { return len(s.stash) }

// MinCount returns the smallest tracked count, or 0 while the table has
// spare capacity (an unseen key then provably has frequency 0).
func (s *Summary[K]) MinCount() uint64 {
	if s.used < s.capacity || s.min == nilIdx {
		return 0
	}
	return s.buckets[s.min].count
}

// lookup returns the slab slot of k (whose hash is h), or nilIdx when
// unmonitored. The two candidate buckets are independent loads, and each is
// compared four lanes at a time; the hot slab is only loaded to confirm a
// fingerprint match.
func (s *Summary[K]) lookup(k K, h uint32) int32 {
	fp := fpOf(h)
	b := h & s.bktMask
	for m := swarMatch(s.fps[b], fp); m != 0; m &= m - 1 {
		lane := laneOf(m)
		if v := s.refs[b*4+lane]; s.hot[v].key == k {
			return v
		}
	}
	b2 := altBucket(b, fp, s.bktMask)
	for m := swarMatch(s.fps[b2], fp); m != 0; m &= m - 1 {
		lane := laneOf(m)
		if v := s.refs[b2*4+lane]; s.hot[v].key == k {
			return v
		}
	}
	if len(s.stash) != 0 {
		for _, v := range s.stash {
			if s.hot[v].key == k {
				return v
			}
		}
	}
	return nilIdx
}

// laneOf maps a SWAR match bit to its lane index (bits 7/15/23/31 → 0..3).
func laneOf(m uint32) uint32 {
	return (uint32(bits.TrailingZeros32(m)) - 7) >> 3
}

// indexInsert records slot under hash h, remembering the lane position in
// the slot so deletion is position-direct. The key must not be present.
func (s *Summary[K]) indexInsert(slot int32, h uint32) {
	fp := fpOf(h)
	b := h & s.bktMask
	if s.place(b, fp, slot) || s.place(altBucket(b, fp, s.bktMask), fp, slot) {
		return
	}
	// Both candidates full: displace residents along their alternate
	// buckets. Bounded walk; overflow lands in the stash (at ~50% load the
	// walk virtually never exceeds a couple of hops).
	curFP, cur := fp, slot
	b = altBucket(b, fp, s.bktMask)
	for kick := 0; kick < 64; kick++ {
		// Rotate out lane 0 of the full bucket (the choice only affects
		// index layout, never Space Saving semantics).
		lane := uint32(kick) & 3
		pos := b*4 + lane
		oldFP := (s.fps[b] >> (lane * 8)) & 0xff
		old := s.refs[pos]
		s.fps[b] = s.fps[b]&^(0xff<<(lane*8)) | curFP<<(lane*8)
		s.refs[pos] = cur
		s.cold[cur].tabPos = pos
		curFP, cur = oldFP, old
		b = altBucket(b, curFP, s.bktMask)
		if s.place(b, curFP, cur) {
			return
		}
	}
	s.cold[cur].tabPos = stashPos
	s.stash = append(s.stash, cur)
}

// place puts slot into a free lane of bucket b, if any.
func (s *Summary[K]) place(b, fp uint32, slot int32) bool {
	z := swarZero(s.fps[b])
	if z == 0 {
		return false
	}
	lane := laneOf(z)
	s.fps[b] |= fp << (lane * 8)
	pos := b*4 + lane
	s.refs[pos] = slot
	s.cold[slot].tabPos = pos
	return true
}

// stashPos marks a counter whose index entry lives in the stash.
const stashPos = ^uint32(0)

// indexDelete removes slot from the index: clear its fingerprint byte —
// cuckoo probing has no chains to repair.
func (s *Summary[K]) indexDelete(slot int32) {
	pos := s.cold[slot].tabPos
	if pos == stashPos {
		for i, v := range s.stash {
			if v == slot {
				s.stash[i] = s.stash[len(s.stash)-1]
				s.stash = s.stash[:len(s.stash)-1]
				return
			}
		}
		return
	}
	s.fps[pos/4] &^= 0xff << ((pos & 3) * 8)
}

// Increment adds one occurrence of key k. O(1) worst case.
func (s *Summary[K]) Increment(k K) {
	s.incrementH(k, s.hash(k))
}

// incrementH is Increment with the key hash already computed.
func (s *Summary[K]) incrementH(k K, h uint32) {
	s.n++
	if c := s.lookup(k, h); c != nilIdx {
		s.bump(c, s.buckets[s.hot[c].bkt].count+1)
		return
	}
	s.insertOrEvict(k, h, 1)
}

// insertOrEvict admits an unmonitored key carrying weight w: a fresh counter
// while below capacity, otherwise the classic Space Saving takeover of a
// minimum-bucket counter (any one; we take the head).
func (s *Summary[K]) insertOrEvict(k K, h uint32, w uint64) {
	if s.used < s.capacity {
		c := int32(s.used)
		s.used++
		s.hot[c].key = k
		s.cold[c].err = 0
		s.indexInsert(c, h)
		s.attach(c, w)
		return
	}
	c := s.buckets[s.min].head
	minCount := s.buckets[s.min].count
	s.evictions++
	s.indexDelete(c)
	s.hot[c].key = k
	s.cold[c].err = minCount
	s.indexInsert(c, h)
	s.bump(c, minCount+w)
}

// ResolveAcross plans one update per sample across many summaries at once —
// the first half of the batch kernel. Sample i is keys[i] against
// sums[nodes[i]]; the resolved slab slot (or nilIdx) and key hash land in
// slots[i] / hashes[i], which a following ApplyPlanned replays run by run.
// len(keys) must be at most BatchChunk; summaries may repeat, but a window's
// same-summary samples must be contiguous (group by node first, as the
// engine's counting sort does) so that nothing mutates a summary between a
// sample's resolve and its apply.
//
// A per-key lookup is a dependent probe chain (index word → lane ref → slab
// confirm → bucket line). ResolveAcross instead walks the whole window level
// by level: first every sample's two index words, then every sample's
// candidate ref and slab confirm, then every sample's bucket or
// eviction-victim lines. Each level issues up to BatchChunk independent
// loads, so the window's cache misses overlap to the limit of the machine's
// memory-level parallelism instead of stacking into per-node round trips.
//
// ResolveAcross reads but never mutates measurement state. Samples that need
// the stash or see fingerprint collisions fall back to the full lookup
// inside the confirm level.
func ResolveAcross[K comparable](sums []*Summary[K], nodes []int32, keys []K, slots []int32, hashes []uint32) {
	n := len(keys)
	if n > BatchChunk {
		panic("spacesaving: ResolveAcross window exceeds BatchChunk")
	}
	const (
		candNone = int32(-1) // no fingerprint match: certain miss
		candSlow = int32(-2) // collisions or stash: full lookup
	)
	var b1, w1, w2 [BatchChunk]uint32
	var cand [BatchChunk]int32 // ref position of the single candidate lane
	// Level 1: hash every key and load both candidate index words.
	for i := 0; i < n; i++ {
		s := sums[nodes[i]]
		h := s.hash(keys[i])
		hashes[i] = h
		b := h & s.bktMask
		b1[i] = b
		w1[i] = s.fps[b]
		w2[i] = s.fps[altBucket(b, fpOf(h), s.bktMask)]
	}
	// Level 2: pick each sample's candidate lane from the loaded words.
	for i := 0; i < n; i++ {
		s := sums[nodes[i]]
		fp := fpOf(hashes[i])
		m1 := swarMatch(w1[i], fp)
		m2 := swarMatch(w2[i], fp)
		switch {
		case len(s.stash) != 0 || (m1 != 0 && m2 != 0) ||
			m1&(m1-1) != 0 || m2&(m2-1) != 0:
			cand[i] = candSlow
		case m1 != 0:
			cand[i] = int32(b1[i]*4 + laneOf(m1))
		case m2 != 0:
			b := altBucket(b1[i], fp, s.bktMask)
			cand[i] = int32(b*4 + laneOf(m2))
		default:
			cand[i] = candNone
		}
	}
	// Level 3: load the candidate refs and confirm against the hot slab.
	for i := 0; i < n; i++ {
		switch cand[i] {
		case candSlow:
			s := sums[nodes[i]]
			slots[i] = s.lookup(keys[i], hashes[i])
		case candNone:
			slots[i] = nilIdx
		default:
			s := sums[nodes[i]]
			if v := s.refs[cand[i]]; s.hot[v].key == keys[i] {
				slots[i] = v
			} else {
				slots[i] = nilIdx // lone fingerprint collision: certain miss
			}
		}
	}
	// Level 4: warm the lines the apply phase will write — the hit buckets,
	// and for misses the eviction victim's cold entry and index lane.
	var warm uint64
	for i := 0; i < n; i++ {
		s := sums[nodes[i]]
		if c := slots[i]; c != nilIdx {
			warm += s.buckets[s.hot[c].bkt].count
		} else if s.used == s.capacity && s.min != nilIdx {
			v := s.buckets[s.min].head
			if v != nilIdx {
				if pos := s.cold[v].tabPos; pos != stashPos {
					warm += uint64(s.fps[pos/4])
				}
			}
		}
	}
	if n > 0 {
		sums[nodes[0]].warmSink += warm
	}
}

// ApplyPlanned replays a ResolveAcross plan for one summary's run of
// samples, adding one occurrence of each key in order — equivalent to
// calling Increment per key. slots and hashes are the run's part of the
// plan, parallel to keys. Planned hits skip the index probes entirely. A
// plan entry invalidated by an earlier update in the same run falls back to
// a fresh lookup, so the result is bit-identical to the sequential path: a
// stale hit (a detach swap moved the key, or an eviction removed it), and a
// planned miss once the run has admitted a key (it may have been this one).
func (s *Summary[K]) ApplyPlanned(keys []K, slots []int32, hashes []uint32) {
	dirty := false // a key was admitted during this run
	for i, k := range keys {
		s.n++
		c := slots[i]
		if c != nilIdx && s.hot[c].key == k {
			s.bump(c, s.buckets[s.hot[c].bkt].count+1)
			continue
		}
		h := hashes[i]
		if c != nilIdx || dirty {
			if c = s.lookup(k, h); c != nilIdx {
				s.bump(c, s.buckets[s.hot[c].bkt].count+1)
				continue
			}
		}
		s.insertOrEvict(k, h, 1)
		dirty = true
	}
}

// ApplyWeightedPlanned is ApplyPlanned with per-key weights — equivalent to
// calling IncrementBy per (key, weight) pair, including the w == 0 no-op.
func (s *Summary[K]) ApplyWeightedPlanned(keys []K, ws []uint64, slots []int32, hashes []uint32) {
	dirty := false
	for i, k := range keys {
		w := ws[i]
		if w == 0 {
			continue
		}
		s.n += w
		c := slots[i]
		if c != nilIdx && s.hot[c].key == k {
			s.bump(c, s.buckets[s.hot[c].bkt].count+w)
			continue
		}
		h := hashes[i]
		if c != nilIdx || dirty {
			if c = s.lookup(k, h); c != nilIdx {
				s.bump(c, s.buckets[s.hot[c].bkt].count+w)
				continue
			}
		}
		s.insertOrEvict(k, h, w)
		dirty = true
	}
}

// IncrementBy adds weight w of key k. For monitored keys the counter may
// skip past several buckets; the walk is bounded by the number of distinct
// counts, so this is O(min(capacity, w)) worst case.
func (s *Summary[K]) IncrementBy(k K, w uint64) {
	if w == 0 {
		return
	}
	s.n += w
	h := s.hash(k)
	if c := s.lookup(k, h); c != nilIdx {
		s.bump(c, s.buckets[s.hot[c].bkt].count+w)
		return
	}
	s.insertOrEvict(k, h, w)
}

// Query returns the counter value, its maximum overestimation error, and
// whether k is currently monitored.
func (s *Summary[K]) Query(k K) (count, err uint64, ok bool) {
	c := s.lookup(k, s.hash(k))
	if c == nilIdx {
		return 0, 0, false
	}
	return s.buckets[s.hot[c].bkt].count, s.cold[c].err, true
}

// Bounds returns an upper and a lower bound on the true frequency of k:
// (count, count−error) for monitored keys, (MinCount, 0) otherwise.
func (s *Summary[K]) Bounds(k K) (upper, lower uint64) {
	if c := s.lookup(k, s.hash(k)); c != nilIdx {
		count := s.buckets[s.hot[c].bkt].count
		return count, count - s.cold[c].err
	}
	return s.MinCount(), 0
}

// ForEach calls fn for every monitored key with its count and error, in
// descending count order.
func (s *Summary[K]) ForEach(fn func(k K, count, err uint64)) {
	if s.min == nilIdx {
		return
	}
	last := s.min
	for s.buckets[last].next != nilIdx {
		last = s.buckets[last].next
	}
	for b := last; b != nilIdx; b = s.buckets[b].prev {
		for c := s.buckets[b].head; c != nilIdx; c = s.hot[c].next {
			fn(s.hot[c].key, s.buckets[b].count, s.cold[c].err)
		}
	}
}

// Reset clears all state.
func (s *Summary[K]) Reset() {
	s.used = 0
	s.buckets = s.buckets[:0]
	s.min = nilIdx
	s.freeBkt = nilIdx
	s.n = 0
	for i := range s.fps {
		s.fps[i] = 0
	}
	s.stash = s.stash[:0]
}

// attach inserts a brand-new counter with the given count into the bucket
// list (used only while below capacity, so count is small; the target bucket
// is at or near the front).
func (s *Summary[K]) attach(c int32, count uint64) {
	b := s.min
	prev := nilIdx
	for b != nilIdx && s.buckets[b].count < count {
		prev = b
		b = s.buckets[b].next
	}
	if b == nilIdx || s.buckets[b].count != count {
		b = s.newBucket(count, prev, b)
	}
	s.pushCounter(b, c)
}

// bump moves counter c's key (currently in some bucket) to count newCount,
// creating/removing buckets as needed. newCount must exceed c's count. The
// key may settle in a different slab slot (see detach).
func (s *Summary[K]) bump(c int32, newCount uint64) {
	old := s.hot[c].bkt
	// Fast path: c is its bucket's only counter and the next bucket (if
	// any) still exceeds newCount — the bucket's count moves in place, with
	// no list surgery at all. The common case for the skewed head of the
	// distribution, where counts are unique.
	if s.buckets[old].head == c && s.hot[c].next == nilIdx {
		next := s.buckets[old].next
		if next == nilIdx || s.buckets[next].count > newCount {
			s.buckets[old].count = newCount
			return
		}
	}
	carrier := s.detach(c)
	// Walk forward to the insertion point. For unit increments this is at
	// most one step, preserving O(1).
	b := old
	prev := nilIdx
	for b != nilIdx && s.buckets[b].count < newCount {
		prev = b
		b = s.buckets[b].next
	}
	if b == nilIdx || s.buckets[b].count != newCount {
		b = s.newBucket(newCount, prev, b)
	}
	s.pushCounter(b, carrier)
	if s.buckets[old].head == nilIdx {
		s.removeBucket(old)
	}
}

// pushCounter puts c at the head of bucket b. No sibling is touched.
func (s *Summary[K]) pushCounter(b, c int32) {
	s.hot[c].bkt = b
	s.hot[c].next = s.buckets[b].head
	s.buckets[b].head = c
}

// detach removes counter c's key from its bucket (without removing an
// emptied bucket; callers handle that so bump can reuse the position) and
// returns the slab slot now carrying that key. When c heads its bucket —
// always true for evictions — this is a pointer pop touching only c's hot
// entry. A mid-list c instead swaps contents with the bucket head: the
// head's key settles into c's list position and the freed head slot carries
// the detached key onward; the index entries of both keys are re-pointed
// (the one fast-path case that pays for the cold lines).
func (s *Summary[K]) detach(c int32) int32 {
	b := s.hot[c].bkt
	h := s.buckets[b].head
	if h == c {
		s.buckets[b].head = s.hot[c].next
		return c
	}
	ck, cerr, cpos := s.hot[c].key, s.cold[c].err, s.cold[c].tabPos
	s.hot[c].key = s.hot[h].key
	s.cold[c].err = s.cold[h].err
	s.cold[c].tabPos = s.cold[h].tabPos
	s.setRef(s.cold[c].tabPos, h, c)
	s.buckets[b].head = s.hot[h].next
	s.hot[h].key = ck
	s.cold[h].err = cerr
	s.cold[h].tabPos = cpos
	s.setRef(cpos, c, h)
	return h
}

// setRef re-points the index entry at pos from oldSlot to newSlot.
func (s *Summary[K]) setRef(pos uint32, oldSlot, newSlot int32) {
	if pos == stashPos {
		for i, v := range s.stash {
			if v == oldSlot {
				s.stash[i] = newSlot
				return
			}
		}
		return
	}
	s.refs[pos] = newSlot
}

// newBucket inserts a bucket with the given count between prev and next,
// recycling a freed slab entry when one exists.
func (s *Summary[K]) newBucket(count uint64, prev, next int32) int32 {
	b := s.freeBkt
	if b != nilIdx {
		s.freeBkt = s.buckets[b].next
	} else {
		s.buckets = append(s.buckets, bucket{})
		b = int32(len(s.buckets) - 1)
	}
	s.buckets[b] = bucket{count: count, head: nilIdx, prev: prev, next: next}
	if prev != nilIdx {
		s.buckets[prev].next = b
	} else {
		s.min = b
	}
	if next != nilIdx {
		s.buckets[next].prev = b
	}
	return b
}

// removeBucket unlinks an empty bucket and recycles it.
func (s *Summary[K]) removeBucket(b int32) {
	prev, next := s.buckets[b].prev, s.buckets[b].next
	if prev != nilIdx {
		s.buckets[prev].next = next
	} else {
		s.min = next
	}
	if next != nilIdx {
		s.buckets[next].prev = prev
	}
	s.buckets[b].prev = nilIdx
	s.buckets[b].next = s.freeBkt
	s.freeBkt = b
}
