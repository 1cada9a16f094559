// Package chk implements Cuckoo-Heavy-Keeper-style counters (after
// "Cuckoo Heavy Keeper", arXiv 2412.12873): a 4-way bucketized cuckoo table
// whose slots hold the key, its hash and its count directly — no bucket
// list, no counter chains. A monitored key's update is a hash, at most two
// bucket probes and one add; an unmonitored key competes for a slot by
// exponential decay — with probability b^−count the current minimum slot in
// its two candidate buckets loses one unit, and a slot decayed to zero is
// taken over by the new key.
//
// Compared to the Space Saving Stream-Summary (internal/spacesaving), which
// this package mirrors as an engine backend, CHK eliminates the eviction
// path's bucket-list surgery entirely: the miss path is the same two bucket
// probes plus one RNG draw. The price is the guarantee — Space Saving's
// counts are deterministic over-estimates (Definition 4 of the RHHH paper);
// CHK's counts are probabilistic under-estimates that concentrate on the
// true frequency for heavy keys. Accuracy is established empirically against
// internal/exact (see chk_test.go) rather than by a worst-case bound.
//
// Determinism: a sketch is seeded, and for the integer lattice carriers
// (uint32, uint64) equal seeds and equal update sequences give bit-identical
// state. Other key types hash through hash/maphash, whose process-random
// seed makes slot placement (and hence decay competition) vary across runs.
package chk

import (
	"hash/maphash"
	"math"
	"math/bits"

	"rhhh/internal/fastrand"
)

// DecayBase is the exponential-decay base b: an unmonitored key decays the
// minimum candidate slot with probability b^−count. The CHK paper's
// recommended setting balances takeover speed for emerging heavies against
// protection of established ones.
const DecayBase = 1.08

// slotsPerBucket is the set-associativity of the cuckoo table.
const slotsPerBucket = 4

// decayTabLen bounds the precomputed decay tables: past this count,
// b^−count is below ~2⁻⁶⁴ and a decay success cannot be represented in one
// uniform draw — the slot is effectively frozen and the draw is skipped.
var decayTabLen = func() int {
	n := 1
	for math.Pow(DecayBase, -float64(n))*math.Exp2(64) >= 1 && n < 4096 {
		n++
	}
	return n + 1
}()

// decayThresh[c] is ⌊b^−c · 2⁶⁴⌋: a unit-weight decay trial against a count
// of c succeeds when a uniform 64-bit draw falls below it.
var decayThresh = func() []uint64 {
	t := make([]uint64, decayTabLen)
	t[0] = ^uint64(0)
	for c := 1; c < len(t); c++ {
		t[c] = uint64(math.Pow(DecayBase, -float64(c)) * math.Exp2(64))
	}
	return t
}()

// decayInvLogQ[c] is fastrand.GeometricInvLogQ(b^−c), for the weighted miss
// path: the number of unit trials consumed until the first decay success is
// geometric, so a weight-w miss skips ahead instead of looping w times.
var decayInvLogQ = func() []float64 {
	t := make([]float64, decayTabLen)
	for c := 1; c < len(t); c++ {
		t[c] = fastrand.GeometricInvLogQ(math.Pow(DecayBase, -float64(c)))
	}
	return t
}()

// stashEntry is an overflow counter placed by LoadSnapshot when cuckoo
// displacement cannot home a restored key. Stash entries are monitored
// (lookups and updates find them) but never decay and never evict.
type stashEntry[K comparable] struct {
	key   K
	hash  uint32
	count uint64
}

// Sketch is one CHK instance: a seeded 4-way cuckoo table of
// (key, hash, count) slots. The zero value is not usable; call New. Not
// safe for concurrent use.
type Sketch[K comparable] struct {
	// Slot-major SoA arrays, one entry per slot (bucket i owns slots
	// [4i, 4i+4)). A zero count marks a free slot; hs caches the key hash
	// for cheap compares and relocation.
	counts []uint64
	hs     []uint32
	keys   []K

	bktMask  uint32
	used     int
	n        uint64
	seed     uint64
	hash     func(K) uint32
	rng      fastrand.Source
	stash    []stashEntry[K]
	perm     []int32 // capture scratch: monitored ids in ForEach order
	tmp      []int32 // capture scratch: the radix sort's other buffer
	displace bool    // some key has been decayed out or taken over

	// Lifetime decay-competition counters (they survive Reset so published
	// telemetry stays monotone). Owned by the updating goroutine; readers
	// go through the publication path.
	decays    uint64 // successful decay decrements
	takeovers uint64 // slots decayed to zero and taken over
}

// seededHashFor builds the key-hash function for seed: integer carriers get
// a seeded splitmix64 finalizer (deterministic across runs), anything else
// falls back to hash/maphash with its process-random seed.
func seededHashFor[K comparable](seed uint64) func(k K) uint32 {
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

// fpOf derives a non-zero fingerprint byte from a key hash (spacesaving's
// convention), keying the alt-bucket displacement.
func fpOf(h uint32) uint32 { return (h >> 24) | 1 }

// altBucket is the involutive second candidate bucket for a fingerprint.
func altBucket(b, fp, mask uint32) uint32 { return (b ^ (fp * 0x5bd1)) & mask }

// New returns a sketch with at least capacity counters, rounded up to the
// table's 4-way power-of-two geometry (Capacity reports the rounded size).
// Equal seeds give identical placement and decay decisions for integer key
// types. capacity must be at least 1.
func New[K comparable](capacity int, seed uint64) *Sketch[K] {
	if capacity < 1 {
		panic("chk: capacity must be >= 1")
	}
	nBkt := uint32(2) // ≥ 2 buckets so the two candidates can differ
	for int(nBkt)*slotsPerBucket < capacity {
		nBkt <<= 1
	}
	slots := int(nBkt) * slotsPerBucket
	s := &Sketch[K]{
		counts:  make([]uint64, slots),
		hs:      make([]uint32, slots),
		keys:    make([]K, slots),
		bktMask: nBkt - 1,
		seed:    seed,
		hash:    seededHashFor[K](seed),
	}
	s.rng.Seed(seed ^ 0xc8c3_9f4b_9b1d_5b2d)
	return s
}

// Capacity returns the number of counter slots (the requested capacity
// rounded up to the table geometry).
func (s *Sketch[K]) Capacity() int { return len(s.counts) }

// N returns the total stream weight processed so far.
func (s *Sketch[K]) N() uint64 { return s.n }

// Len returns the number of monitored keys.
func (s *Sketch[K]) Len() int { return s.used + len(s.stash) }

// Decays returns the lifetime count of successful decay decrements.
func (s *Sketch[K]) Decays() uint64 { return s.decays }

// Takeovers returns the lifetime count of decayed-to-zero slot takeovers.
func (s *Sketch[K]) Takeovers() uint64 { return s.takeovers }

// StashLen returns the number of overflow counters parked in the stash.
func (s *Sketch[K]) StashLen() int { return len(s.stash) }

// MinCount bounds (heuristically) the count of an unmonitored key: zero
// while every key ever seen is still monitored — then the bound is exact —
// and the minimum monitored count once decay has displaced anything. Unlike
// Space Saving's MinCount this is not a guaranteed upper bound on missed
// frequency; it is the analogous quantity used for snapshot merging.
func (s *Sketch[K]) MinCount() uint64 {
	if !s.displace || s.Len() == 0 {
		return 0
	}
	min := ^uint64(0)
	for _, c := range s.counts {
		if c != 0 && c < min {
			min = c
		}
	}
	for i := range s.stash {
		if c := s.stash[i].count; c < min {
			min = c
		}
	}
	return min
}

// Increment records one update of key k.
func (s *Sketch[K]) Increment(k K) { s.IncrementBy(k, 1) }

// IncrementBy records a weighted update of key k. A monitored key's count
// grows by w; an unmonitored key runs decay trials against the minimum
// candidate slot as if w unit updates arrived (the trial count until the
// first success is sampled geometrically, so the cost is O(successes), not
// O(w)).
func (s *Sketch[K]) IncrementBy(k K, w uint64) {
	s.n += w
	if w == 0 {
		return
	}
	h := s.hash(k)
	b1 := h & s.bktMask
	b2 := altBucket(b1, fpOf(h), s.bktMask)
	i1 := int(b1) * slotsPerBucket
	i2 := int(b2) * slotsPerBucket
	// Hit path: compare the cached hashes, confirm on the key.
	for i := i1; i < i1+slotsPerBucket; i++ {
		if s.hs[i] == h && s.counts[i] != 0 && s.keys[i] == k {
			s.counts[i] += w
			return
		}
	}
	for i := i2; i < i2+slotsPerBucket; i++ {
		if s.hs[i] == h && s.counts[i] != 0 && s.keys[i] == k {
			s.counts[i] += w
			return
		}
	}
	if len(s.stash) != 0 {
		for i := range s.stash {
			if s.stash[i].hash == h && s.stash[i].key == k {
				s.stash[i].count += w
				return
			}
		}
	}
	// Free slot in either candidate bucket: admit directly.
	for i := i1; i < i1+slotsPerBucket; i++ {
		if s.counts[i] == 0 {
			s.place(i, k, h, w)
			return
		}
	}
	for i := i2; i < i2+slotsPerBucket; i++ {
		if s.counts[i] == 0 {
			s.place(i, k, h, w)
			return
		}
	}
	s.decay(i1, i2, k, h, w)
}

// place admits k into free slot i with count w.
func (s *Sketch[K]) place(i int, k K, h uint32, w uint64) {
	s.keys[i] = k
	s.hs[i] = h
	s.counts[i] = w
	s.used++
}

// decay runs the exponential-decay competition for an unmonitored key whose
// candidate buckets are full: each unit of weight decays the current
// minimum slot with probability b^−count, and the unit that zeroes a slot
// installs the new key there with count 1; leftover weight then accrues to
// the freshly monitored key.
func (s *Sketch[K]) decay(i1, i2 int, k K, h uint32, w uint64) {
	remaining := w
	for remaining > 0 {
		// Minimum slot over both candidate buckets, lowest index on ties.
		vi := i1
		vc := s.counts[i1]
		for i := i1 + 1; i < i1+slotsPerBucket; i++ {
			if s.counts[i] < vc {
				vi, vc = i, s.counts[i]
			}
		}
		for i := i2; i < i2+slotsPerBucket; i++ {
			if s.counts[i] < vc {
				vi, vc = i, s.counts[i]
			}
		}
		if vc >= uint64(decayTabLen) {
			// b^−count < 2⁻⁶⁴: a success cannot be drawn.
			return
		}
		c := int(vc)
		if remaining == 1 {
			if s.rng.Uint64() >= decayThresh[c] {
				return
			}
			remaining = 0
		} else {
			// Units consumed until the first decay success is 1+Geometric.
			trials := 1 + s.rng.Geometric(decayInvLogQ[c])
			if trials > remaining {
				return
			}
			remaining -= trials
		}
		s.counts[vi]--
		s.decays++
		s.displace = true
		if s.counts[vi] == 0 {
			s.takeovers++
			// The successful unit both decrements and takes the slot over;
			// the remaining weight lands on the now-monitored key.
			s.keys[vi] = k
			s.hs[vi] = h
			s.counts[vi] = 1 + remaining
			return
		}
	}
}

// Bounds returns (upper, lower) frequency estimates for k: the slot count
// twice for monitored keys — CHK keeps one point estimate, a probabilistic
// under-estimate — and (MinCount, 0) for unmonitored ones.
func (s *Sketch[K]) Bounds(k K) (upper, lower uint64) {
	h := s.hash(k)
	b1 := h & s.bktMask
	b2 := altBucket(b1, fpOf(h), s.bktMask)
	for _, b := range [2]uint32{b1, b2} {
		i0 := int(b) * slotsPerBucket
		for i := i0; i < i0+slotsPerBucket; i++ {
			if s.hs[i] == h && s.counts[i] != 0 && s.keys[i] == k {
				return s.counts[i], s.counts[i]
			}
		}
	}
	for i := range s.stash {
		if s.stash[i].hash == h && s.stash[i].key == k {
			return s.stash[i].count, s.stash[i].count
		}
	}
	return s.MinCount(), 0
}

// ForEach visits every monitored key in descending count order, ties by
// ascending slot position with the stash last — the same deterministic
// order spacesaving.Summary.ForEach uses — with count as both bounds
// (err = 0).
func (s *Sketch[K]) ForEach(fn func(k K, count uint64)) {
	perm, _ := s.order()
	for _, id := range perm {
		if int(id) < len(s.counts) {
			fn(s.keys[id], s.counts[id])
		} else {
			e := &s.stash[int(id)-len(s.counts)]
			fn(e.key, e.count)
		}
	}
}

// countOf resolves a perm id (slot index, or stash index offset by the slot
// count) to its count.
func (s *Sketch[K]) countOf(id int32) uint64 {
	if int(id) < len(s.counts) {
		return s.counts[id]
	}
	return s.stash[int(id)-len(s.counts)].count
}

// order returns the monitored ids in ForEach order, and the smallest
// monitored count (0 when nothing is monitored). Ids go in in ascending
// slot order with the stash after, and a stable LSD radix sort, 8 bits a
// pass, on each count's distance below the largest orders them by
// descending count with ties in that input order. It runs only the passes
// the spread of the counts needs, and reuses the sketch's scratch.
func (s *Sketch[K]) order() (perm []int32, lo uint64) {
	total := s.Len()
	if cap(s.perm) < total {
		s.perm = make([]int32, total)
		s.tmp = make([]int32, total)
	}
	perm, tmp := s.perm[:total], s.tmp[:total]
	if total == 0 {
		return perm, 0
	}
	hi, lo := uint64(0), ^uint64(0)
	j := 0
	for i, c := range s.counts {
		if c != 0 {
			perm[j] = int32(i)
			j++
			hi, lo = max(hi, c), min(lo, c)
		}
	}
	for i := range s.stash {
		perm[j] = int32(len(s.counts) + i)
		j++
		c := s.stash[i].count
		hi, lo = max(hi, c), min(lo, c)
	}
	for shift := 0; shift < bits.Len64(hi-lo); shift += 8 {
		var count [256]int32
		for _, id := range perm {
			count[byte((hi-s.countOf(id))>>shift)]++
		}
		sum := int32(0)
		for d, c := range count {
			count[d] = sum
			sum += c
		}
		for _, id := range perm {
			d := byte((hi - s.countOf(id)) >> shift)
			tmp[count[d]] = id
			count[d]++
		}
		perm, tmp = tmp, perm
	}
	return perm, lo
}

// Reset clears all counters and the stream weight, keeping the seed and the
// current RNG position (use Reseed for bit-identical reruns, mirroring the
// engine's Reset/Reseed contract).
func (s *Sketch[K]) Reset() {
	clear(s.counts)
	s.used = 0
	s.n = 0
	s.stash = s.stash[:0]
	s.displace = false
}

// Reseed restarts the decay RNG from seed, so Reset followed by Reseed
// reproduces a freshly constructed sketch bit for bit (integer key types).
func (s *Sketch[K]) Reseed(seed uint64) {
	s.rng.Seed(seed ^ 0xc8c3_9f4b_9b1d_5b2d)
}
