package spacesaving

// Test-only reference implementation: the pre-split AoS counter slab with a
// map index, frozen before the SoA/two-phase rewrite. refSummary replicates
// every observable-order-affecting mechanism of Summary — shared-count
// buckets, head eviction, the detach swap-with-head — so its ForEach order
// (and hence snapshots) must be bit-identical to the production slab for any
// update sequence. incrementBatchRef is the pre-split batch semantics: one
// sequential Increment per key. The differential tests drive both through
// random and adversarial schedules and compare full state; applyBatch feeds
// the production side through the engine's batch kernel.

import (
	"math/rand/v2"
	"testing"
)

// refCounter is the old AoS layout: every per-counter field on one struct.
type refCounter[K comparable] struct {
	key  K
	err  uint64
	bkt  int32
	next int32
}

type refSummary[K comparable] struct {
	capacity int
	slots    []refCounter[K]
	used     int
	buckets  []bucket
	min      int32
	freeBkt  int32
	n        uint64
	idx      map[K]int32
}

func newRefSummary[K comparable](capacity int) *refSummary[K] {
	return &refSummary[K]{
		capacity: capacity,
		slots:    make([]refCounter[K], capacity),
		min:      nilIdx,
		freeBkt:  nilIdx,
		idx:      make(map[K]int32, capacity),
	}
}

func (s *refSummary[K]) Increment(k K) { s.IncrementBy(k, 1) }

func (s *refSummary[K]) IncrementBy(k K, w uint64) {
	if w == 0 {
		return
	}
	s.n += w
	if c, ok := s.idx[k]; ok {
		s.bump(c, s.buckets[s.slots[c].bkt].count+w)
		return
	}
	if s.used < s.capacity {
		c := int32(s.used)
		s.used++
		s.slots[c].key = k
		s.slots[c].err = 0
		s.idx[k] = c
		s.attach(c, w)
		return
	}
	c := s.buckets[s.min].head
	minCount := s.buckets[s.min].count
	delete(s.idx, s.slots[c].key)
	s.slots[c].key = k
	s.slots[c].err = minCount
	s.idx[k] = c
	s.bump(c, minCount+w)
}

// incrementBatchRef is the pre-split batched update: strictly sequential
// per-key increments, the semantics the batch kernel must preserve.
func incrementBatchRef[K comparable](s *refSummary[K], keys []K) {
	for _, k := range keys {
		s.Increment(k)
	}
}

// incrementBatchWeightedRef is incrementBatchRef with per-key weights.
func incrementBatchWeightedRef[K comparable](s *refSummary[K], keys []K, ws []uint64) {
	for i, k := range keys {
		s.IncrementBy(k, ws[i])
	}
}

// applyBatch feeds keys (weighted by ws, or unit weights when ws is nil)
// through the production batch kernel the way the engine drives one node:
// ResolveAcross over a one-summary slice, then ApplyPlanned or
// ApplyWeightedPlanned, in BatchChunk windows.
func applyBatch[K comparable](s *Summary[K], keys []K, ws []uint64) {
	sums := []*Summary[K]{s}
	var nodes, slots [BatchChunk]int32
	var hashes [BatchChunk]uint32
	for off := 0; off < len(keys); off += BatchChunk {
		end := min(off+BatchChunk, len(keys))
		n := end - off
		ResolveAcross(sums, nodes[:n], keys[off:end], slots[:n], hashes[:n])
		if ws == nil {
			s.ApplyPlanned(keys[off:end], slots[:n], hashes[:n])
		} else {
			s.ApplyWeightedPlanned(keys[off:end], ws[off:end], slots[:n], hashes[:n])
		}
	}
}

func (s *refSummary[K]) attach(c int32, count uint64) {
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

func (s *refSummary[K]) bump(c int32, newCount uint64) {
	old := s.slots[c].bkt
	carrier := s.detach(c)
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

func (s *refSummary[K]) pushCounter(b, c int32) {
	s.slots[c].bkt = b
	s.slots[c].next = s.buckets[b].head
	s.buckets[b].head = c
}

// detach replicates the production swap-with-head exactly: a mid-list
// counter exchanges contents with its bucket head, so the sibling order
// (and therefore ForEach order) evolves identically.
func (s *refSummary[K]) detach(c int32) int32 {
	b := s.slots[c].bkt
	h := s.buckets[b].head
	if h == c {
		s.buckets[b].head = s.slots[c].next
		return c
	}
	ck, cerr := s.slots[c].key, s.slots[c].err
	s.slots[c].key = s.slots[h].key
	s.slots[c].err = s.slots[h].err
	s.idx[s.slots[c].key] = c
	s.buckets[b].head = s.slots[h].next
	s.slots[h].key = ck
	s.slots[h].err = cerr
	s.idx[ck] = h
	return h
}

func (s *refSummary[K]) newBucket(count uint64, prev, next int32) int32 {
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

func (s *refSummary[K]) removeBucket(b int32) {
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

func (s *refSummary[K]) MinCount() uint64 {
	if s.used < s.capacity || s.min == nilIdx {
		return 0
	}
	return s.buckets[s.min].count
}

func (s *refSummary[K]) ForEach(fn func(k K, count, err uint64)) {
	if s.min == nilIdx {
		return
	}
	last := s.min
	for s.buckets[last].next != nilIdx {
		last = s.buckets[last].next
	}
	for b := last; b != nilIdx; b = s.buckets[b].prev {
		for c := s.buckets[b].head; c != nilIdx; c = s.slots[c].next {
			fn(s.slots[c].key, s.buckets[b].count, s.slots[c].err)
		}
	}
}

// entry is one observed (key, count, err) triple in ForEach order.
type entry struct {
	key        uint64
	count, err uint64
}

func stateOf(fe func(func(uint64, uint64, uint64))) []entry {
	var out []entry
	fe(func(k, c, e uint64) { out = append(out, entry{k, c, e}) })
	return out
}

// mustMatchRef compares the production summary against the reference in
// full: N, Len, MinCount and the exact ForEach sequence. It also walks the
// bucket chain from min, which ForEach cannot check: no bucket may be empty
// and counts must strictly ascend.
func mustMatchRef(t *testing.T, tag string, s *Summary[uint64], ref *refSummary[uint64]) {
	t.Helper()
	var last uint64
	seen := 0
	for b := s.min; b != nilIdx; b = s.buckets[b].next {
		if s.buckets[b].head == nilIdx {
			t.Fatalf("%s: empty bucket (count %d) in the chain", tag, s.buckets[b].count)
		}
		if seen > 0 && s.buckets[b].count <= last {
			t.Fatalf("%s: bucket counts not ascending: %d after %d", tag, s.buckets[b].count, last)
		}
		last = s.buckets[b].count
		seen++
	}
	if s.N() != ref.n {
		t.Fatalf("%s: N %d vs ref %d", tag, s.N(), ref.n)
	}
	if s.Len() != ref.used {
		t.Fatalf("%s: Len %d vs ref %d", tag, s.Len(), ref.used)
	}
	if s.MinCount() != ref.MinCount() {
		t.Fatalf("%s: MinCount %d vs ref %d", tag, s.MinCount(), ref.MinCount())
	}
	got := stateOf(s.ForEach)
	want := stateOf(ref.ForEach)
	if len(got) != len(want) {
		t.Fatalf("%s: %d monitored keys vs ref %d", tag, len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("%s: entry %d: %+v vs ref %+v", tag, i, got[i], want[i])
		}
	}
}

// chunkSizes are the batch lengths the kernel's chunking must survive:
// below, at, and just past BatchChunk, plus a multi-chunk sweep.
var chunkSizes = []int{1, 63, 64, 65, 4096}

// TestIncrementBatchMatchesAoSReference drives identical random streams
// through the two-phase SoA batch kernel and the pre-split AoS reference at
// several skews and capacities, comparing full state after every batch.
func TestIncrementBatchMatchesAoSReference(t *testing.T) {
	for _, tc := range []struct {
		name     string
		capacity int
		keyRange uint64
	}{
		{"HeavyChurn", 64, 1 << 12},  // constant eviction
		{"SteadyState", 256, 300},    // mostly monitored-key hits
		{"BelowCapacity", 1024, 200}, // never evicts
		{"CapacityOne", 1, 1 << 8},   // degenerate
		{"SkewedZipf", 128, 1 << 16}, // hit/miss mix with repeats in-chunk
	} {
		t.Run(tc.name, func(t *testing.T) {
			rng := rand.New(rand.NewPCG(7, uint64(tc.capacity)))
			s := New[uint64](tc.capacity)
			ref := newRefSummary[uint64](tc.capacity)
			draw := func() uint64 {
				if tc.name == "SkewedZipf" && rng.IntN(2) == 0 {
					return rng.Uint64N(8) // hot keys, frequent in-chunk repeats
				}
				return rng.Uint64N(tc.keyRange)
			}
			for round := 0; round < 6; round++ {
				for _, n := range chunkSizes {
					keys := make([]uint64, n)
					for i := range keys {
						keys[i] = draw()
					}
					applyBatch(s, keys, nil)
					incrementBatchRef(ref, keys)
					mustMatchRef(t, tc.name, s, ref)
				}
				// Interleave sequential updates between batches.
				for i := 0; i < 50; i++ {
					k := draw()
					s.Increment(k)
					ref.Increment(k)
				}
				mustMatchRef(t, tc.name+"/seq", s, ref)
			}
		})
	}
}

// TestIncrementBatchWeightedMatchesReference: the weighted kernel must be
// bit-identical to sequential IncrementBy, including w == 0 no-ops and
// multi-bucket jumps.
func TestIncrementBatchWeightedMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewPCG(9, 9))
	s := New[uint64](128)
	ref := newRefSummary[uint64](128)
	for round := 0; round < 8; round++ {
		for _, n := range chunkSizes {
			keys := make([]uint64, n)
			ws := make([]uint64, n)
			for i := range keys {
				keys[i] = rng.Uint64N(1 << 10)
				switch rng.IntN(8) {
				case 0:
					ws[i] = 0
				case 1:
					ws[i] = 1 + rng.Uint64N(10_000) // long bucket walks
				default:
					ws[i] = 1 + rng.Uint64N(16)
				}
			}
			applyBatch(s, keys, ws)
			incrementBatchWeightedRef(ref, keys, ws)
			mustMatchRef(t, "weighted", s, ref)
		}
	}
}

// TestResolveApplyStalePlans adversarially forces every plan-invalidation
// path inside one chunk: repeated misses of the same key (miss→hit), bumps
// that detach-swap planned slots, and evictions of planned hits.
func TestResolveApplyStalePlans(t *testing.T) {
	const capacity = 8
	s := New[uint64](capacity)
	ref := newRefSummary[uint64](capacity)
	// Fill to capacity with keys that share buckets (equal counts), so
	// bumps hit the detach swap path constantly.
	seedKeys := make([]uint64, 0, capacity)
	for i := uint64(0); i < capacity; i++ {
		seedKeys = append(seedKeys, i)
	}
	applyBatch(s, seedKeys, nil)
	incrementBatchRef(ref, seedKeys)
	mustMatchRef(t, "seed", s, ref)

	// One chunk containing: a new key twice (second occurrence must see the
	// first's insertion), an existing key whose slot the eviction reuses,
	// and interleaved bumps that shuffle slots via detach swaps.
	chunk := []uint64{100, 100, 3, 101, 3, 101, 100, 5, 102, 102, 5, 0}
	applyBatch(s, chunk, nil)
	incrementBatchRef(ref, chunk)
	mustMatchRef(t, "stale", s, ref)

	// Repeat under churn with every chunk length around the plan boundary.
	rng := rand.New(rand.NewPCG(11, 11))
	for round := 0; round < 40; round++ {
		n := 60 + rng.IntN(10) // straddles BatchChunk
		keys := make([]uint64, n)
		for i := range keys {
			keys[i] = rng.Uint64N(24) // tiny space: constant evict/re-admit
		}
		applyBatch(s, keys, nil)
		incrementBatchRef(ref, keys)
		mustMatchRef(t, "churn", s, ref)
	}
}

// TestResolveIsReadOnly: a ResolveAcross not followed by its applies must
// leave all measurement state untouched (the engine resolves a whole window,
// spanning several nodes, before the first of its applies).
func TestResolveIsReadOnly(t *testing.T) {
	s := New[uint64](32)
	for i := uint64(0); i < 200; i++ {
		s.Increment(i % 40)
	}
	before := stateOf(s.ForEach)
	n, used, min := s.N(), s.Len(), s.MinCount()
	keys := []uint64{1, 2, 3, 999, 1000, 5, 5, 5}
	var nodes, slots [BatchChunk]int32
	var hashes [BatchChunk]uint32
	ResolveAcross([]*Summary[uint64]{s}, nodes[:len(keys)], keys, slots[:len(keys)], hashes[:len(keys)])
	if s.N() != n || s.Len() != used || s.MinCount() != min {
		t.Fatal("ResolveAcross mutated scalar state")
	}
	after := stateOf(s.ForEach)
	for i := range before {
		if before[i] != after[i] {
			t.Fatalf("ResolveAcross mutated entry %d: %+v vs %+v", i, before[i], after[i])
		}
	}
}
