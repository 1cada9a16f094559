package chk

import (
	"math/rand"
	"testing"

	"rhhh/internal/spacesaving"
)

// refOrder is the insertion sort ForEach used before the radix sort, kept
// as the differential reference: occupied slot ids ascending, then the
// stash, sorted by descending count with ascending id on ties.
func refOrder[K comparable](s *Sketch[K]) []int32 {
	var perm []int32
	for i, c := range s.counts {
		if c != 0 {
			perm = append(perm, int32(i))
		}
	}
	for i := range s.stash {
		perm = append(perm, int32(len(s.counts)+i))
	}
	for i := 1; i < len(perm); i++ {
		id := perm[i]
		c := s.countOf(id)
		j := i - 1
		for j >= 0 {
			cj := s.countOf(perm[j])
			if cj > c || (cj == c && perm[j] < id) {
				break
			}
			perm[j+1] = perm[j]
			j--
		}
		perm[j+1] = id
	}
	return perm
}

// orderSketch builds one seeded sketch for the order differential:
// capacity in 1–2000, Zipf keys, a mix of unit updates (heavy ties at small
// counts), weighted updates whose counts spread past 2³², and, on every
// third seed, a restore of a full-capacity snapshot first, whose cuckoo
// walks overflow into the stash.
func orderSketch(seed int64) *Sketch[uint64] {
	r := rand.New(rand.NewSource(seed))
	capacity := 1 + r.Intn(2000)
	switch seed {
	case 0:
		capacity = 1
	case 1:
		capacity = 2000
	}
	s := New[uint64](capacity, uint64(seed))
	if seed%3 == 2 {
		sn := &spacesaving.Snapshot[uint64]{Cap: s.Capacity(), Min: uint64(r.Intn(2))}
		for i := range s.Capacity() {
			c := 1 + uint64(r.Intn(4)) // ties
			if r.Intn(4) == 0 {
				c = r.Uint64() >> uint(r.Intn(40))
			}
			sn.Keys = append(sn.Keys, uint64(i)<<20|uint64(r.Intn(1<<20)))
			sn.Upper = append(sn.Upper, c)
			sn.Lower = append(sn.Lower, c)
			sn.N += c
		}
		if err := s.LoadSnapshot(sn); err != nil {
			panic(err)
		}
	}
	zipf := rand.NewZipf(r, 1.05+r.Float64(), 1, uint64(4*capacity+16))
	updates := r.Intn(20 * capacity)
	if seed == 3 {
		updates = 0 // empty sketch
	}
	for range updates {
		k := zipf.Uint64()
		switch r.Intn(8) {
		case 0:
			s.IncrementBy(k, uint64(1)<<(20+r.Intn(16))+uint64(r.Intn(1000)))
		case 1:
			s.IncrementBy(k, 1+uint64(r.Intn(50)))
		default:
			s.Increment(k)
		}
	}
	if len(s.stash) != 0 {
		// Stash entries take hits too.
		s.IncrementBy(s.stash[0].key, 1<<33)
	}
	return s
}

// TestOrderMatchesInsertionSort compares ForEach's order and SnapshotInto's
// arrays and metadata with the insertion-sort reference on 120 seeded
// sketches, reusing one snapshot across them so its arrays shrink and grow.
func TestOrderMatchesInsertionSort(t *testing.T) {
	var dst spacesaving.Snapshot[uint64]
	stashed, wide := 0, 0
	for seed := range int64(120) {
		s := orderSketch(seed)
		want := refOrder(s)
		if len(s.stash) != 0 {
			stashed++
		}
		var hi, lo uint64 = 0, ^uint64(0)
		for _, id := range want {
			hi, lo = max(hi, s.countOf(id)), min(lo, s.countOf(id))
		}
		if len(want) > 0 && hi-lo >= 1<<32 {
			wide++
		}
		i := 0
		s.ForEach(func(k uint64, count uint64) {
			id := want[i]
			if wk, wc := s.keyOf(id), s.countOf(id); k != wk || count != wc {
				t.Fatalf("seed %d: ForEach entry %d = (%d, %d), reference (%d, %d)", seed, i, k, count, wk, wc)
			}
			i++
		})
		if i != len(want) {
			t.Fatalf("seed %d: ForEach visited %d keys, reference %d", seed, i, len(want))
		}
		s.SnapshotInto(&dst)
		if dst.Len() != len(want) {
			t.Fatalf("seed %d: snapshot has %d keys, reference %d", seed, dst.Len(), len(want))
		}
		for i, id := range want {
			c := s.countOf(id)
			if dst.Keys[i] != s.keyOf(id) || dst.Upper[i] != c || dst.Lower[i] != c {
				t.Fatalf("seed %d: snapshot entry %d = (%d, %d, %d), reference (%d, %d, %d)",
					seed, i, dst.Keys[i], dst.Upper[i], dst.Lower[i], s.keyOf(id), c, c)
			}
		}
		if dst.N != s.N() || dst.Min != s.MinCount() || dst.Cap != s.Capacity() {
			t.Fatalf("seed %d: snapshot (N, Min, Cap) = (%d, %d, %d), reference (%d, %d, %d)",
				seed, dst.N, dst.Min, dst.Cap, s.N(), s.MinCount(), s.Capacity())
		}
	}
	if stashed == 0 || wide == 0 {
		t.Fatalf("differential lacks coverage: %d sketches with a stash, %d with counts spread past 2^32", stashed, wide)
	}
}

// keyOf resolves a perm id to its key.
func (s *Sketch[K]) keyOf(id int32) K {
	if int(id) < len(s.counts) {
		return s.keys[id]
	}
	return s.stash[int(id)-len(s.counts)].key
}

// TestSnapshotIntoWarmZeroAlloc pins a warm capture, and a ForEach with a
// non-capturing callback, at zero allocations.
func TestSnapshotIntoWarmZeroAlloc(t *testing.T) {
	s := orderSketch(5)
	var dst spacesaving.Snapshot[uint64]
	s.SnapshotInto(&dst)
	if a := testing.AllocsPerRun(50, func() { s.SnapshotInto(&dst) }); a != 0 {
		t.Fatalf("warm SnapshotInto allocates %.2f times", a)
	}
	if a := testing.AllocsPerRun(50, func() { s.ForEach(func(uint64, uint64) {}) }); a != 0 {
		t.Fatalf("warm ForEach allocates %.2f times", a)
	}
}
