package chk

import (
	"fmt"
	"slices"

	"rhhh/internal/spacesaving"
)

// SnapshotInto copies the sketch's state into dst — a spacesaving.Snapshot,
// the read path's common currency, so merging, serialization, deltas and
// the query extractor all work on CHK state unchanged. Entries appear in
// ForEach order (descending count); Upper == Lower for every entry since
// CHK keeps point estimates. The copy writes by index into dst's arrays,
// grown to Len() and reused, so a warm capture allocates nothing; a nil dst
// allocates.
func (s *Sketch[K]) SnapshotInto(dst *spacesaving.Snapshot[K]) *spacesaving.Snapshot[K] {
	if dst == nil {
		dst = &spacesaving.Snapshot[K]{}
	}
	perm, lo := s.order()
	n := len(perm)
	dst.Keys = slices.Grow(dst.Keys[:0], n)[:n]
	dst.Upper = slices.Grow(dst.Upper[:0], n)[:n]
	dst.Lower = slices.Grow(dst.Lower[:0], n)[:n]
	keys, upper, lower := dst.Keys, dst.Upper, dst.Lower
	for i, id := range perm {
		var c uint64
		if int(id) < len(s.counts) {
			keys[i], c = s.keys[id], s.counts[id]
		} else {
			e := &s.stash[int(id)-len(s.counts)]
			keys[i], c = e.key, e.count
		}
		upper[i], lower[i] = c, c
	}
	dst.N = s.n
	dst.Min = 0
	if s.displace {
		dst.Min = lo // MinCount, from the pass that gathered the ids
	}
	dst.Cap = s.Capacity()
	dst.Stamp()
	return dst
}

// Snapshot returns a freshly allocated snapshot of the sketch.
func (s *Sketch[K]) Snapshot() *spacesaving.Snapshot[K] { return s.SnapshotInto(nil) }

// maxKicks bounds the cuckoo displacement walk when restoring a snapshot.
const maxKicks = 256

// LoadSnapshot rebuilds the sketch from a snapshot (counts are the
// snapshot's upper bounds — restoring a merged snapshot collapses its
// bounds to the conservative side). Keys are homed by cuckoo displacement;
// the rare key that cannot be placed after maxKicks relocations lands in
// the stash, where it stays monitored but exempt from decay. Unlike the
// update path this must place an externally chosen key set, which is what
// the displacement walk exists for. Errors when the snapshot holds more
// keys than the table has slots; the sketch is unchanged on error.
func (s *Sketch[K]) LoadSnapshot(sn *spacesaving.Snapshot[K]) error {
	if sn.Len() > s.Capacity() {
		return fmt.Errorf("chk: snapshot has %d keys, sketch capacity %d", sn.Len(), s.Capacity())
	}
	s.Reset()
	s.n = sn.N
	// A non-zero Min means the source had displaced keys; keep reporting a
	// non-zero bound for unmonitored keys after the restore.
	s.displace = sn.Min > 0
	for i, k := range sn.Keys {
		if sn.Upper[i] == 0 {
			continue // a zero count is the free-slot marker; the key is gone
		}
		s.insertPlaced(k, sn.Upper[i])
	}
	return nil
}

// insertPlaced homes (k, count) via cuckoo displacement, stashing on
// failure. Used only by LoadSnapshot: keys are distinct (snapshot decode
// validates) so no hit check is needed.
func (s *Sketch[K]) insertPlaced(k K, count uint64) {
	h := s.hash(k)
	b := h & s.bktMask
	for kick := 0; kick < maxKicks; kick++ {
		i0 := int(b) * slotsPerBucket
		for i := i0; i < i0+slotsPerBucket; i++ {
			if s.counts[i] == 0 {
				s.place(i, k, h, count)
				return
			}
		}
		alt := altBucket(b, fpOf(h), s.bktMask)
		i0 = int(alt) * slotsPerBucket
		for i := i0; i < i0+slotsPerBucket; i++ {
			if s.counts[i] == 0 {
				s.place(i, k, h, count)
				return
			}
		}
		// Both buckets full: evict the slot the kick counter points at in
		// the alt bucket and relocate its occupant to its own alternate.
		vi := i0 + kick%slotsPerBucket
		k, s.keys[vi] = s.keys[vi], k
		h, s.hs[vi] = s.hs[vi], h
		count, s.counts[vi] = s.counts[vi], count
		b = altBucket(alt, fpOf(h), s.bktMask)
	}
	s.stash = append(s.stash, stashEntry[K]{key: k, hash: h, count: count})
}
