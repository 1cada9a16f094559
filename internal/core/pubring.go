package core

import (
	"sync/atomic"

	"rhhh/internal/spacesaving"
)

// PubSlot is one publication buffer owned by a PubRing: an engine snapshot
// plus the pin count concurrent readers use to keep its buffers alive across
// recycling. A slot's snapshot is immutable from the moment the producer
// publishes it (stores a pointer leading to it in an atomic cell) until the
// ring recycles the slot — which the ring only does once the slot is at
// least two publications stale and unpinned, so no reader that got past the
// pin-verify handshake can still be looking at it.
type PubSlot[K comparable] struct {
	snap EngineSnapshot[K]
	pins atomic.Int64
	// ownerEpoch is the ring publication count when this slot was last
	// filled. Producer-goroutine only; readers never touch it.
	ownerEpoch uint64
}

// Snapshot returns the slot's published engine snapshot. Valid while the
// slot is current, one publication behind, or pinned.
func (s *PubSlot[K]) Snapshot() *EngineSnapshot[K] { return &s.snap }

// Pin marks the slot as in use by a reader, excluding its buffers from
// recycling. The reader handshake is pin-then-verify: load the publication
// cell, Pin the slot it leads to, then re-load the cell — if the published
// epoch has advanced by 2 or more since the first load, Unpin and retry
// without touching the snapshot (the ring may already be rewriting it). A
// reader that observes a lag below 2 after pinning is safe: the ring only
// recycles slots at lag ≥ 2, and the pin of any reader that passed the
// verify is visible to the producer by then (both sides use sequentially
// consistent atomics), so the recycle check sees it.
func (s *PubSlot[K]) Pin() { s.pins.Add(1) }

// Unpin releases a Pin. Call it as soon as the reader is done with the
// snapshot (merged, copied, or verify failed) — a held pin forces the ring
// to allocate fresh buffers instead of recycling.
func (s *PubSlot[K]) Unpin() { s.pins.Add(-1) }

// PubRing publishes engine snapshots for a single producer goroutine while
// recycling the snapshot buffers of publications no reader can still
// observe, so steady-state re-publication allocates nothing. It is the
// allocation-free counterpart of Engine.PublishSnapshot: same immutability
// contract toward readers, same per-node buffer sharing with the previous
// publication, but reclamation is explicit (pin counts + staleness) instead
// of left to the garbage collector.
//
// All PubRing methods are producer-goroutine only; readers interact with
// slots exclusively through Pin/Unpin/Snapshot.
type PubRing[K comparable] struct {
	eng   *Engine[K]
	slots []*PubSlot[K]
	epoch uint64
	prot  []*EngineSnapshot[K] // scratch for the per-publication protected set
}

// NewPubRing builds a publication ring over the engine. Only the snapshot
// backends (Space Saving, CHK) are supported, as with SnapshotInto.
func NewPubRing[K comparable](eng *Engine[K]) *PubRing[K] {
	if eng.ss == nil && eng.chk == nil {
		panic("core: snapshots require the Space Saving or CHK backend")
	}
	return &PubRing[K]{eng: eng}
}

// Slots returns the number of slot buffers the ring has allocated — it
// stabilizes at three once recycling kicks in (current, one behind, and the
// recycle target), plus one per pin held across two publications until that
// spare has gone unused for spareIdle publications (see take).
func (r *PubRing[K]) Slots() int { return len(r.slots) }

// Publish captures the engine's state into a slot and returns it. prev must
// be the slot returned by the previous Publish (nil only on the first call).
// When the engine is unchanged since prev, prev itself is returned and
// nothing is written — the caller keeps its published pointer and epoch.
// Otherwise the returned slot is a different one than prev: unchanged nodes
// alias prev's node buffers (keeping their mutation generations, so
// downstream gen-keyed merge and index caches stay warm), and changed nodes
// are rewritten into buffers no observable snapshot references — the slot's
// own arrays when nothing aliases them, fresh allocations otherwise.
//
// The caller must make the returned slot reachable from its atomic
// publication cell before the next Publish, and bump its published epoch by
// exactly one per publication — the reader pin-verify handshake and the
// ring's lag-≥2 recycle rule both count in those epochs.
func (r *PubRing[K]) Publish(prev *PubSlot[K]) *PubSlot[K] {
	e := r.eng
	var prevSnap *EngineSnapshot[K]
	if prev != nil {
		prevSnap = &prev.snap
	}
	if prevSnap != nil && prevSnap.src == e && prevSnap.srcEpoch == e.epoch &&
		prevSnap.Packets == e.packets && prevSnap.Weight == e.Weight() {
		return prev
	}
	slot := r.take(prev)
	r.epoch++
	prot := r.protected(prev, slot)
	samePrev := prevSnap != nil && prevSnap.src == e && prevSnap.srcEpoch == e.epoch &&
		len(prevSnap.Nodes) == len(e.inst)
	dst := &slot.snap
	if cap(dst.Nodes) < len(e.inst) {
		dst.Nodes = make([]spacesaving.Snapshot[K], len(e.inst))
	}
	dst.Nodes = dst.Nodes[:len(e.inst)]
	for i := range e.inst {
		var n uint64
		var nodeCap int
		if e.ss != nil {
			n, nodeCap = e.ss[i].N(), e.ss[i].Capacity()
		} else {
			n, nodeCap = e.chk[i].N(), e.chk[i].Capacity()
		}
		if samePrev && prevSnap.Nodes[i].N == n && prevSnap.Nodes[i].Gen() != 0 {
			// Unchanged node: alias prev's buffers and keep its generation.
			dst.Nodes[i] = prevSnap.Nodes[i]
			continue
		}
		// Changed node: rewrite in place. The slot's arrays are reusable
		// unless a snapshot a reader may be holding aliases them — sharing
		// moves buffers across slots, so ownership is established at write
		// time by backing-identity against the protected set.
		if cap(dst.Nodes[i].Keys) < nodeCap || nodeAliased(dst, i, prot) {
			dst.Nodes[i].Keys = make([]K, 0, nodeCap)
			dst.Nodes[i].Upper = make([]uint64, 0, nodeCap)
			dst.Nodes[i].Lower = make([]uint64, 0, nodeCap)
		}
		if e.ss != nil {
			e.ss[i].SnapshotInto(&dst.Nodes[i])
		} else {
			e.chk[i].SnapshotInto(&dst.Nodes[i])
		}
	}
	dst.Packets = e.packets
	dst.Weight = e.Weight()
	dst.V, dst.R = int(e.v), e.r
	dst.Epsilon, dst.Delta = e.epsilon, e.delta
	dst.gen = nextSnapGen()
	dst.src, dst.srcEpoch = e, e.epoch
	slot.ownerEpoch = r.epoch
	// The protected set is this publication's scratch: holding on to it
	// would keep a slot take has since dropped alive.
	clear(prot)
	return slot
}

const (
	// steadySlots is the ring's size while no pin outlives two
	// publications: current, one behind, and the recycle target.
	steadySlots = 3
	// spareIdle is how many publications a slot beyond steadySlots may go
	// unused before take drops it: a burst of slow reads shares one spare,
	// and the ring is back to three slots soon after the last one (0.1 s
	// at the default cadence and 2.5 Mpps per worker), so its footprint
	// does not depend on whether some reader was ever slow.
	spareIdle = 16
)

// take picks the slot to publish into: the first slot at least two
// publications stale with no pins, or a fresh one. Never prev — readers may
// be using it at lag 0 or 1 without a pin being visible yet. Taking the
// first free slot keeps reusing the same three, so a spare ages, and take
// drops a free spare once it has gone unused for spareIdle publications.
// Dropping is safe for the reason recycling is: a reader that pins the
// dropped slot now sees a lag of 2 or more and retries without reading it.
func (r *PubRing[K]) take(prev *PubSlot[K]) *PubSlot[K] {
	var got *PubSlot[K]
	for _, s := range r.slots {
		if s != prev && s.ownerEpoch+2 <= r.epoch && s.pins.Load() == 0 {
			got = s
			break
		}
	}
	if got == nil {
		got = &PubSlot[K]{}
		r.slots = append(r.slots, got)
		return got
	}
	if len(r.slots) > steadySlots {
		kept := r.slots[:0]
		for _, s := range r.slots {
			if s == got || s == prev || s.ownerEpoch+spareIdle > r.epoch || s.pins.Load() != 0 {
				kept = append(kept, s)
			}
		}
		clear(r.slots[len(kept):])
		r.slots = kept
	}
	return got
}

// protected collects the snapshots a concurrent reader may legitimately
// still be reading: the previous publication (observable at lag 0 and 1
// without a visible pin) and every pinned slot. Buffers these snapshots
// alias must not be rewritten this publication. A pin that lands after this
// scan belongs to a reader whose verify will see lag ≥ 2 and retry without
// reading, so missing it is harmless.
func (r *PubRing[K]) protected(prev, target *PubSlot[K]) []*EngineSnapshot[K] {
	r.prot = r.prot[:0]
	for _, s := range r.slots {
		if s == target {
			continue
		}
		if s == prev || s.pins.Load() != 0 {
			r.prot = append(r.prot, &s.snap)
		}
	}
	return r.prot
}

// nodeAliased reports whether node i of dst shares array backing with node i
// of any protected snapshot. Arrays are allocated whole and aliased whole,
// so comparing the first element of the full-capacity extension is exact.
func nodeAliased[K comparable](dst *EngineSnapshot[K], i int, prot []*EngineSnapshot[K]) bool {
	for _, p := range prot {
		if p == dst || len(p.Nodes) <= i {
			continue
		}
		if sameBacking(dst.Nodes[i].Keys, p.Nodes[i].Keys) ||
			sameBacking(dst.Nodes[i].Upper, p.Nodes[i].Upper) ||
			sameBacking(dst.Nodes[i].Lower, p.Nodes[i].Lower) {
			return true
		}
	}
	return false
}

func sameBacking[T any](a, b []T) bool {
	return cap(a) > 0 && cap(b) > 0 && &a[:cap(a)][0] == &b[:cap(b)][0]
}
