package core

import (
	"sync/atomic"

	"rhhh/internal/spacesaving"
)

// PubSlot is one publication buffer owned by a PubRing: an engine snapshot
// plus the pin count readers use to keep its buffers alive across
// recycling. A slot's snapshot is immutable from the moment the ring
// publishes it until the ring recycles the slot, which it does only once
// the slot is at least two publications stale and unpinned, so no reader
// that got past PubRing.Pin's handshake can still be looking at it.
type PubSlot[K comparable] struct {
	snap EngineSnapshot[K]
	pins atomic.Int64
	// ownerEpoch is the ring epoch this slot was last published at.
	// Producer-goroutine only; readers never touch it.
	ownerEpoch uint64
}

// Snapshot returns the slot's published engine snapshot. A reader may use
// it until it calls Unpin; the producer may use it while the slot is the
// ring's current publication.
func (s *PubSlot[K]) Snapshot() *EngineSnapshot[K] { return &s.snap }

// Unpin releases a pin taken by PubRing.Pin. Call it as soon as the reader
// is done with the snapshot: a held pin forces the ring to allocate fresh
// buffers instead of recycling.
func (s *PubSlot[K]) Unpin() { s.pins.Add(-1) }

// PubRing publishes an engine's snapshots from its single producer
// goroutine to any number of concurrent readers, recycling the buffers of
// publications no reader can still observe, so steady-state publication
// allocates nothing. Each publication shares unchanged node buffers (and
// their mutation generations) with the previous one, so downstream
// generation-keyed merge and index caches stay warm.
//
// The ring owns the whole protocol. The producer calls Publish; a reader
// calls Pin, reads the pinned slot's snapshot and Unpins it. Epoch and
// Weight are safe from any goroutine; every other method belongs to the
// producer.
type PubRing[K comparable] struct {
	// The reader-visible publication, padded onto its own cache lines so a
	// ring's publications and its readers' loads never false-share with a
	// neighbouring ring's (one ring per worker, allocated side by side).
	// cur is stored before epoch and weight: Pin's handshake relies on it.
	_      [64]byte
	cur    atomic.Pointer[PubSlot[K]]
	epoch  atomic.Uint64
	weight atomic.Uint64
	_      [40]byte

	// Producer-goroutine state. seq is epoch's producer-side copy and
	// prev the slot cur points to.
	eng   *Engine[K]
	prev  *PubSlot[K]
	seq   uint64
	slots []*PubSlot[K]
	prot  []*EngineSnapshot[K] // scratch for the per-publication protected set
}

// NewPubRing builds a publication ring over the engine and publishes the
// engine's current state as epoch 0, so readers always find a publication.
// Only the snapshot backends (Space Saving, CHK) are supported, as with
// SnapshotInto. The caller becomes the ring's producer and must own the
// engine.
func NewPubRing[K comparable](eng *Engine[K]) *PubRing[K] {
	if eng.ss == nil && eng.chk == nil {
		panic("core: snapshots require the Space Saving or CHK backend")
	}
	r := &PubRing[K]{eng: eng}
	slot := &PubSlot[K]{}
	r.slots = append(r.slots, slot)
	r.fill(slot)
	r.store(slot)
	return r
}

// Slots returns the number of slot buffers the ring has allocated — it
// stabilizes at three once recycling kicks in (current, one behind, and the
// recycle target), plus one per pin held across two publications until that
// spare has gone unused for spareIdle publications (see take).
func (r *PubRing[K]) Slots() int { return len(r.slots) }

// Epoch returns the number of publications since the ring was built: it
// increments on every Publish that changed state. Safe from any goroutine.
func (r *PubRing[K]) Epoch() uint64 { return r.epoch.Load() }

// Weight returns the stream weight of the ring's latest publication. Safe
// from any goroutine.
func (r *PubRing[K]) Weight() uint64 { return r.weight.Load() }

// Publish captures the engine's state into a slot and makes it the ring's
// current publication, reporting whether it did. When the engine is
// unchanged since the last publication nothing is written and the epoch
// stays. Otherwise the new slot's unchanged nodes alias the previous
// publication's node buffers, keeping their mutation generations, and
// changed nodes are rewritten into buffers no observable snapshot
// references — the slot's own arrays when nothing aliases them, fresh
// allocations otherwise.
func (r *PubRing[K]) Publish() bool {
	e := r.eng
	prev := r.prev
	prevSnap := &prev.snap
	if prevSnap.src == e && prevSnap.srcEpoch == e.epoch &&
		prevSnap.Packets == e.packets && prevSnap.Weight == e.Weight() {
		return false
	}
	slot := r.take(prev)
	r.seq++
	r.fill(slot)
	r.store(slot)
	return true
}

// fill captures the engine into slot at epoch r.seq, aliasing the nodes
// unchanged since r.prev (nil on the first publication).
func (r *PubRing[K]) fill(slot *PubSlot[K]) {
	e := r.eng
	var prevSnap *EngineSnapshot[K]
	if r.prev != nil {
		prevSnap = &r.prev.snap
	}
	prot := r.protected(slot)
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
	slot.ownerEpoch = r.seq
	// The protected set is this publication's scratch: holding on to it
	// would keep a slot take has since dropped alive.
	clear(prot)
}

// store makes slot the current publication: the slot pointer first, then
// the epoch and weight readers see.
func (r *PubRing[K]) store(slot *PubSlot[K]) {
	r.prev = slot
	r.cur.Store(slot)
	r.epoch.Store(r.seq)
	r.weight.Store(slot.snap.Weight)
}

// Pin returns the ring's current publication, pinned so the ring will not
// recycle its buffers until Unpin, and how many times the handshake had to
// retry. Safe from any goroutine.
//
// The handshake: load the epoch (e), load the current slot, pin it, then
// load the epoch again. If it advanced by two or more, the ring may already
// be rewriting the slot: unpin and retry without reading it. Otherwise the
// pin is safe. The slot went out at epoch e or later, and the ring recycles
// a slot, or rewrites a buffer it aliases, only in the third publication
// after the slot's own, scanning the pins after storing the second. A second
// load below e+2 precedes that store, so the scan sees the pin (both sides
// use sequentially consistent atomics).
func (r *PubRing[K]) Pin() (*PubSlot[K], int) {
	for retries := 0; ; retries++ {
		e := r.epoch.Load()
		slot := r.cur.Load()
		slot.pins.Add(1)
		if r.epoch.Load()-e < 2 {
			return slot, retries
		}
		slot.Unpin()
	}
}

// PinSet pins one publication from each of several rings at once — the
// reader's view of a sharded engine — reusing its scratch so a warm Pin
// allocates nothing. It is not safe for concurrent use: give each reader
// its own.
type PinSet[K comparable] struct {
	slots []*PubSlot[K]
	snaps []*EngineSnapshot[K]
}

// Pin pins every ring's current publication and returns their snapshots in
// ring order, valid until Unpin, with the total handshake retries.
func (p *PinSet[K]) Pin(rings []*PubRing[K]) ([]*EngineSnapshot[K], int) {
	p.slots, p.snaps = p.slots[:0], p.snaps[:0]
	retries := 0
	for _, r := range rings {
		slot, n := r.Pin()
		p.slots = append(p.slots, slot)
		p.snaps = append(p.snaps, slot.Snapshot())
		retries += n
	}
	return p.snaps, retries
}

// Unpin releases every pin the last Pin took.
func (p *PinSet[K]) Unpin() {
	for _, s := range p.slots {
		s.Unpin()
	}
	clear(p.slots)
	clear(p.snaps)
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
		if s != prev && s.ownerEpoch+2 <= r.seq && s.pins.Load() == 0 {
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
			if s == got || s == prev || s.ownerEpoch+spareIdle > r.seq || s.pins.Load() != 0 {
				kept = append(kept, s)
			}
		}
		clear(r.slots[len(kept):])
		r.slots = kept
	}
	return got
}

// protected collects the snapshots a reader may still be reading while
// publication r.seq is written: the last two publications, r.seq-1 and
// r.seq-2, which a reader can pass Pin's handshake on without its pin being
// visible yet (its verify load sees at most r.seq-1), and every pinned
// slot. Buffers these snapshots alias must not be rewritten this
// publication. A pin that lands after this scan on any older slot belongs
// to a reader whose verify sees a lag of 2 or more and retries without
// reading, so missing it is harmless.
func (r *PubRing[K]) protected(target *PubSlot[K]) []*EngineSnapshot[K] {
	r.prot = r.prot[:0]
	for _, s := range r.slots {
		if s == target {
			continue
		}
		if s.ownerEpoch+2 >= r.seq || s.pins.Load() != 0 {
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
