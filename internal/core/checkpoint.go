package core

import (
	"errors"
	"fmt"
	"sync/atomic"

	"rhhh/internal/resilience"
)

// Checkpointer writes crash-safe incremental checkpoints of the union of
// some publication rings into a resilience.Store, and restores them. A full
// checkpoint is the EngineSnapshot encoding of the rings' merged latest
// publications (disjoint sub-streams merge with N = ΣNᵢ); the ones in
// between are DeltaCodec journal segments against the last durable one, up
// to fullEvery. The delta base advances only after a durable write, so the
// recoverable state is always the last checkpoint that reported success.
// It reads the rings through its own pins, beside queries. One goroutine
// owns it; only Generation is safe from others.
type Checkpointer[K comparable] struct {
	store     *resilience.Store
	rings     []*PubRing[K]
	pins      PinSet[K]
	fullEvery int

	// base and baseGens (its node generations at capture) are the last
	// durable capture: the delta base.
	sm       SnapshotMerger[K]
	merged   EngineSnapshot[K]
	base     EngineSnapshot[K]
	baseGens []uint64
	hasBase  bool
	codec    DeltaCodec[K]
	buf      []byte

	durable atomic.Pointer[[2]uint64] // the store's generation and segment count
}

// NewCheckpointer builds a checkpointer of rings writing through store,
// with a journal of fullEvery segments (0 means 16).
func NewCheckpointer[K comparable](store *resilience.Store, rings []*PubRing[K], fullEvery int) *Checkpointer[K] {
	if fullEvery <= 0 {
		fullEvery = 16
	}
	c := &Checkpointer[K]{store: store, rings: rings, fullEvery: fullEvery}
	c.noteDurable()
	return c
}

func (c *Checkpointer[K]) noteDurable() {
	gen, seq := c.store.Generation()
	c.durable.Store(&[2]uint64{gen, uint64(seq)})
}

// Generation returns the store generation of the last durable checkpoint
// or restore, and the journal segments written in it. Safe from any
// goroutine.
func (c *Checkpointer[K]) Generation() (gen uint64, seq uint32) {
	d := c.durable.Load()
	return d[0], uint32(d[1])
}

// Checkpoint merges the rings' latest publications and durably writes a
// journal segment, or a full checkpoint when there is no base yet or the
// journal is full, reporting which. On error nothing moved, and the next
// call retries.
func (c *Checkpointer[K]) Checkpoint() (full bool, err error) {
	snaps, _ := c.pins.Pin(c.rings)
	merged := c.sm.Merge(&c.merged, snaps...)
	c.pins.Unpin()
	_, seq := c.store.Generation()
	full = !c.hasBase || int(seq) >= c.fullEvery
	write := c.store.AppendSegment
	if full {
		write = c.store.WriteFull
		c.buf, err = merged.AppendBinary(c.buf[:0])
	} else {
		c.buf, _, err = c.codec.AppendDelta(c.buf[:0], merged, &c.base, c.baseGens)
	}
	if err == nil {
		err = write(c.buf)
	}
	if err != nil {
		return full, err
	}
	// The generations come from the capture: CopyFrom stamps fresh ones on
	// the copy, and the next delta compares against the capture's.
	c.base.CopyFrom(merged)
	c.baseGens = merged.NodeGens(c.baseGens)
	c.hasBase = true
	c.noteDurable()
	return full, nil
}

// Restore loads the newest durable full + journal state into the first
// ring's engine and publishes it, reporting whether the store held any. It
// acts as that ring's producer, so call it before the producer starts. The
// restored state becomes the delta base.
func (c *Checkpointer[K]) Restore() (bool, error) {
	full, segs, err := c.store.Recover()
	if err != nil || full == nil {
		return false, err
	}
	es, rest, err := DecodeEngineSnapshot[K](full)
	if err != nil {
		return false, fmt.Errorf("core: checkpoint full: %w", err)
	}
	if len(rest) != 0 {
		return false, errors.New("core: checkpoint full has trailing bytes")
	}
	for i, seg := range segs {
		if rest, err = c.codec.ApplyDelta(es, seg); err == nil && len(rest) != 0 {
			err = errors.New("trailing bytes")
		}
		if err != nil {
			return false, fmt.Errorf("core: checkpoint segment %d: %w", i+1, err)
		}
	}
	if err := c.rings[0].eng.LoadSnapshot(es); err != nil {
		return false, fmt.Errorf("core: checkpoint restore: %w", err)
	}
	c.rings[0].Publish()
	c.base.CopyFrom(es)
	c.baseGens = es.NodeGens(c.baseGens)
	c.hasBase = true
	c.noteDurable()
	return true, nil
}
