package rhhh

import (
	"fmt"
	"net/netip"
	"sync"

	"rhhh/internal/core"
	"rhhh/internal/hierarchy"
)

// This file preserves the PR 7 mutex-based sharded path test-only (the
// mergeMapSort/extractMapRef pattern): every producer batch serialized
// through a per-shard mutex, and queries pausing one shard at a time to
// capture its engine into a reused snapshot buffer. It is the differential
// reference the lock-free publication path is pinned against (see
// sharded_diff_test.go) and the "old" side of BenchmarkShardedScaling.
// Exported identifiers here are visible to the external rhhh_test package
// but not to importers of the library.

// LockedSharded is the old mutex-based sharded monitor.
type LockedSharded struct {
	cfg    Config
	shards []*LockedShard

	aggMu sync.Mutex
	agg   lockedAgg
}

// LockedShard is one producer's handle on the old path: a monitor plus the
// lock that coordinates its updates with snapshot capture.
type LockedShard struct {
	mu sync.Mutex
	m  *Monitor
}

// Update records one packet on this shard under its lock.
func (sh *LockedShard) Update(src, dst netip.Addr) {
	sh.mu.Lock()
	sh.m.Update(src, dst)
	sh.mu.Unlock()
}

// UpdateWeighted records one weighted packet on this shard under its lock.
func (sh *LockedShard) UpdateWeighted(src, dst netip.Addr, w uint64) {
	sh.mu.Lock()
	sh.m.UpdateWeighted(src, dst, w)
	sh.mu.Unlock()
}

// UpdateBatch records a batch on this shard, amortizing the lock over it.
func (sh *LockedShard) UpdateBatch(srcs, dsts []netip.Addr) {
	sh.mu.Lock()
	sh.m.UpdateBatch(srcs, dsts)
	sh.mu.Unlock()
}

// UpdateWeightedBatch records a weighted batch on this shard under its lock.
func (sh *LockedShard) UpdateWeightedBatch(srcs, dsts []netip.Addr, ws []uint64) {
	sh.mu.Lock()
	sh.m.UpdateWeightedBatch(srcs, dsts, ws)
	sh.mu.Unlock()
}

// N returns this shard's stream weight under its lock.
func (sh *LockedShard) N() uint64 {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	return sh.m.N()
}

// NewLockedShardedForTest builds the old mutex-based sharded monitor with the
// same per-shard seeding as NewSharded, so equal per-shard streams produce
// bit-identical engine states on both paths.
func NewLockedShardedForTest(cfg Config, n int) (*LockedSharded, error) {
	if n < 1 {
		return nil, fmt.Errorf("rhhh: need at least one shard, got %d", n)
	}
	s := &LockedSharded{cfg: cfg, shards: make([]*LockedShard, n)}
	monitors := make([]*Monitor, n)
	for i := range s.shards {
		c := cfg
		c.Seed = cfg.Seed + uint64(i)*0x9e3779b97f4a7c15
		m, err := New(c)
		if err != nil {
			return nil, err
		}
		monitors[i] = m
		s.shards[i] = &LockedShard{m: m}
	}
	switch im := monitors[0].impl.(type) {
	case *impl[uint32]:
		s.agg = newLockedAggState(im, monitors)
	case *impl[uint64]:
		s.agg = newLockedAggState(im, monitors)
	case *impl[hierarchy.Addr]:
		s.agg = newLockedAggState(im, monitors)
	case *impl[hierarchy.AddrPair]:
		s.agg = newLockedAggState(im, monitors)
	default:
		return nil, fmt.Errorf("rhhh: unknown shard implementation %T", monitors[0].impl)
	}
	return s, nil
}

// Shard returns shard i's handle.
func (s *LockedSharded) Shard(i int) *LockedShard { return s.shards[i] }

// Shards returns the number of shards.
func (s *LockedSharded) Shards() int { return len(s.shards) }

// N returns the combined stream weight, taking each shard's lock in turn.
func (s *LockedSharded) N() uint64 {
	var n uint64
	for _, sh := range s.shards {
		n += sh.N()
	}
	return n
}

// HeavyHitters answers the HHH query the old way: pause each shard for its
// snapshot copy, then merge and extract outside the shard locks on reused
// buffers. The returned slice is the reusable query buffer, as on Sharded.
func (s *LockedSharded) HeavyHitters(theta float64) []HeavyHitter {
	if !(theta > 0 && theta <= 1) {
		panic("rhhh: theta must be in (0, 1]")
	}
	s.aggMu.Lock()
	defer s.aggMu.Unlock()
	s.agg.refresh(s.shards)
	return s.agg.query(theta)
}

// lockedAgg is the carrier-typed aggregator behind the old query path.
type lockedAgg interface {
	refresh(shards []*LockedShard)
	query(theta float64) []HeavyHitter
}

// lockedAggState is the PR 7 aggState: reusable per-shard capture buffers, a
// reusable merger and a reusable extractor+converter.
type lockedAggState[K comparable] struct {
	im      *impl[K]
	engines []*core.Engine[K]
	bufs    []core.EngineSnapshot[K]
	ptrs    []*core.EngineSnapshot[K]
	sm      core.SnapshotMerger[K]
	merged  core.EngineSnapshot[K]
	ex      *core.Extractor[K]
	conv    converter[K]
}

func newLockedAggState[K comparable](first *impl[K], monitors []*Monitor) *lockedAggState[K] {
	a := &lockedAggState[K]{
		im:      first,
		engines: make([]*core.Engine[K], len(monitors)),
		bufs:    make([]core.EngineSnapshot[K], len(monitors)),
		ptrs:    make([]*core.EngineSnapshot[K], len(monitors)),
		ex:      core.NewExtractor(first.dom),
	}
	for i, m := range monitors {
		a.engines[i] = m.impl.(*impl[K]).eng
		a.ptrs[i] = &a.bufs[i]
	}
	return a
}

func (a *lockedAggState[K]) refresh(shards []*LockedShard) {
	for i, sh := range shards {
		sh.mu.Lock()
		a.engines[i].SnapshotInto(&a.bufs[i])
		sh.mu.Unlock()
	}
}

func (a *lockedAggState[K]) query(theta float64) []HeavyHitter {
	merged := a.sm.Merge(&a.merged, a.ptrs...)
	return a.conv.convert(a.im.dom, a.im.split, a.ex.ExtractSnapshot(merged, theta))
}
