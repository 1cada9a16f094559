package rhhh

import "rhhh/internal/resilience"

// Checkpointer drives crash-safe incremental checkpointing of a Sharded
// monitor into a resilience.Store: a periodic full checkpoint (the merged
// published engine snapshot) starts a generation, and the checkpoints in
// between are generation-delta journal segments — only the lattice nodes
// whose mutation generation moved since the last durable point, entry-
// delta-coded (the same core.DeltaCodec the vswitch wire protocol uses).
// Every file is CRC-framed and written fsynced tmp+rename; recovery
// replays full+journal, tolerating a truncated or corrupt tail.
//
// The delta base advances only after the store reports a write durable, so
// a failed write (disk full, crash) never desynchronizes the chain: the
// recoverable state always equals the last durable full+journal point.
//
// One goroutine owns the Checkpointer. Checkpoint may run concurrently
// with producers and queries (it takes the query lock only to capture and
// commit, not across the disk write); Restore must run before producers
// start.
type Checkpointer struct {
	s         *Sharded
	store     *resilience.Store
	fullEvery int
	deltas    int
	buf       []byte
}

// NewCheckpointer builds a checkpointer writing through store. fullEvery
// bounds the journal: after that many delta segments the next checkpoint
// is promoted to a full one, starting a fresh generation and pruning the
// old (0 means the default, 16).
func NewCheckpointer(s *Sharded, store *resilience.Store, fullEvery int) *Checkpointer {
	if fullEvery <= 0 {
		fullEvery = 16
	}
	return &Checkpointer{s: s, store: store, fullEvery: fullEvery}
}

// Checkpoint captures the merged published state and writes one durable
// checkpoint — a journal segment normally, a full checkpoint when the
// journal has reached fullEvery segments (or no base exists yet). It
// reports which kind was written. On error the store's recoverable state
// and the delta base are unchanged; the next call simply retries.
func (c *Checkpointer) Checkpoint() (full bool, err error) {
	_, seq := c.store.Generation()
	wantFull := int(seq) >= c.fullEvery
	c.s.aggMu.Lock()
	out, wroteFull, err := c.s.agg.appendCheckpoint(c.buf[:0], wantFull)
	c.s.aggMu.Unlock()
	if err != nil {
		return false, err
	}
	c.buf = out[:0] // retain capacity across checkpoints
	if wroteFull {
		err = c.store.WriteFull(out)
	} else {
		err = c.store.AppendSegment(out)
	}
	if err != nil {
		return wroteFull, err
	}
	c.s.aggMu.Lock()
	c.s.agg.commitCheckpoint()
	c.s.aggMu.Unlock()
	return wroteFull, nil
}

// Restore recovers the newest durable full+journal state from the store
// and loads it into the monitor (worker 0's engine, published
// immediately), reporting whether anything was restored. Call it on a
// freshly constructed Sharded before any producer goroutine starts; the
// engines must use a snapshot-capable backend (Space Saving or CHK).
func (c *Checkpointer) Restore() (restored bool, err error) {
	fullBytes, segs, err := c.store.Recover()
	if err != nil {
		return false, err
	}
	if fullBytes == nil {
		return false, nil
	}
	c.s.aggMu.Lock()
	err = c.s.agg.applyCheckpoint(fullBytes, segs)
	c.s.aggMu.Unlock()
	if err != nil {
		return false, err
	}
	// Publish the restored state: Restore runs on the (sole) pre-producer
	// goroutine, which owns every worker at this point.
	c.s.workers[0].Sync()
	return true, nil
}

// Store returns the underlying checkpoint store (telemetry registration,
// generation inspection).
func (c *Checkpointer) Store() *resilience.Store { return c.store }

// Instrument registers the store's checkpoint counters with reg.
func (c *Checkpointer) Instrument(reg *Registry) {
	if reg == nil {
		return
	}
	c.store.Stats.Register(reg, "")
}
