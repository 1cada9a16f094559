package rhhh

import "rhhh/internal/resilience"

// Checkpointer writes crash-safe incremental checkpoints of a Sharded
// monitor into a directory: a full checkpoint (the merge of the workers'
// published engine snapshots) starts a generation, and the checkpoints in
// between are journal segments holding only the lattice nodes that changed
// since the last durable one (the delta codec of the vswitch wire
// protocol). Every file is CRC-framed and written fsynced tmp+rename, and
// the delta base advances only after a durable write, so a restart
// recovers exactly the last checkpoint that reported success, tolerating a
// truncated or corrupt tail.
//
// One goroutine owns the Checkpointer. Checkpoint may run concurrently with
// producers and queries: it pins the workers' publications itself.
// Generation is safe from any goroutine; Restore must run before producers
// start.
type Checkpointer struct {
	ck    checkpointer
	store *resilience.Store
}

// checkpointer is the part of a *core.Checkpointer[K] that does not depend
// on K.
type checkpointer interface {
	Checkpoint() (full bool, err error)
	Restore() (bool, error)
	Generation() (gen uint64, seq uint32)
}

// NewCheckpointer opens (creating if needed) the checkpoint directory dir,
// adopting a single-file checkpoint found there as its first generation,
// and builds a checkpointer of s writing into it. After fullEvery journal
// segments the next checkpoint is a full one, which starts a generation
// and prunes the old (0 means the default, 16).
func NewCheckpointer(s *Sharded, dir string, fullEvery int) (*Checkpointer, error) {
	return newCheckpointer(s, dir, nil, fullEvery)
}

// newCheckpointer is NewCheckpointer writing through fsys (nil = the real
// filesystem).
func newCheckpointer(s *Sharded, dir string, fsys resilience.FS, fullEvery int) (*Checkpointer, error) {
	store, err := resilience.OpenStore(dir, fsys)
	if err != nil {
		return nil, err
	}
	return &Checkpointer{ck: s.agg.checkpointer(store, fullEvery), store: store}, nil
}

// Checkpoint captures the merged published state and writes one durable
// checkpoint, a journal segment or a full one, and reports which. On error
// the recoverable state and the delta base are unchanged; the next call
// simply retries.
func (c *Checkpointer) Checkpoint() (full bool, err error) { return c.ck.Checkpoint() }

// Restore recovers the newest durable state into worker 0's engine and
// publishes it, reporting whether there was any. Call it on a freshly
// constructed Sharded before any producer goroutine starts.
func (c *Checkpointer) Restore() (restored bool, err error) { return c.ck.Restore() }

// Generation returns the generation of the last durable checkpoint or
// restore, and the journal segments written in it (0, 0 before any). Safe
// from any goroutine.
func (c *Checkpointer) Generation() (gen uint64, seq uint32) { return c.ck.Generation() }

// Instrument registers the checkpoint counters with reg.
func (c *Checkpointer) Instrument(reg *Registry) {
	if reg == nil {
		return
	}
	c.store.Stats.Register(reg, "")
}
