package rhhh

// TickWatch runs one standing-query tick synchronously — the test hook the
// differential tests use to interleave ticks deterministically with updates
// (the production Sharded driver ticks on its own interval).
func (s *Sharded) TickWatch() {
	s.watchMu.Lock()
	hub := s.hub
	s.watchMu.Unlock()
	if hub != nil {
		hub.tick()
	}
}

// WindowN returns the stream weight the in-progress window has absorbed.
func (w *Windowed) WindowN() uint64 { return w.current.N() }
