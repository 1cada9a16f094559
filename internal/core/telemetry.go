package core

import "rhhh/internal/telemetry"

// TelemetryInto publishes the engine's update-path counters and counter-
// backend occupancy into st. It must be called by the engine's owning
// goroutine (the ownership model of internal/telemetry): it reads the
// owner-side counters and walks the per-node backends, then stores the
// aggregates into st's atomic cells for scrapers. Cost is O(H) loads —
// call it at publication boundaries (worker publish, window flush, reporter
// tick), never per packet.
func (e *Engine[K]) TelemetryInto(st *telemetry.EngineStats) {
	if st == nil {
		return
	}
	st.Packets.Store(e.packets)
	st.Weight.Store(e.Weight())
	st.Samples.Store(e.samples)
	st.Batches.Store(e.batches)
	var occ, slots, stash, evict, decays, takeovers uint64
	for _, s := range e.ss {
		occ += uint64(s.Len())
		slots += uint64(s.Capacity())
		stash += uint64(s.StashLen())
		evict += s.Evictions()
	}
	for _, c := range e.chk {
		occ += uint64(c.Len())
		slots += uint64(c.Capacity())
		stash += uint64(c.StashLen())
		decays += c.Decays()
		takeovers += c.Takeovers()
	}
	st.Occupied.Store(occ)
	st.Slots.Store(slots)
	st.Stash.Store(stash)
	st.Evictions.Store(evict)
	st.Decays.Store(decays)
	st.Takeovers.Store(takeovers)
}

// Samples returns the number of sampled updates forwarded to a lattice
// node (the ~N·H/V·r updates the RHHH estimator actually applied).
func (e *Engine[K]) Samples() uint64 { return e.samples }
