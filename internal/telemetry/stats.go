package telemetry

import "time"

// The stat blocks below are the publication targets each layer owns. The
// owning goroutine fills its block at an existing boundary (worker publish,
// watch tick, window flush, reporter tick); Register wires the block's
// cells into a registry under the canonical metric names, so every command
// (hhhd, hhh, vswitchd) exposes the same catalogue. A block's cells are
// stored and scraped one by one: each series is consistent on its own, but
// one scrape may mix two publications across the series of a block. Only a
// Histogram's cells publish together, under its seqlock.

// EngineStats is the per-engine block: update-path counters plus the
// counter-backend occupancy gauges (Space Saving slab or CHK slots).
type EngineStats struct {
	Packets Cell // packets ingested
	Weight  Cell // total weight ingested
	Samples Cell // sampled updates forwarded to a lattice node
	Batches Cell // batch kernel invocations

	Evictions Cell // Space Saving takeovers of a minimum counter
	Decays    Cell // CHK probabilistic decay decrements
	Takeovers Cell // CHK decayed-to-zero slot takeovers

	Occupied Cell // monitored keys across all lattice nodes
	Slots    Cell // counter slots across all lattice nodes
	Stash    Cell // cuckoo stash entries across all lattice nodes
}

// Register wires the block under the rhhh_engine_* / rhhh_counter_* names.
// labels is a rendered label set (`{worker="0"}` or "").
func (s *EngineStats) Register(r *Registry, labels string) {
	r.Counter("rhhh_engine_packets_total", labels, "Packets ingested by the update path.", &s.Packets)
	r.Counter("rhhh_engine_weight_total", labels, "Total weight ingested by the update path.", &s.Weight)
	r.Counter("rhhh_engine_samples_total", labels, "Sampled updates forwarded to a lattice node.", &s.Samples)
	r.Counter("rhhh_engine_batches_total", labels, "Batch kernel invocations.", &s.Batches)
	r.Counter("rhhh_counter_evictions_total", labels, "Space Saving minimum-counter takeovers.", &s.Evictions)
	r.Counter("rhhh_counter_decays_total", labels, "CHK probabilistic decay decrements.", &s.Decays)
	r.Counter("rhhh_counter_takeovers_total", labels, "CHK decayed-slot takeovers.", &s.Takeovers)
	r.Gauge("rhhh_counter_occupied", labels, "Monitored keys across all lattice nodes.", &s.Occupied)
	r.Gauge("rhhh_counter_slots", labels, "Counter slots across all lattice nodes.", &s.Slots)
	r.Gauge("rhhh_counter_stash_depth", labels, "Cuckoo stash entries across all lattice nodes.", &s.Stash)
}

// WorkerStats is the per-worker block of a Sharded monitor: the engine
// block plus snapshot-publication state.
type WorkerStats struct {
	Engine       EngineStats
	Publications Cell // snapshots published through the pub cell
	Syncs        Cell // explicit Sync barriers
	Epoch        Cell // epoch of the last published snapshot
	RingSlots    Cell // PubRing slots currently allocated
	LastPublish  Cell // wall clock of the last publication, unix nanos
}

// Register wires the worker block; labels should carry a worker id.
func (s *WorkerStats) Register(r *Registry, labels string) {
	s.Engine.Register(r, labels)
	r.Counter("rhhh_worker_publications_total", labels, "Snapshots published by the worker.", &s.Publications)
	r.Counter("rhhh_worker_syncs_total", labels, "Explicit worker Sync barriers.", &s.Syncs)
	r.Gauge("rhhh_worker_epoch", labels, "Epoch of the worker's last published snapshot.", &s.Epoch)
	r.Gauge("rhhh_pubring_slots", labels, "Publication-ring slots currently allocated.", &s.RingSlots)
	r.GaugeFunc("rhhh_worker_publish_age_seconds", labels, "Seconds since the worker's last snapshot publication.", func() float64 {
		last := s.LastPublish.Load()
		if last == 0 {
			return 0
		}
		return float64(uint64(time.Now().UnixNano())-last) / 1e9
	})
}

// QueryStats is the query-side block of a Sharded monitor, owned by the
// aggregation mutex: published-epoch pinning, read cost and merge
// bookkeeping.
type QueryStats struct {
	Queries    Cell      // HeavyHitters / Snapshot evaluations
	PinRetries Cell      // pin-then-verify retries against racing publications
	NodeMerges Cell      // lattice nodes a query or watch tick merged in full
	Hits       Cell      // result size of the last heavy-hitters query
	Latency    Histogram // wall time of a HeavyHitters query
}

// Register wires the query block.
func (s *QueryStats) Register(r *Registry, labels string) {
	r.Counter("rhhh_queries_total", labels, "Heavy-hitter query and snapshot evaluations.", &s.Queries)
	r.Counter("rhhh_query_pin_retries_total", labels, "Publication-pin retries against racing publications.", &s.PinRetries)
	r.Counter("rhhh_query_node_merges_total", labels, "Lattice nodes a query or watch tick merged in full because the read went past the node's head.", &s.NodeMerges)
	r.Gauge("rhhh_query_hits", labels, "Result size of the last heavy-hitters query.", &s.Hits)
	r.Histogram("rhhh_query_seconds", labels, "Wall time of a heavy-hitters query.", &s.Latency)
}

// WatchStats is the standing-query block, owned by the watch hub's mutex.
type WatchStats struct {
	Ticks         Cell      // delta-computation ticks
	Deliveries    Cell      // deltas delivered to subscribers
	Drops         Cell      // deltas dropped on full subscriber buffers
	Subs          Cell      // live subscriptions
	DifferEntries Cell      // tracked entries across all subscription differs
	TickLatency   Histogram // wall time of a tick up to delivery (capture + extraction + diff)
}

// Register wires the watch block.
func (s *WatchStats) Register(r *Registry, labels string) {
	r.Counter("rhhh_watch_ticks_total", labels, "Standing-query delta-computation ticks.", &s.Ticks)
	r.Counter("rhhh_watch_deliveries_total", labels, "Watch deltas delivered to subscribers.", &s.Deliveries)
	r.Counter("rhhh_watch_drops_total", labels, "Watch deltas dropped on full subscriber buffers.", &s.Drops)
	r.Gauge("rhhh_watch_subscriptions", labels, "Live watch subscriptions.", &s.Subs)
	r.Gauge("rhhh_watch_differ_entries", labels, "Tracked entries across subscription differs.", &s.DifferEntries)
	r.Histogram("rhhh_watch_tick_seconds", labels, "Wall time of a standing-query tick's capture, extraction and diff.", &s.TickLatency)
}

// WindowStats is the sliding/tumbling-window block. Flush latency is the
// producer-visible cost of rotating a sub-window; merge latency is the
// (background, for sliding windows) merge + extraction time.
type WindowStats struct {
	Flushes      Cell
	FlushLatency Histogram
	MergeLatency Histogram
}

// Register wires the window block.
func (s *WindowStats) Register(r *Registry, labels string) {
	r.Counter("rhhh_window_flushes_total", labels, "Sub-window flush rotations.", &s.Flushes)
	r.Histogram("rhhh_window_flush_seconds", labels, "Producer-visible sub-window flush time.", &s.FlushLatency)
	r.Histogram("rhhh_window_merge_seconds", labels, "Window merge and extraction time.", &s.MergeLatency)
}
