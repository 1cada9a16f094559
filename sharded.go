package rhhh

import (
	"errors"
	"fmt"
	"net/netip"
	"sync"
	"sync/atomic"
	"time"

	"rhhh/internal/core"
	"rhhh/internal/hierarchy"
	"rhhh/internal/resilience"
	"rhhh/internal/telemetry"
)

// Sharded spreads measurement across several shared-nothing RHHH workers —
// the multi-queue deployment: modern NICs hash flows onto receive queues, and
// one worker per queue/core updates a private engine with no locks and no
// atomic read-modify-write operations on the hot path. Each worker
// periodically publishes an immutable, epoch-versioned snapshot of its engine
// through an atomic pointer (every PublishPackets packets or PublishBatches
// batch calls, or immediately on Sync); queries and standing watches pin the
// latest published snapshot set and read it as one union
// (core.Extractor.ExtractSnapshots, bit-identical to extracting from its
// core.SnapshotMerger merge) without ever touching a producer — no shard
// pause, no capture phase against live engines. The union keeps the paper's
// guarantees with N equal to the combined stream weight (see Snapshot and
// core.SnapshotMerger).
//
// Bounded staleness: a query observes every packet up to each worker's most
// recent publication, so it lags each producer by less than one publication
// interval (PublishPackets packets per worker, default 16384); a producer that
// calls Sync, and any worker that has reached a cadence boundary, is observed
// exactly. Between two publications of the same worker, queries are perfectly
// repeatable. Results at any published epoch set are bit-identical to a
// sequential merge of the per-worker streams truncated at those epochs.
//
// Give every producing goroutine its own worker via Worker(i); producers on
// different workers never contend, and queries may run concurrently with all
// of them.
type Sharded struct {
	cfg     Config
	workers []*Worker

	// aggMu serializes queries (merge and extract reuse the aggregator's
	// scratch); producers never take it — they only publish through their
	// own core.PubRing.
	aggMu sync.Mutex
	agg   shardAgg

	// Standing-query driver state (see Watch): the hub holds subscriptions,
	// the supervised goroutine behind watchDone ticks it on the capture
	// interval. resPolicy supervises the driver (nil = resilience.Default).
	watchMu     sync.Mutex
	hub         watchCtl
	watchStop   chan struct{}
	watchWake   chan struct{}
	watchDone   <-chan struct{}
	watchClosed bool
	resPolicy   *resilience.Policy

	// pubScale widens every worker's publication cadence by the stored
	// factor (0 and 1 are neutral) — the degrade ladder's cadence lever.
	// Workers read it once per Sync, never on the packet path.
	pubScale atomic.Uint32

	// Telemetry blocks installed by Instrument (nil when uninstrumented):
	// qtm is owned by aggMu holders, watchTM by the watch hub.
	qtm     *telemetry.QueryStats
	watchTM *telemetry.WatchStats
}

// ShardedOptions tunes a Sharded's publication cadence. The zero value means
// defaults.
type ShardedOptions struct {
	// PublishPackets makes a worker republish after absorbing this many
	// packets since its previous publication (0 means the default, 16384).
	// Smaller values tighten the query staleness bound; larger values
	// amortize the publication copy over more traffic.
	PublishPackets uint64
	// PublishBatches makes a worker republish after this many batch calls
	// since its previous publication even when the packet watermark has not
	// been reached (0 means the default, 64), so small trickling batches
	// still surface promptly.
	PublishBatches int
}

const (
	defaultPublishPackets = 16384
	defaultPublishBatches = 64
)

// Worker is one producer's handle: a private monitor plus the publication
// ring its snapshots go through. A worker is strictly single-producer — give
// every producing goroutine its own — and its update path takes no locks and
// performs no atomic read-modify-write operations; the only synchronization
// is the ring's atomic stores once per publication, amortized over the
// cadence.
type Worker struct {
	m    *Monitor
	ring publisher

	// Owner-goroutine cadence state, unsynchronized by design. The
	// effective cadence is the configured pubPackets/pubBatches times the
	// owning Sharded's publication scale, re-read at each Sync — so the
	// degrade ladder can widen the cadence without touching the hot path.
	count      uint64 // packets absorbed since construction
	batches    int    // batch calls since the last publication
	nextPub    uint64 // the update path's watermark check (see pubCheck)
	pubDue     uint64 // publish when count reaches this watermark
	pubPackets uint64
	pubBatches int
	curBatches int            // pubBatches × scale, recomputed at Sync
	scale      *atomic.Uint32 // the Sharded's pubScale

	// Telemetry block installed by Sharded.Instrument before producers
	// start; nil means uninstrumented. syncs/pubs are the owner-side live
	// counts published into tm at each Sync.
	tm    *telemetry.WorkerStats
	syncs uint64
	pubs  uint64

	// firstPending is the wall clock (unix nanos, 0 = none) of the first
	// packet absorbed since the last publication — always maintained,
	// telemetry or not, so Sharded.MaxPublishAge can report the age of
	// unpublished intake to the degrade controller. It costs the hot path
	// nothing: Sync arms nextPub one packet ahead as a sentinel, so the
	// idle→pending transition rides the existing watermark branch (see
	// pubCheck) and the clock read and atomic store run once per
	// publication interval.
	firstPending atomic.Int64
}

// publisher is the part of a worker's *core.PubRing[K] that does not
// depend on K.
type publisher interface {
	Publish() bool
	Epoch() uint64
	Weight() uint64
	Slots() int
}

// pubCheck is the slow half of the update paths' watermark branch. nextPub
// is armed one packet past the last Sync, so the first intake of a fresh
// publication interval lands here once, stamps firstPending for the lag
// signal, and re-arms nextPub at the real cadence watermark; the next trip
// is a genuine publication.
func (w *Worker) pubCheck() {
	if w.count >= w.pubDue || w.batches >= w.curBatches {
		w.Sync()
		return
	}
	w.firstPending.Store(time.Now().UnixNano())
	w.nextPub = w.pubDue
}

// Update records one packet on this worker.
func (w *Worker) Update(src, dst netip.Addr) {
	w.m.Update(src, dst)
	w.count++
	if w.count >= w.nextPub {
		w.pubCheck()
	}
}

// UpdateWeighted records one packet carrying weight wt on this worker.
func (w *Worker) UpdateWeighted(src, dst netip.Addr, wt uint64) {
	w.m.UpdateWeighted(src, dst, wt)
	w.count++
	if w.count >= w.nextPub {
		w.pubCheck()
	}
}

// UpdateBatch records a batch of packets on this worker in one call — the
// preferred producer shape: the engine's batch kernel amortizes memory-level
// parallelism over the batch and the publication cadence over many batches.
func (w *Worker) UpdateBatch(srcs, dsts []netip.Addr) {
	w.m.UpdateBatch(srcs, dsts)
	w.count += uint64(len(srcs))
	w.batches++
	if w.count >= w.nextPub || w.batches >= w.curBatches {
		w.pubCheck()
	}
}

// UpdateWeightedBatch records a batch of packets carrying per-packet weights
// on this worker in one call.
func (w *Worker) UpdateWeightedBatch(srcs, dsts []netip.Addr, ws []uint64) {
	w.m.UpdateWeightedBatch(srcs, dsts, ws)
	w.count += uint64(len(srcs))
	w.batches++
	if w.count >= w.nextPub || w.batches >= w.curBatches {
		w.pubCheck()
	}
}

// Sync publishes the worker's current state immediately, making everything it
// has absorbed visible to queries, snapshots and watches. Only the owning
// producer goroutine may call it (it is part of the single-producer surface);
// an idle Sync — nothing absorbed since the last publication — is nearly free
// and publishes nothing new.
func (w *Worker) Sync() {
	published := w.ring.Publish()
	w.batches = 0
	// Everything absorbed so far is in the ring's current publication: no
	// intake is pending anymore, whether or not this Sync published.
	w.firstPending.Store(0)
	k := uint64(1)
	if w.scale != nil {
		if sc := w.scale.Load(); sc > 1 {
			k = uint64(sc)
		}
	}
	// Arm nextPub one packet ahead: the first intake of the new interval
	// detours through pubCheck to stamp firstPending, then the real
	// watermark (pubDue) takes over.
	w.pubDue = w.count + w.pubPackets*k
	w.nextPub = w.count + 1
	w.curBatches = w.pubBatches * int(k)
	if w.tm != nil {
		w.syncs++
		if published {
			w.pubs++
		}
		w.publishTelemetry()
	}
}

// publishTelemetry stores the worker's owner-side counters and its engine's
// aggregates into the telemetry block. Producer-goroutine only; runs once
// per Sync, so its O(H) engine walk is amortized over the publication
// cadence.
func (w *Worker) publishTelemetry() {
	tm := w.tm
	tm.Syncs.Store(w.syncs)
	tm.Publications.Store(w.pubs)
	tm.Epoch.Store(w.ring.Epoch())
	tm.RingSlots.Store(uint64(w.ring.Slots()))
	tm.LastPublish.Store(uint64(time.Now().UnixNano()))
	w.m.eng.TelemetryInto(&tm.Engine)
}

// N returns the worker's live stream weight. Owner-goroutine read, like the
// update methods; other goroutines observe the worker only through its
// publications (Sharded.N sums those).
func (w *Worker) N() uint64 { return w.m.N() }

// Epoch returns the worker's published epoch number, which increments on
// every publication that changed state. Safe from any goroutine.
func (w *Worker) Epoch() uint64 { return w.ring.Epoch() }

// PublishedN returns the stream weight of the worker's latest publication.
// Safe from any goroutine.
func (w *Worker) PublishedN() uint64 { return w.ring.Weight() }

// NewSharded builds n shared-nothing workers with the default publication
// cadence. cfg is validated as by New.
func NewSharded(cfg Config, n int) (*Sharded, error) {
	return NewShardedOptions(cfg, n, ShardedOptions{})
}

// NewShardedOptions is NewSharded with an explicit publication cadence.
func NewShardedOptions(cfg Config, n int, opts ShardedOptions) (*Sharded, error) {
	if n < 1 {
		return nil, fmt.Errorf("rhhh: need at least one shard, got %d", n)
	}
	pubPackets := opts.PublishPackets
	if pubPackets == 0 {
		pubPackets = defaultPublishPackets
	}
	pubBatches := opts.PublishBatches
	if pubBatches == 0 {
		pubBatches = defaultPublishBatches
	}
	s := &Sharded{cfg: cfg, workers: make([]*Worker, n)}
	for i := range s.workers {
		c := cfg
		c.Seed = cfg.Seed + uint64(i)*0x9e3779b97f4a7c15
		m, err := New(c)
		if err != nil {
			return nil, err
		}
		s.workers[i] = &Worker{
			m:          m,
			pubPackets: pubPackets,
			pubBatches: pubBatches,
			curBatches: pubBatches,
			pubDue:     pubPackets,
			nextPub:    1, // sentinel: the first packet stamps firstPending
			scale:      &s.pubScale,
		}
	}
	// All workers share the same concrete impl type; dispatch on the first.
	switch im := s.workers[0].m.impl.(type) {
	case *impl[uint32]:
		s.agg = newAggState(im, s.workers)
	case *impl[uint64]:
		s.agg = newAggState(im, s.workers)
	case *impl[hierarchy.Addr]:
		s.agg = newAggState(im, s.workers)
	case *impl[hierarchy.AddrPair]:
		s.agg = newAggState(im, s.workers)
	default:
		return nil, fmt.Errorf("rhhh: unknown shard implementation %T", s.workers[0].m.impl)
	}
	return s, nil
}

// Instrument registers the sharded monitor's telemetry — one worker block
// per worker (labeled worker="i"), the query-path block, and the standing-
// query block — with reg. Call it after construction and before any
// producer goroutine starts: the per-worker hookup is unsynchronized by
// design (the producer sees it through the happens-before edge of its own
// goroutine start). A nil reg leaves the monitor uninstrumented. Worker
// counters surface at each publication boundary; call Worker.Sync (or let
// the cadence fire) to refresh them.
func (s *Sharded) Instrument(reg *Registry) {
	if reg == nil {
		return
	}
	for i, w := range s.workers {
		tm := &telemetry.WorkerStats{}
		tm.Register(reg, fmt.Sprintf(`{worker="%d"}`, i))
		w.tm = tm
		// Seed the gauges so occupancy/slots are live before first traffic.
		w.publishTelemetry()
	}
	s.aggMu.Lock()
	s.qtm = &telemetry.QueryStats{}
	s.qtm.Register(reg, "")
	s.agg.instrument(s.qtm)
	s.aggMu.Unlock()
	s.watchMu.Lock()
	s.watchTM = &telemetry.WatchStats{}
	s.watchTM.Register(reg, "")
	if s.hub != nil {
		s.hub.instrument(s.watchTM)
	}
	s.watchMu.Unlock()
}

// SetResiliencePolicy installs the supervision policy for the standing-
// query driver (and any future owned goroutines). Call before the first
// Watch; nil means resilience.Default.
func (s *Sharded) SetResiliencePolicy(p *resilience.Policy) {
	s.watchMu.Lock()
	s.resPolicy = p
	s.watchMu.Unlock()
}

// SetPublishScale widens every worker's publication cadence by k (0 and 1
// restore the configured cadence): the degrade ladder's lever. Workers
// pick the new scale up at their next Sync — one atomic load per
// publication, nothing on the packet path. Safe from any goroutine.
func (s *Sharded) SetPublishScale(k uint32) { s.pubScale.Store(k) }

// PublishScale returns the current publication-cadence scale (1 when
// neutral).
func (s *Sharded) PublishScale() uint32 {
	if k := s.pubScale.Load(); k > 1 {
		return k
	}
	return 1
}

// MaxPublishAge returns the age of the oldest absorbed-but-unpublished
// intake across workers — the ingest-lag signal the degrade controller
// watches. A worker with nothing pending contributes zero, so neither an
// idle daemon nor a worker whose bounded feeder finished (published its
// final state and went quiet) can read as ever-growing lag.
func (s *Sharded) MaxPublishAge(now time.Time) time.Duration {
	var maxAge time.Duration
	for _, w := range s.workers {
		first := w.firstPending.Load()
		if first == 0 {
			continue
		}
		if age := now.Sub(time.Unix(0, first)); age > maxAge {
			maxAge = age
		}
	}
	return maxAge
}

// Workers returns the number of workers.
func (s *Sharded) Workers() int { return len(s.workers) }

// Worker returns worker i's handle; each producing goroutine must own its
// worker exclusively.
func (s *Sharded) Worker(i int) *Worker { return s.workers[i] }

// Sync publishes every worker's current state. Because Sync on a worker is an
// owner-goroutine operation, Sharded.Sync is safe only when the caller owns
// all workers or every producer is quiescent with a happens-before edge to
// the caller (e.g. after sync.WaitGroup.Wait). Producers that keep running
// should call their own Worker.Sync instead.
func (s *Sharded) Sync() {
	for _, w := range s.workers {
		w.Sync()
	}
}

// N returns the combined published stream weight: the sum of every worker's
// latest publication. It lags live producers by their bounded publication
// staleness (see the type comment); after Sync it is exact.
func (s *Sharded) N() uint64 {
	var n uint64
	for _, w := range s.workers {
		n += w.PublishedN()
	}
	return n
}

// Psi returns the convergence bound for the combined stream (identical to a
// single worker's: ψ depends on V and ε, not on how the stream is split).
func (s *Sharded) Psi() float64 { return s.workers[0].m.Psi() }

// Converged reports whether the combined published N has passed ψ.
func (s *Sharded) Converged() bool { return float64(s.N()) >= s.Psi() }

// HeavyHitters answers the HHH query over the union stream as of each
// worker's latest publication. Producers are never touched: the query pins
// the published snapshot set and extracts from their union in place, on
// reused buffers, merging a lattice node only when the read goes past the
// node's head (see core.Extractor.ExtractSnapshots). Concurrent HeavyHitters
// calls serialize with each other.
//
// The returned slice is the aggregator's reusable query buffer: treat it as
// read-only, valid until the next HeavyHitters call — copy it (e.g. with
// slices.Clone) to retain or reorder results. A warm query allocates
// nothing, and when no worker published between queries at the same θ the
// whole pipeline short-circuits to the retained result.
func (s *Sharded) HeavyHitters(theta float64) []HeavyHitter {
	if !(theta > 0 && theta <= 1) {
		panic("rhhh: theta must be in (0, 1]")
	}
	s.aggMu.Lock()
	defer s.aggMu.Unlock()
	return s.agg.query(theta)
}

// Snapshot merges every worker's latest publication into one standalone
// Snapshot — queryable, mergeable with other snapshots, and serializable.
// Like HeavyHitters, it never touches a producer.
func (s *Sharded) Snapshot() *Snapshot {
	s.aggMu.Lock()
	defer s.aggMu.Unlock()
	return &Snapshot{
		impl: s.agg.freshSnapshot(),
		dims: s.cfg.Dims,
		gran: s.cfg.Granularity,
		ipv6: s.cfg.IPv6,
	}
}

// shardAgg is the carrier-typed aggregator behind the query path.
type shardAgg interface {
	query(theta float64) []HeavyHitter
	freshSnapshot() snapCore
	watchHub() watchCtl
	instrument(q *telemetry.QueryStats)
	// checkpointer builds the workers' checkpointer (see Checkpointer).
	checkpointer(st *resilience.Store, fullEvery int) checkpointer
}

// aggState implements shardAgg over carrier type K with a reusable extractor
// and converter — a warm query allocates nothing across collect, extraction
// and rendering. A query reads the pinned publications directly through
// Extractor.ExtractSnapshots, which merges a node only when the procedure
// reads past its head, and a query with no new publications short-circuits
// entirely. The merger serves Snapshot alone.
type aggState[K comparable] struct {
	im    *impl[K]           // worker 0's
	rings []*core.PubRing[K] // one per worker, in worker order
	pins  core.PinSet[K]
	sm    core.SnapshotMerger[K]
	ex    *core.Extractor[K]
	conv  converter[K]

	// Watch-path pins, separate from the query path's: the watch hub
	// serializes its ticks on its own lock.
	wpins core.PinSet[K]

	// qtm is the query-path telemetry block (nil when uninstrumented),
	// mutated only under the owning Sharded's aggMu — except the watch
	// tick's pin-retry and node-merge accounting, which uses the cells'
	// atomic Add under the hub lock.
	qtm *telemetry.QueryStats
}

func (a *aggState[K]) instrument(q *telemetry.QueryStats) { a.qtm = q }

// newAggState builds the aggregator and gives every worker a publication
// ring over its engine (the ring publishes epoch 0 on construction, so
// readers always find a snapshot).
func newAggState[K comparable](first *impl[K], workers []*Worker) *aggState[K] {
	a := &aggState[K]{im: first, ex: core.NewExtractor(first.dom)}
	for _, w := range workers {
		ring := core.NewPubRing(w.m.impl.(*impl[K]).eng)
		a.rings = append(a.rings, ring)
		w.ring = ring
	}
	return a
}

// query runs the Output procedure over the latest published snapshot set —
// entirely against pinned publications, never against live engines. The
// pins are held until extraction ends: the extractor reads the
// publications in place.
func (a *aggState[K]) query(theta float64) []HeavyHitter {
	var t0 time.Time
	var merges0 uint64
	if a.qtm != nil {
		t0, merges0 = time.Now(), a.ex.NodeMerges()
	}
	snaps, retries := a.pins.Pin(a.rings)
	rs := a.ex.ExtractSnapshots(snaps, theta)
	a.pins.Unpin()
	res := a.conv.convert(a.im.dom, a.im.split, rs)
	if a.qtm != nil {
		a.qtm.Queries.Add(1)
		a.qtm.PinRetries.Add(uint64(retries))
		a.qtm.NodeMerges.Add(a.ex.NodeMerges() - merges0)
		a.qtm.Hits.Store(uint64(len(res)))
		a.qtm.Latency.ObserveSince(t0)
		a.qtm.Latency.Publish()
	}
	return res
}

// freshSnapshot merges the latest published set through the warm merger
// straight into a new snapshot state: it escapes to the caller, so it shares
// no buffers with the aggregator or the publication rings.
func (a *aggState[K]) freshSnapshot() snapCore {
	snaps, retries := a.pins.Pin(a.rings)
	st := &snapState[K]{dom: a.im.dom, split: a.im.split}
	a.sm.Merge(&st.es, snaps...)
	a.pins.Unpin()
	if a.qtm != nil {
		a.qtm.Queries.Add(1)
		a.qtm.PinRetries.Add(uint64(retries))
	}
	return st
}

func (a *aggState[K]) checkpointer(st *resilience.Store, fullEvery int) checkpointer {
	return core.NewCheckpointer(st, a.rings, fullEvery)
}

// watchHub builds the sharded watch hub: each tick pins the latest published
// snapshot set once for every subscription, and unpins it after the last
// extraction — producers are never paused, and the watch driver does not
// contend with queries. Ticks serialize on the hub lock.
func (a *aggState[K]) watchHub() watchCtl {
	capture := func() []*core.EngineSnapshot[K] {
		snaps, retries := a.wpins.Pin(a.rings)
		if retries != 0 && a.qtm != nil {
			a.qtm.PinRetries.Add(uint64(retries))
		}
		return snaps
	}
	release := func(merges uint64) {
		a.wpins.Unpin()
		if a.qtm != nil {
			a.qtm.NodeMerges.Add(merges)
		}
	}
	return newWatchHub(a.im.dom, a.im.split, a.im.v6, capture, release)
}

// Watch registers a standing query over the union stream: a driver goroutine
// (started by the first Watch) reads the published epochs on the tick
// interval — the smallest WatchOptions.Interval across live subscriptions,
// 100ms by default — and delivers HHH set deltas to the subscription.
// Producers are never paused; a tick observes each worker's latest
// publication (the same bounded staleness as HeavyHitters). Close the
// subscription to unregister, or Close the Sharded to stop the driver and end
// every subscription.
func (s *Sharded) Watch(opts WatchOptions) (*Subscription, error) {
	s.watchMu.Lock()
	defer s.watchMu.Unlock()
	if s.watchClosed {
		return nil, errors.New("rhhh: Watch on a closed Sharded")
	}
	if s.hub == nil {
		s.hub = s.agg.watchHub()
		if s.watchTM != nil {
			s.hub.instrument(s.watchTM)
		}
	}
	sub, err := s.hub.register(opts)
	if err != nil {
		return nil, err
	}
	if s.watchDone == nil {
		// First subscription: start the driver, which now sees the
		// registered interval from the start. The driver is supervised —
		// a panic in a subscriber's OnDelta callback (which runs on the
		// driver goroutine) is captured and the driver restarted with
		// backoff instead of killing the process.
		s.watchStop = make(chan struct{})
		s.watchWake = make(chan struct{}, 1)
		s.watchDone = s.resPolicy.Go("rhhh/sharded-watch", s.watchStop, s.watchLoop)
	} else {
		// Nudge the driver so a shorter interval takes effect immediately.
		select {
		case s.watchWake <- struct{}{}:
		default:
		}
	}
	return sub, nil
}

// watchLoop is the standing-query driver: it ticks the hub on the current
// minimum subscription interval until Close. It runs under the resilience
// policy's supervision (see Watch); the hub releases its lock on a panic,
// so a restarted driver resumes ticking cleanly.
func (s *Sharded) watchLoop() {
	timer := time.NewTimer(s.hub.minInterval())
	defer timer.Stop()
	for {
		select {
		case <-s.watchStop:
			return
		case <-s.watchWake:
			if !timer.Stop() {
				select {
				case <-timer.C:
				default:
				}
			}
		case <-timer.C:
			s.hub.tick()
		}
		timer.Reset(s.hub.minInterval())
	}
}

// Close stops the standing-query driver and closes every subscription's
// Events channel. Updates and queries keep working; further Watch calls
// fail. Idempotent.
func (s *Sharded) Close() error {
	s.watchMu.Lock()
	defer s.watchMu.Unlock()
	if s.watchClosed {
		return nil
	}
	s.watchClosed = true
	if s.watchDone != nil {
		close(s.watchStop)
		<-s.watchDone
	}
	if s.hub != nil {
		s.hub.closeHub()
	}
	return nil
}
