package rhhh

import (
	"errors"
	"net/netip"
	"slices"
	"sync"
	"time"

	"rhhh/internal/core"
	"rhhh/internal/hierarchy"
	"rhhh/internal/telemetry"
)

// This file implements standing queries: instead of polling HeavyHitters and
// re-reading mostly unchanged sets, a subscriber registers once and receives
// the *changes* — a prefix became a hierarchical heavy hitter, one retired,
// one's estimate moved. Every query surface serves them from the same
// machinery: each tick captures the state once — one snapshot, or a pinned
// set of published snapshots — runs the retained Extractor per subscription
// (the unchanged-state shortcut makes idle ticks ~free), and diffs against
// the subscription's last reported set in internal/core.
//
//   - Monitor.Watch + Monitor.Tick: explicit ticks on the caller's schedule
//     (the monitor is single-threaded, so ticks share its goroutine);
//   - Sharded.Watch: a driver goroutine ticks on the capture interval,
//     reading the workers' latest publications exactly like HeavyHitters;
//   - Windowed.Watch: ticks on each completed (sub-)window, so deltas compare
//     consecutive windows — the change-detection deployment;
//   - vswitch.Collector.Watch: the distributed collector ships the same
//     event stream (internal/vswitch).

// Delta is one standing-query event: the change in a subscription's HHH set
// between two consecutive ticks. Replaying the delta stream — insert
// Admitted, remove Retired, overwrite Updated — reconstructs the reported
// set at every tick (bit-identical to a full HeavyHitters query when
// MinDelta is 0).
type Delta struct {
	// Seq is the hub's tick counter at delivery. Ticks without changes
	// deliver nothing, so subscribers observe gaps.
	Seq uint64
	// N is the stream weight backing the tick's query.
	N uint64
	// Theta is the threshold the tick used (recomputed each tick when
	// AutoThetaK is set).
	Theta float64
	// Dropped counts deltas dropped so far on this subscription's channel
	// (see WatchOptions.Buffer). After a drop the replayed set is stale
	// until the subscriber re-syncs with a full query. Always 0 for
	// callback delivery.
	Dropped uint64
	// Admitted holds prefixes that entered the HHH set; Retired ones that
	// left it, carrying their last reported estimates; Updated surviving
	// prefixes whose estimates moved at least MinDelta (current values).
	//
	// For callback delivery the slices are reused buffers, valid only during
	// the call — copy them to retain. Channel delivery clones them, so
	// received slices are owned by the receiver.
	Admitted, Retired, Updated []HeavyHitter
}

// Empty reports whether the delta carries no events (never delivered).
func (d *Delta) Empty() bool {
	return len(d.Admitted) == 0 && len(d.Retired) == 0 && len(d.Updated) == 0
}

// WatchOptions parameterizes one standing-query subscription.
type WatchOptions struct {
	// Theta is the subscription's HHH threshold in (0, 1]. Exactly one of
	// Theta and AutoThetaK must be set.
	Theta float64
	// AutoThetaK, when positive, re-tunes the threshold every tick to the
	// k-th largest conditioned-estimate fraction of the captured state (see
	// Snapshot.SuggestTheta), so the subscription tracks roughly the top k
	// fully specified keys as the traffic mix shifts. The threshold in
	// effect is reported in each Delta.
	AutoThetaK int
	// MinDelta is the count-change hysteresis for Updated events: a
	// surviving prefix is re-reported only when either frequency bound moved
	// at least MinDelta (in stream units) from its last reported value.
	// Membership changes (Admitted/Retired) are never suppressed. 0 reports
	// every change, keeping the delta stream exactly replayable.
	MinDelta float64
	// SrcFilter and DstFilter, when valid, restrict the subscription to
	// prefixes contained in them (DstFilter requires a two-dimensional
	// hierarchy). Filters must match the monitor's address family.
	SrcFilter, DstFilter netip.Prefix
	// OnDelta selects callback delivery: it runs on the ticking goroutine
	// (the driver for Sharded, the caller of Tick for Monitor, the flush
	// path for Windowed), must not block, and must not call Watch, Close or
	// Tick on the same surface. When nil, deltas are delivered on the
	// subscription's Events channel instead.
	OnDelta func(Delta)
	// Buffer is the Events channel capacity (default 16, minimum 1). A slow
	// consumer never blocks measurement: when the channel is full the
	// oldest buffered delta is dropped to make room, and Delta.Dropped
	// counts the losses.
	Buffer int
	// Interval is the subscription's desired tick interval, honored by
	// interval-driven surfaces (Sharded): the driver ticks at the smallest
	// interval across live subscriptions (default 100ms). Monitor and
	// Windowed ignore it — their ticks are explicit or window-driven.
	Interval time.Duration
}

const (
	defaultWatchBuffer   = 16
	defaultWatchInterval = 100 * time.Millisecond
)

// Subscription is one registered standing query. Close unregisters it; for
// channel delivery the Events channel is closed when the subscription (or
// the surface's watch hub) closes.
type Subscription struct {
	hub interface{ remove(*Subscription) }
	ch  chan Delta
}

// Events returns the delivery channel (nil for callback subscriptions).
// Deltas arrive in tick order; when the subscriber lags past the channel
// buffer the oldest deltas are dropped (counted in Delta.Dropped).
func (s *Subscription) Events() <-chan Delta { return s.ch }

// Close unregisters the subscription and closes its Events channel.
// Idempotent.
func (s *Subscription) Close() { s.hub.remove(s) }

// watchCtl is the carrier-erased handle a surface keeps on its hub.
type watchCtl interface {
	register(opts WatchOptions) (*Subscription, error)
	tick()
	closeHub()
	minInterval() time.Duration
	instrument(tm *telemetry.WatchStats)
}

// watchHub drives the standing-query subscriptions of one query surface:
// per tick it captures the surface's state once — the snapshots whose union
// it reads — and runs every subscription's extract → filter → diff →
// deliver pipeline against it. release, when set, ends the capture after
// the last extraction and is told how many nodes the tick merged in full.
type watchHub[K comparable] struct {
	mu      sync.Mutex
	dom     *hierarchy.Domain[K]
	split   func(k K, srcBits, dstBits int) (netip.Prefix, netip.Prefix)
	ipv6    bool
	capture func() []*core.EngineSnapshot[K]
	release func(merges uint64)
	subs    []*subState[K]
	ready   []*subState[K] // scratch: the tick's subscriptions with a delta
	seq     uint64
	closed  bool

	// tm is the hub's telemetry block (nil when uninstrumented); all its
	// owner-side state — including the tick-latency histogram — is mutated
	// only under mu, which serializes every tick. delivered counts deltas
	// handed to subscribers across the hub's lifetime.
	tm        *telemetry.WatchStats
	delivered uint64
}

// instrument attaches the telemetry block. Hub counters surface at each
// tick; the subscription gauge refreshes on register/remove as well.
func (h *watchHub[K]) instrument(tm *telemetry.WatchStats) {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.tm = tm
	tm.Subs.Store(uint64(len(h.subs)))
}

// subState is the per-subscription workspace: its own Extractor (so the
// unchanged-state shortcut and the cached merged nodes apply per θ), its own
// Differ (the hysteresis baseline is per subscriber), and reused filter and
// conversion buffers — a tick that emits nothing allocates nothing.
type subState[K comparable] struct {
	sub                 *Subscription
	opts                WatchOptions
	ex                  *core.Extractor[K]
	differ              *core.Differ[K]
	fbuf                []core.Result[K]
	convA, convR, convU converter[K]
	dropped             uint64
	out                 Delta // the tick's delta, built before any delivery
}

func newWatchHub[K comparable](
	dom *hierarchy.Domain[K],
	split func(k K, srcBits, dstBits int) (netip.Prefix, netip.Prefix),
	ipv6 bool,
	capture func() []*core.EngineSnapshot[K],
	release func(merges uint64),
) *watchHub[K] {
	return &watchHub[K]{dom: dom, split: split, ipv6: ipv6, capture: capture, release: release}
}

func (h *watchHub[K]) register(opts WatchOptions) (*Subscription, error) {
	if err := h.normalize(&opts); err != nil {
		return nil, err
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.closed {
		return nil, errors.New("rhhh: Watch on a closed surface")
	}
	st := &subState[K]{
		opts:   opts,
		ex:     core.NewExtractor(h.dom),
		differ: core.NewDiffer[K](),
	}
	st.sub = &Subscription{hub: h}
	if opts.OnDelta == nil {
		st.sub.ch = make(chan Delta, opts.Buffer)
	}
	h.subs = append(h.subs, st)
	if h.tm != nil {
		h.tm.Subs.Store(uint64(len(h.subs)))
	}
	return st.sub, nil
}

// normalize validates opts and fills defaults.
func (h *watchHub[K]) normalize(o *WatchOptions) error {
	switch {
	case o.AutoThetaK < 0:
		return errors.New("rhhh: WatchOptions.AutoThetaK must be positive")
	case o.AutoThetaK == 0 && !(o.Theta > 0 && o.Theta <= 1):
		return errors.New("rhhh: WatchOptions.Theta must be in (0, 1] (or set AutoThetaK)")
	case o.AutoThetaK > 0 && o.Theta != 0:
		return errors.New("rhhh: set either WatchOptions.Theta or AutoThetaK, not both")
	}
	if !(o.MinDelta >= 0) {
		return errors.New("rhhh: WatchOptions.MinDelta must be non-negative")
	}
	if o.Interval < 0 {
		return errors.New("rhhh: WatchOptions.Interval must be non-negative")
	}
	if o.Buffer < 1 {
		o.Buffer = defaultWatchBuffer
	}
	if o.DstFilter.IsValid() && h.dom.Dims() != 2 {
		return errors.New("rhhh: DstFilter needs a two-dimensional hierarchy")
	}
	for _, f := range []netip.Prefix{o.SrcFilter, o.DstFilter} {
		if f.IsValid() && f.Addr().Is4() == h.ipv6 {
			return errors.New("rhhh: watch filter address family does not match the monitor")
		}
	}
	return nil
}

func (h *watchHub[K]) remove(sub *Subscription) {
	h.mu.Lock()
	defer h.mu.Unlock()
	for i, st := range h.subs {
		if st.sub == sub {
			h.subs = append(h.subs[:i], h.subs[i+1:]...)
			if sub.ch != nil {
				close(sub.ch)
			}
			if h.tm != nil {
				h.tm.Subs.Store(uint64(len(h.subs)))
			}
			return
		}
	}
}

func (h *watchHub[K]) closeHub() {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.closed {
		return
	}
	h.closed = true
	for _, st := range h.subs {
		if st.sub.ch != nil {
			close(st.sub.ch)
		}
	}
	h.subs = nil
	if h.tm != nil {
		h.tm.Subs.Store(0)
	}
}

// minInterval returns the smallest requested tick interval across live
// subscriptions; only when no subscription requests one does the default
// apply (a sole subscription asking for a long interval gets it).
func (h *watchHub[K]) minInterval() time.Duration {
	h.mu.Lock()
	defer h.mu.Unlock()
	var d time.Duration
	for _, st := range h.subs {
		if st.opts.Interval > 0 && (d == 0 || st.opts.Interval < d) {
			d = st.opts.Interval
		}
	}
	if d == 0 {
		d = defaultWatchInterval
	}
	return d
}

// tick runs one standing-query evaluation: one capture, then per
// subscription extraction, filtering and diffing, then delivery. The tick's
// telemetry is stored before the first delivery, so a subscriber that
// scrapes right after receiving a delta sees the tick that produced it.
// Ticks, Watch and Close serialize on the hub lock.
func (h *watchHub[K]) tick() {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.closed || len(h.subs) == 0 {
		return
	}
	var t0 time.Time
	if h.tm != nil {
		t0 = time.Now()
	}
	h.seq++
	h.ready = h.ready[:0]
	h.evaluate()
	if h.tm != nil {
		h.publishTelemetry(t0)
	}
	for _, st := range h.ready {
		st.deliver(st.out)
	}
	if h.tm != nil {
		// Stored after delivery, which is where full channels drop.
		var drops uint64
		for _, st := range h.subs {
			drops += st.dropped
		}
		h.tm.Drops.Store(drops)
	}
}

// evaluate captures the state and runs every subscription's extraction and
// diff against it, building the deltas to deliver; the capture is released
// before any delivery.
func (h *watchHub[K]) evaluate() {
	snaps := h.capture()
	if h.release != nil {
		merges := h.nodeMerges()
		defer func() { h.release(h.nodeMerges() - merges) }()
	}
	var n uint64
	for _, s := range snaps {
		n += s.Weight
	}
	for _, st := range h.subs {
		theta := st.opts.Theta
		if st.opts.AutoThetaK > 0 {
			theta = st.ex.SuggestTheta(snaps, st.opts.AutoThetaK)
		}
		var rs []core.Result[K]
		if n > 0 {
			rs = st.ex.ExtractSnapshots(snaps, theta)
		}
		d := st.differ.Diff(st.filter(h, rs), st.opts.MinDelta)
		if d.Empty() {
			continue
		}
		h.delivered++
		st.out = Delta{
			Seq:      h.seq,
			N:        n,
			Theta:    theta,
			Dropped:  st.dropped,
			Admitted: st.convA.convert(h.dom, h.split, d.Admitted),
			Retired:  st.convR.convert(h.dom, h.split, d.Retired),
			Updated:  st.convU.convert(h.dom, h.split, d.Updated),
		}
		h.ready = append(h.ready, st)
	}
}

// nodeMerges sums the subscriptions' lifetime full node merges.
func (h *watchHub[K]) nodeMerges() uint64 {
	var m uint64
	for _, st := range h.subs {
		m += st.ex.NodeMerges()
	}
	return m
}

// publishTelemetry surfaces the tick's counters and latency. Runs under
// h.mu (the histogram's owner serialization) on every instrumented tick.
func (h *watchHub[K]) publishTelemetry(t0 time.Time) {
	var differs uint64
	for _, st := range h.subs {
		differs += uint64(st.differ.Len())
	}
	tm := h.tm
	tm.Ticks.Store(h.seq)
	tm.Deliveries.Store(h.delivered)
	tm.Subs.Store(uint64(len(h.subs)))
	tm.DifferEntries.Store(differs)
	tm.TickLatency.ObserveSince(t0)
	tm.TickLatency.Publish()
}

// filter keeps only results inside the subscription's prefix filters,
// writing into the reused filter buffer. Without filters rs passes through
// untouched.
func (st *subState[K]) filter(h *watchHub[K], rs []core.Result[K]) []core.Result[K] {
	if !st.opts.SrcFilter.IsValid() && !st.opts.DstFilter.IsValid() {
		return rs
	}
	st.fbuf = st.fbuf[:0]
	for _, r := range rs {
		node := h.dom.Node(r.Node)
		srcP, dstP := h.split(r.Key, node.SrcBits, node.DstBits)
		if f := st.opts.SrcFilter; f.IsValid() && !prefixWithin(srcP, f) {
			continue
		}
		if f := st.opts.DstFilter; f.IsValid() && !prefixWithin(dstP, f) {
			continue
		}
		st.fbuf = append(st.fbuf, r)
	}
	return st.fbuf
}

// prefixWithin reports whether p is contained in f (p at least as specific,
// inside f's range).
func prefixWithin(p, f netip.Prefix) bool {
	return p.Bits() >= f.Bits() && f.Contains(p.Addr())
}

// deliver hands the delta to the subscriber. Callback subscriptions run
// synchronously on the ticking goroutine. Channel subscriptions get cloned
// slices; a full channel drops its oldest delta to make room (latest wins),
// counting the loss in Delta.Dropped — delivery never blocks the tick.
func (st *subState[K]) deliver(d Delta) {
	if st.opts.OnDelta != nil {
		st.opts.OnDelta(d)
		return
	}
	d.Admitted = slices.Clone(d.Admitted)
	d.Retired = slices.Clone(d.Retired)
	d.Updated = slices.Clone(d.Updated)
	for {
		select {
		case st.sub.ch <- d:
			return
		default:
		}
		// Full: delivery only happens under the hub lock (single producer),
		// so after evicting the oldest delta the retry slot is free.
		select {
		case <-st.sub.ch:
			st.dropped++
			d.Dropped = st.dropped
		default:
		}
	}
}

// Watch registers a standing query on the monitor: each Tick evaluates the
// HHH set at the subscription's threshold and delivers the delta against the
// previous tick. The monitor is single-threaded, so ticks are explicit —
// call Tick from the goroutine that updates the monitor, at whatever cadence
// the deployment wants events.
func (m *Monitor) Watch(opts WatchOptions) (*Subscription, error) {
	return m.impl.watch(opts)
}

// Tick runs one standing-query evaluation, delivering deltas to every
// subscription registered with Watch. A tick with no subscriptions — or no
// state change since the previous tick — does no meaningful work and
// allocates nothing.
func (m *Monitor) Tick() { m.impl.tickWatch() }
