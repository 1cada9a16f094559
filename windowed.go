package rhhh

import (
	"errors"
	"fmt"
	"net/netip"
	"slices"
	"time"

	"rhhh/internal/core"
	"rhhh/internal/hierarchy"
	"rhhh/internal/resilience"
	"rhhh/internal/telemetry"
)

// Windowed measures hierarchical heavy hitters over windows of a fixed
// packet count — the epoch-based deployment §6.3 of the paper alludes to
// ("when the minimal measurement interval is known in advance, the
// parameter V can be set to satisfy correctness at the end of the
// measurement"). Two modes:
//
//   - Tumbling (NewWindowed): when a window fills, its HHH set is delivered
//     to the callback and counting restarts from empty.
//   - Sliding (NewSlidingWindowed): the stream is cut into sub-windows of
//     `windowSize` packets whose snapshots are kept in a ring; when a
//     sub-window closes, the callback receives the HHH set of the union of
//     the last k sub-windows (merged with N-weighted bounds, see Snapshot),
//     so each delivered result covers a window of k·windowSize packets that
//     slides forward by windowSize at a time. The ring merge, extraction and
//     callback run on a background goroutine so the producer only pays for
//     the sub-window snapshot copy at a boundary — the flush blocks solely
//     when the previous merge is still running. Callbacks stay ordered and
//     bit-identical to the synchronous path; call Sync (or Flush/Close) to
//     wait for outstanding deliveries.
//
// The monitor is reused across windows — Reset plus a per-window reseed —
// so window turnover allocates nothing and stays reproducible: window i
// behaves bit-identically to a freshly built monitor seeded with
// Seed + i·φ64. Windows remain statistically independent.
//
// Choose the covered window (windowSize, or k·windowSize when sliding)
// ≥ Psi(ε, δ, V) so every delivered result carries the paper's guarantees;
// the constructors reject configurations below ψ.
type Windowed struct {
	cfg     Config
	size    uint64
	k       int
	theta   float64
	onFlush func(WindowResult)
	current *Monitor
	index   uint64

	// Sliding-mode state: ring of the last k sub-window snapshots and the
	// reused merge destination. All nil in tumbling mode.
	ring      []*Snapshot
	order     []*Snapshot // scratch: ring reordered oldest → newest
	merged    *Snapshot
	querySnap *Snapshot // scratch for on-demand HeavyHitters
	qMerged   *Snapshot // on-demand merge destination, separate from the
	// flush path's so the background merger's caches stay warm

	// Background ring merge (sliding mode): each completed sub-window's
	// merge + extraction + delivery runs on its own goroutine so the flush
	// path — and with it the producer — only pays for the snapshot copy.
	// The flush blocks only when the previous merge is still running
	// (mergePending), because the new capture overwrites a ring slot the
	// in-flight merge reads. mergeDone carries one token per finished job.
	mergePending bool
	mergeDone    chan struct{}

	// Standing-query hub, created by the first Watch and ticked on each
	// completed (sub-)window (from the merge goroutine when sliding).
	hub         watchCtl
	watchClosed bool

	// resPolicy supervises the background merge goroutine (nil =
	// resilience.Default): a panic in the merge — or in a subscriber
	// callback it runs — is captured and the window's result dropped,
	// instead of killing the process and deadlocking the producer on the
	// mergeDone handshake.
	resPolicy *resilience.Policy

	// Telemetry, installed by Instrument. Flushes and FlushLatency are owned
	// by the producer; MergeLatency by the merge goroutine, serialized between
	// jobs through the mergeDone handshake. watchTM instruments the hub.
	wtm     *telemetry.WindowStats
	watchTM *telemetry.WatchStats
}

// WindowResult is one completed window's output.
type WindowResult struct {
	// Index counts completed (sub-)windows, starting at 0.
	Index uint64
	// N is the stream weight the result covers: the window's packet count
	// when tumbling, the merged weight of the covered sub-windows when
	// sliding.
	N uint64
	// SubWindows is the number of sub-windows the result covers: always 1
	// when tumbling, min(Index+1, k) when sliding.
	SubWindows int
	// HeavyHitters is the window's HHH set at the configured θ. The slice is
	// owned by the result (copied out of the reusable query buffers), so
	// callbacks may retain it across windows.
	HeavyHitters []HeavyHitter
}

// NewWindowed builds a tumbling-window monitor delivering results for
// threshold theta to onFlush every windowSize packets.
func NewWindowed(cfg Config, windowSize uint64, theta float64, onFlush func(WindowResult)) (*Windowed, error) {
	return newWindowed(cfg, windowSize, 1, theta, onFlush)
}

// NewSlidingWindowed builds a sliding-window monitor: sub-windows of
// windowSize packets, each delivered result covering the last k of them.
// k = 1 degenerates to tumbling.
//
// Sliding-mode results are merged and delivered on a background goroutine
// (see Windowed); onFlush must not call back into the Windowed.
func NewSlidingWindowed(cfg Config, windowSize uint64, k int, theta float64, onFlush func(WindowResult)) (*Windowed, error) {
	if k < 1 {
		return nil, fmt.Errorf("rhhh: sliding window needs k >= 1 sub-windows, got %d", k)
	}
	return newWindowed(cfg, windowSize, k, theta, onFlush)
}

func newWindowed(cfg Config, windowSize uint64, k int, theta float64, onFlush func(WindowResult)) (*Windowed, error) {
	if windowSize == 0 {
		return nil, errors.New("rhhh: window size must be positive")
	}
	if !(theta > 0 && theta <= 1) {
		return nil, errors.New("rhhh: theta must be in (0, 1]")
	}
	if onFlush == nil {
		return nil, errors.New("rhhh: onFlush callback required")
	}
	m, err := New(cfg)
	if err != nil {
		return nil, err
	}
	if psi := m.Psi(); float64(windowSize)*float64(k) < psi {
		return nil, fmt.Errorf(
			"rhhh: covered window of %d packets is below ψ=%.0f; enlarge the window, the ε, or use R (Corollary 6.8)",
			windowSize*uint64(k), psi)
	}
	w := &Windowed{
		cfg:     cfg,
		size:    windowSize,
		k:       k,
		theta:   theta,
		onFlush: onFlush,
		current: m,
	}
	if k > 1 {
		w.ring = make([]*Snapshot, k)
		w.order = make([]*Snapshot, 0, k)
		w.mergeDone = make(chan struct{}, 1)
	}
	return w, nil
}

// sync blocks until the outstanding background merge (if any) has delivered
// its window result. Callers touching the ring, the merge scratch or the
// watch hub must sync first.
func (w *Windowed) sync() {
	if w.mergePending {
		<-w.mergeDone
		w.mergePending = false
	}
}

// Sync blocks until every completed window's result has been delivered to
// the callback. Sliding-mode results are merged and delivered by a
// background goroutine (see NewSlidingWindowed); Sync is the barrier a
// caller needs before inspecting state the callback populates. Tumbling
// windows deliver synchronously, making Sync a no-op.
func (w *Windowed) Sync() { w.sync() }

// Update feeds one packet; when the window fills, the callback fires
// synchronously and a fresh window begins.
func (w *Windowed) Update(src, dst netip.Addr) {
	w.current.Update(src, dst)
	if w.current.N() >= w.size {
		w.flush()
	}
}

// UpdateWeighted feeds one packet carrying weight wgt (e.g. its byte
// count); window boundaries are measured in stream weight, so a heavy
// packet can close the window by itself.
func (w *Windowed) UpdateWeighted(src, dst netip.Addr, wgt uint64) {
	w.current.UpdateWeighted(src, dst, wgt)
	if w.current.N() >= w.size {
		w.flush()
	}
}

// UpdateBatch feeds a batch of packets in one call, splitting the batch at
// window boundaries: results (delivered windows included) are identical to
// feeding every packet through Update in order. For Dims == 1 pass
// dsts == nil. A panic on a bad batch changes no window.
func (w *Windowed) UpdateBatch(srcs, dsts []netip.Addr) {
	checkBatch(w.cfg, srcs, dsts, nil, false)
	for checked := false; len(srcs) > 0; {
		room := w.size - w.current.N() // packets until the boundary
		n := uint64(len(srcs))
		if n > room {
			n = room
		}
		if n < uint64(len(srcs)) && !checked {
			// The batch crosses a window boundary: check all of it before
			// its first chunk lands (each chunk checks only itself).
			checkFamilies(w.cfg.IPv6, srcs, dsts)
			checked = true
		}
		var chunkDst []netip.Addr
		if dsts != nil {
			chunkDst = dsts[:n]
			dsts = dsts[n:]
		}
		w.current.impl.updateBatch(srcs[:n], chunkDst, nil)
		srcs = srcs[n:]
		if w.current.N() >= w.size {
			w.flush()
		}
	}
}

// UpdateWeightedBatch feeds a batch of packets carrying per-packet weights
// (e.g. byte counts) in one call, splitting the batch at window boundaries:
// results (delivered windows included) are identical to feeding every
// (packet, weight) pair through UpdateWeighted in order — a heavy packet
// closes the window exactly where it would have sequentially. For Dims == 1
// pass dsts == nil; ws must be the same length as srcs. A panic on a bad
// batch changes no window.
func (w *Windowed) UpdateWeightedBatch(srcs, dsts []netip.Addr, ws []uint64) {
	checkBatch(w.cfg, srcs, dsts, ws, true)
	for checked := false; len(srcs) > 0; {
		room := w.size - w.current.N() // weight until the boundary
		// Take packets up to and including the one whose weight crosses the
		// boundary — the packet after which the sequential path would flush.
		n := 0
		var acc uint64
		for n < len(srcs) {
			acc += ws[n]
			n++
			if acc >= room {
				break
			}
		}
		if n < len(srcs) && !checked {
			// The batch crosses a window boundary: check all of it first.
			checkFamilies(w.cfg.IPv6, srcs, dsts)
			checked = true
		}
		var chunkDst []netip.Addr
		if dsts != nil {
			chunkDst = dsts[:n]
			dsts = dsts[n:]
		}
		w.current.impl.updateBatch(srcs[:n], chunkDst, ws[:n])
		srcs = srcs[n:]
		ws = ws[n:]
		if w.current.N() >= w.size {
			w.flush()
		}
	}
}

// Flush force-closes the current window (e.g. at shutdown), delivering its
// partial result if it saw any traffic. Partial windows may not have
// converged; WindowResult.N tells the consumer how much stream backed it.
// Flush returns only after the result (and any previously pending one) has
// been handed to the callback.
func (w *Windowed) Flush() {
	if w.current.N() > 0 {
		w.flush()
	}
	w.sync()
}

// HeavyHitters answers an on-demand query without closing the window: the
// union of the last min(Completed, k−1) completed sub-windows and the
// in-progress one (tumbling mode: just the in-progress window). The
// in-progress window's packets are included, so the covered span is up to
// (k−1)·windowSize plus the current fill.
//
// The returned slice is a reusable query buffer: treat it as read-only,
// valid until the next query on this Windowed — copy it to retain results
// (delivered WindowResults are already copies).
func (w *Windowed) HeavyHitters(theta float64) []HeavyHitter {
	if !(theta > 0 && theta <= 1) {
		panic("rhhh: theta must be in (0, 1]")
	}
	if w.k == 1 {
		return w.current.HeavyHitters(theta)
	}
	w.sync()
	w.querySnap = w.current.SnapshotInto(w.querySnap)
	w.collectRing(w.k - 1)
	w.order = append(w.order, w.querySnap)
	merged, err := mergeSnapshots(w.qMerged, w.order)
	if err != nil {
		panic("rhhh: windowed merge failed: " + err.Error())
	}
	w.qMerged = merged
	return merged.HeavyHitters(theta)
}

// WindowSize returns the configured (sub-)window length in packets.
func (w *Windowed) WindowSize() uint64 { return w.size }

// SubWindows returns k, the number of sub-windows a delivered result
// covers (1 when tumbling).
func (w *Windowed) SubWindows() int { return w.k }

// Completed returns the number of windows delivered so far.
func (w *Windowed) Completed() uint64 { return w.index }

// collectRing fills w.order with up to limit of the most recent completed
// sub-window snapshots, oldest first (the deterministic merge order).
func (w *Windowed) collectRing(limit int) {
	w.order = w.order[:0]
	count := int(min(w.index, uint64(limit)))
	for j := count - 1; j >= 0; j-- {
		w.order = append(w.order, w.ring[(w.index-1-uint64(j))%uint64(w.k)])
	}
}

// Instrument registers the window-rotation telemetry (flush count, flush and
// merge latency, standing-query stats) with reg. Call it before feeding
// traffic; a nil reg is a no-op.
func (w *Windowed) Instrument(reg *Registry) {
	if reg == nil {
		return
	}
	w.sync()
	w.wtm = &telemetry.WindowStats{}
	w.wtm.Register(reg, "")
	w.watchTM = &telemetry.WatchStats{}
	w.watchTM.Register(reg, "")
	if w.hub != nil {
		w.hub.instrument(w.watchTM)
	}
}

// SetResiliencePolicy installs the supervision policy for the background
// merge goroutine. Call before feeding traffic; nil means
// resilience.Default.
func (w *Windowed) SetResiliencePolicy(p *resilience.Policy) {
	w.sync()
	w.resPolicy = p
}

// Watch registers a standing query ticked on each completed (sub-)window,
// before the window result is delivered: deltas compare the HHH set of
// consecutive covered windows (the union of the last k sub-windows when
// sliding) at the subscription's own threshold — the change-detection
// deployment, where a subscriber learns that a prefix became heavy this
// window or stopped being heavy, without re-reading full sets.
// WatchOptions.Interval is ignored: window turnover is the tick.
func (w *Windowed) Watch(opts WatchOptions) (*Subscription, error) {
	if w.watchClosed {
		return nil, errors.New("rhhh: Watch on a closed Windowed")
	}
	w.sync()
	if w.hub == nil {
		hub, err := newWindowedHub(w)
		if err != nil {
			return nil, err
		}
		w.hub = hub
		if w.watchTM != nil {
			w.hub.instrument(w.watchTM)
		}
	}
	return w.hub.register(opts)
}

// Close ends every watch subscription (closing their Events channels);
// further Watch calls fail. The window state itself is unaffected — Flush
// remains available for shutdown delivery. Close waits for an in-flight
// background merge, so every completed window has been delivered when it
// returns. Idempotent.
func (w *Windowed) Close() error {
	w.sync()
	w.watchClosed = true
	if w.hub != nil {
		w.hub.closeHub()
	}
	return nil
}

// newWindowedHub dispatches hub construction over the four carrier types.
func newWindowedHub(w *Windowed) (watchCtl, error) {
	switch im := w.current.impl.(type) {
	case *impl[uint32]:
		return windowedHub(w, im), nil
	case *impl[uint64]:
		return windowedHub(w, im), nil
	case *impl[hierarchy.Addr]:
		return windowedHub(w, im), nil
	case *impl[hierarchy.AddrPair]:
		return windowedHub(w, im), nil
	default:
		return nil, fmt.Errorf("rhhh: unknown windowed implementation %T", w.current.impl)
	}
}

// windowedHub builds the typed hub: capture reads the covered window's state
// at flush time — the ring-merged snapshot when sliding, a reused snapshot
// of the closing monitor when tumbling.
func windowedHub[K comparable](w *Windowed, im *impl[K]) watchCtl {
	var buf core.EngineSnapshot[K]
	var one [1]*core.EngineSnapshot[K]
	capture := func() []*core.EngineSnapshot[K] {
		if w.k > 1 {
			one[0] = &w.merged.impl.(*snapState[K]).es
		} else {
			one[0] = im.eng.SnapshotInto(&buf)
		}
		return one[:]
	}
	return newWatchHub(im.dom, im.split, im.v6, capture, nil)
}

func (w *Windowed) flush() {
	var t0 time.Time
	if w.wtm != nil {
		t0 = time.Now()
		defer func() {
			w.wtm.Flushes.Add(1)
			w.wtm.FlushLatency.ObserveSince(t0)
			w.wtm.FlushLatency.Publish()
		}()
	}
	res := WindowResult{Index: w.index, SubWindows: 1}
	if w.k == 1 {
		res.N = w.current.N()
		res.HeavyHitters = slices.Clone(w.current.HeavyHitters(w.theta))
		// Standing-query tick on the covered window's final state — before
		// the monitor resets for the next window.
		if w.hub != nil {
			w.hub.tick()
		}
		w.index++
		// Reset + window-dependent reseed: windows stay statistically
		// independent and runs reproducible — window i is bit-identical to a
		// fresh monitor seeded Seed + i·φ64 — without rebuilding the monitor.
		w.current.Reset()
		w.current.eng.Reseed(w.cfg.Seed + w.index*0x9e3779b97f4a7c15)
		w.onFlush(res)
		return
	}
	// Sliding mode: the flush path pays only for the previous merge (if it
	// has not finished), the sub-window snapshot copy and the reset; the
	// ring merge, HHH extraction, watch tick and callback all run on the
	// merge goroutine. Results are delivered in window order because jobs
	// serialize on mergeDone.
	w.sync()
	slot := w.index % uint64(w.k)
	w.ring[slot] = w.current.SnapshotInto(w.ring[slot])
	w.collectRing(w.k - 1)
	w.order = append(w.order, w.ring[slot])
	res.SubWindows = len(w.order)
	w.index++
	w.current.Reset()
	w.current.eng.Reseed(w.cfg.Seed + w.index*0x9e3779b97f4a7c15)
	w.mergePending = true
	go func() {
		// The handshake token is released in a defer so the producer's
		// next sync() cannot deadlock even if the merge panics; Protect
		// captures and records the panic (the window's result is lost,
		// the stream continues).
		defer func() { w.mergeDone <- struct{}{} }()
		w.resPolicy.Protect("rhhh/windowed-merge", func() { w.runMerge(res) })
	}()
}

// runMerge is the background half of a sliding flush: merge the covered
// sub-windows, extract and deliver the window result, tick the standing
// queries, then release the flush path. The goroutine exclusively owns
// w.order, w.merged and the hub until it signals mergeDone.
func (w *Windowed) runMerge(res WindowResult) {
	var t0 time.Time
	if w.wtm != nil {
		t0 = time.Now()
	}
	merged, err := mergeSnapshots(w.merged, w.order)
	if err != nil {
		panic("rhhh: windowed merge failed: " + err.Error())
	}
	w.merged = merged
	res.N = merged.N()
	res.HeavyHitters = slices.Clone(merged.HeavyHitters(w.theta))
	if w.hub != nil {
		w.hub.tick()
	}
	if w.wtm != nil {
		w.wtm.MergeLatency.ObserveSince(t0)
		w.wtm.MergeLatency.Publish()
	}
	w.onFlush(res)
}
