package rhhh

import (
	"errors"
	"fmt"
	"net/netip"
	"slices"
	"time"

	"rhhh/internal/core"
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
//     the last k sub-windows (N = ΣNᵢ, see Snapshot), so each delivered
//     result covers a window of k·windowSize packets that slides forward by
//     windowSize at a time. The ring's read, the watch tick and the
//     callback run on a background goroutine, so the producer only pays for
//     the sub-window snapshot copy at a boundary — the flush blocks solely
//     when the previous delivery is still running. Callbacks stay in window
//     order; call Sync (or Flush/Close) to wait for outstanding deliveries.
//
// Every read — a delivered result, a watch tick, an on-demand sliding
// HeavyHitters — extracts from the ring's sub-window snapshots as one
// union, the read Sharded makes over its workers' publications: answers are
// bit-identical to extracting from the snapshots' Merge, which is never
// built.
//
// The monitor is reused across windows — Reset plus a per-window reseed —
// so window turnover allocates nothing and stays reproducible: window i
// behaves bit-identically to a freshly built monitor seeded with
// Seed + i·φ64. Windows remain statistically independent.
//
// The constructors reject a covered window (windowSize, or k·windowSize
// when sliding) below Psi(ε, δ, V). A result carries the paper's guarantees
// only when the stream weight it covers reaches ψ, which WindowResult.
// Converged reports: a sliding window's first results cover fewer than k
// sub-windows, and a partial window delivered by Flush may fall short.
type Windowed struct {
	cfg     Config
	size    uint64
	k       int
	theta   float64
	psi     float64
	onFlush func(WindowResult)
	current *Monitor
	index   uint64

	// ring holds the snapshots of the last k completed sub-windows (k = 1
	// when tumbling) and the extractors that read them.
	ring windowRing

	// Background delivery (sliding mode): each completed sub-window's read,
	// watch tick and callback run on their own goroutine so the flush path
	// — and with it the producer — only pays for the snapshot copy. The
	// flush blocks only when the previous delivery is still running
	// (mergePending), because the new capture overwrites a ring slot the
	// in-flight read may cover. mergeDone carries one token per finished
	// job.
	mergePending bool
	mergeDone    chan struct{}

	// Standing-query hub, created by the first Watch and ticked on each
	// completed (sub-)window (from the delivery goroutine when sliding).
	hub         watchCtl
	watchClosed bool

	// resPolicy supervises the background delivery goroutine (nil =
	// resilience.Default): a panic in the read — or in a callback it runs —
	// is captured and the window's result dropped, instead of killing the
	// process and deadlocking the producer on the mergeDone handshake.
	resPolicy *resilience.Policy

	// Telemetry, installed by Instrument. Flushes and FlushLatency are owned
	// by the producer; MergeLatency by whichever goroutine delivers, which
	// the mergeDone handshake serializes between jobs. watchTM instruments
	// the hub.
	wtm     *telemetry.WindowStats
	watchTM *telemetry.WatchStats
}

// WindowResult is one completed window's output.
type WindowResult struct {
	// Index counts completed (sub-)windows, starting at 0.
	Index uint64
	// N is the stream weight the result covers: the window's packet count
	// when tumbling, the covered sub-windows' total weight when sliding.
	N uint64
	// SubWindows is the number of sub-windows the result covers: always 1
	// when tumbling, min(Index+1, k) when sliding.
	SubWindows int
	// Converged reports whether N reached ψ, the rule of Monitor.Converged:
	// only then do the paper's guarantees hold for HeavyHitters.
	Converged bool
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
// Sliding-mode results are read and delivered on a background goroutine
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
	psi := m.Psi()
	if float64(windowSize)*float64(k) < psi {
		return nil, fmt.Errorf(
			"rhhh: covered window of %d packets is below ψ=%.0f; enlarge the window, the ε, or use R (Corollary 6.8)",
			windowSize*uint64(k), psi)
	}
	w := &Windowed{
		cfg:     cfg,
		size:    windowSize,
		k:       k,
		theta:   theta,
		psi:     psi,
		onFlush: onFlush,
		current: m,
		ring:    m.impl.windowRing(k),
	}
	if k > 1 {
		w.mergeDone = make(chan struct{}, 1)
	}
	return w, nil
}

// sync blocks until the outstanding background delivery (if any) has
// finished. Callers overwriting a ring slot or touching the watch hub must
// sync first.
func (w *Windowed) sync() {
	if w.mergePending {
		<-w.mergeDone
		w.mergePending = false
	}
}

// Sync blocks until every completed window's result has been delivered to
// the callback. Sliding-mode results are read and delivered by a
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
// (k−1)·windowSize plus the current fill. A sliding query reads the ring on
// its own extractor and does not wait for a background delivery.
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
	return w.ring.query(w.index, theta)
}

// WindowSize returns the configured (sub-)window length in packets.
func (w *Windowed) WindowSize() uint64 { return w.size }

// SubWindows returns k, the number of sub-windows a delivered result
// covers (1 when tumbling).
func (w *Windowed) SubWindows() int { return w.k }

// Completed returns the number of windows delivered so far.
func (w *Windowed) Completed() uint64 { return w.index }

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
// delivery goroutine. Call before feeding traffic; nil means
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
		w.hub = w.ring.newHub()
		if w.watchTM != nil {
			w.hub.instrument(w.watchTM)
		}
	}
	return w.hub.register(opts)
}

// Close ends every watch subscription (closing their Events channels);
// further Watch calls fail. The window state itself is unaffected — Flush
// remains available for shutdown delivery. Close waits for an in-flight
// background delivery, so every completed window has been delivered when it
// returns. Idempotent.
func (w *Windowed) Close() error {
	w.sync()
	w.watchClosed = true
	if w.hub != nil {
		w.hub.closeHub()
	}
	return nil
}

// flush closes the open (sub-)window: it captures the window's ring slot,
// resets and reseeds the monitor for the next window, and delivers the
// result — inline when tumbling, so the callback runs before the update
// that closed the window returns, and on a supervised goroutine when
// sliding. Sliding results are delivered in window order because each
// flush waits for the previous delivery before it overwrites a slot.
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
	w.sync()
	res := WindowResult{Index: w.index, SubWindows: w.ring.capture(w.index)}
	w.index++
	// Reset + window-dependent reseed: windows stay statistically
	// independent and runs reproducible — window i is bit-identical to a
	// fresh monitor seeded Seed + i·φ64 — without rebuilding the monitor.
	w.current.Reset()
	w.current.eng.Reseed(w.cfg.Seed + w.index*0x9e3779b97f4a7c15)
	if w.k == 1 {
		w.deliver(res)
		return
	}
	w.mergePending = true
	go func() {
		// The handshake token is released in a defer so the producer's
		// next sync() cannot deadlock even if the delivery panics; Protect
		// captures and records the panic (the window's result is lost, the
		// stream continues).
		defer func() { w.mergeDone <- struct{}{} }()
		w.resPolicy.Protect("rhhh/windowed-merge", func() { w.deliver(res) })
	}()
}

// deliver completes a flushed window: read the covered ring slots as one
// union, tick the standing queries on the same slots, then hand the result
// to the callback. A sliding delivery owns the ring's read state and the
// hub until it signals mergeDone.
func (w *Windowed) deliver(res WindowResult) {
	var t0 time.Time
	if w.wtm != nil {
		t0 = time.Now()
	}
	n, hh := w.ring.read(w.theta)
	res.N, res.HeavyHitters = n, slices.Clone(hh)
	res.Converged = float64(n) >= w.psi
	if w.hub != nil {
		w.hub.tick()
	}
	if w.wtm != nil {
		w.wtm.MergeLatency.ObserveSince(t0)
		w.wtm.MergeLatency.Publish()
	}
	w.onFlush(res)
}

// windowRing is the carrier-typed half of a Windowed, built by the
// monitor's impl: a ring of k sub-window snapshots that every read takes as
// one union through a retained core.Extractor.
type windowRing interface {
	// capture copies the open sub-window into window index's slot and
	// makes the slots of the last min(index+1, k) windows, oldest first,
	// the covered set that read and the hub's ticks use. It returns their
	// count.
	capture(index uint64) int
	// read answers the covered set at theta and returns its stream weight.
	read(theta float64) (uint64, []HeavyHitter)
	// query answers the last min(index, k−1) completed slots plus a fresh
	// capture of the open sub-window, on its own extractor and buffers, so
	// it neither disturbs nor waits for a background read.
	query(index uint64, theta float64) []HeavyHitter
	// newHub builds the standing-query hub, whose ticks read the covered
	// set.
	newHub() watchCtl
}

// ringState implements windowRing over carrier type K.
type ringState[K comparable] struct {
	im    *impl[K]
	slots []core.EngineSnapshot[K] // window i's snapshot is slots[i%k]

	// Delivery side: the covered set and its reader.
	cover []*core.EngineSnapshot[K]
	ex    *core.Extractor[K]
	conv  converter[K]

	// On-demand side: the open sub-window's capture and its reader.
	open   core.EngineSnapshot[K]
	qcover []*core.EngineSnapshot[K]
	qex    *core.Extractor[K]
	qconv  converter[K]
}

func (im *impl[K]) windowRing(k int) windowRing {
	return &ringState[K]{
		im:    im,
		slots: make([]core.EngineSnapshot[K], k),
		ex:    core.NewExtractor(im.dom),
		qex:   core.NewExtractor(im.dom),
	}
}

// last sets dst to the slots of the min(n, limit) windows before window n,
// oldest first — the order that fixes the union's tie-breaking.
func (r *ringState[K]) last(dst []*core.EngineSnapshot[K], n uint64, limit int) []*core.EngineSnapshot[K] {
	k := uint64(len(r.slots))
	dst = dst[:0]
	for i := n - min(n, uint64(limit)); i < n; i++ {
		dst = append(dst, &r.slots[i%k])
	}
	return dst
}

func (r *ringState[K]) capture(index uint64) int {
	r.im.eng.SnapshotInto(&r.slots[index%uint64(len(r.slots))])
	r.cover = r.last(r.cover, index+1, len(r.slots))
	return len(r.cover)
}

func (r *ringState[K]) read(theta float64) (uint64, []HeavyHitter) {
	var n uint64
	for _, s := range r.cover {
		n += s.Weight
	}
	return n, r.conv.convert(r.im.dom, r.im.split, r.ex.ExtractSnapshots(r.cover, theta))
}

func (r *ringState[K]) query(index uint64, theta float64) []HeavyHitter {
	r.qcover = append(r.last(r.qcover, index, len(r.slots)-1), r.im.eng.SnapshotInto(&r.open))
	return r.qconv.convert(r.im.dom, r.im.split, r.qex.ExtractSnapshots(r.qcover, theta))
}

func (r *ringState[K]) newHub() watchCtl {
	im := r.im
	return newWatchHub(im.dom, im.split, im.v6, func() []*core.EngineSnapshot[K] { return r.cover }, nil)
}
