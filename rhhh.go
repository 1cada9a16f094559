// Package rhhh implements Randomized Hierarchical Heavy Hitters (RHHH) from
// "Constant Time Updates in Hierarchical Heavy Hitters" (Ben Basat, Einziger,
// Friedman, Luizelli, Waisbard — SIGCOMM 2017). Every Monitor, Sharded and
// Windowed runs the one RHHH engine (internal/core); the deterministic
// baselines the paper measures it against (MST and the ancestry tries, in
// internal/baseline) are driven by cmd/hhhbench for Figures 4–6.
//
// A hierarchical heavy hitter (HHH) is an IP prefix — such as 181.7.0.0/16,
// or the source/destination pair (181.7.0.0/16 → 10.0.0.0/8) — responsible
// for more than a θ fraction of traffic that is not already accounted for by
// more specific heavy prefixes. RHHH finds approximate HHHs with O(1) worst
// case work per packet: instead of updating every level of the prefix
// hierarchy (H of them), each packet updates at most one randomly chosen
// level.
//
// Basic use:
//
//	m, err := rhhh.New(rhhh.Config{
//		Dims:        2,
//		Granularity: rhhh.Byte,
//		Epsilon:     0.001,
//		Delta:       0.001,
//	})
//	...
//	for each packet { m.Update(srcAddr, dstAddr) }
//	for _, hh := range m.HeavyHitters(0.01) { fmt.Println(hh) }
//
// The probabilistic guarantees hold once N ≥ Psi() packets have been
// processed (Theorem 6.17); Converged() reports that. Setting V to a
// multiple of the hierarchy size trades convergence speed for per-packet
// cost ("10-RHHH" in the paper is V = 10·H).
package rhhh

import (
	"errors"
	"fmt"
	"math"
	"net/netip"

	"rhhh/internal/core"
	"rhhh/internal/hierarchy"
	"rhhh/internal/stats"
	"rhhh/internal/telemetry"
)

// Granularity is the prefix step of the hierarchy.
type Granularity int

// Byte gives the paper's byte-level hierarchies (H=5 for 1D IPv4); Nibble
// and Bit refine them (H=33 for 1D IPv4 bits — where RHHH's O(1) update
// shines).
const (
	Byte Granularity = iota
	Nibble
	Bit
)

func (g Granularity) hier() hierarchy.Granularity {
	switch g {
	case Byte:
		return hierarchy.Bytes
	case Nibble:
		return hierarchy.Nibbles
	case Bit:
		return hierarchy.Bits
	default:
		panic(fmt.Sprintf("rhhh: unknown granularity %d", int(g)))
	}
}

// Algorithm selects the measurement algorithm.
//
// Deprecated: RHHH is the only algorithm a Monitor runs, and New rejects
// any other value. Leave Config.Algorithm unset. The paper's deterministic
// baselines are in internal/baseline; hhhbench -fig 4|5|6 runs them.
type Algorithm int

// RHHH is the paper's O(1) randomized algorithm, the only Algorithm value.
const RHHH Algorithm = 0

// Backend selects the per-lattice-node counter structure of the RHHH
// engine.
type Backend int

// StreamSummary is the paper's Space Saving Stream-Summary (default):
// deterministic over-estimates with the Definition 4 (ε, δ) guarantee, O(1)
// updates through a bucket list. CuckooHeavyKeeper stores counters directly
// in a cuckoo table with exponential-decay eviction (after "Cuckoo Heavy
// Keeper", arXiv 2412.12873): no bucket list and a cheaper eviction path,
// at the price of probabilistic under-estimates — heavy-hitter recall is
// empirical rather than guaranteed (see internal/chk). Both run every
// surface: snapshots, merging, Sharded, Windowed, Watch and telemetry.
const (
	StreamSummary Backend = iota
	CuckooHeavyKeeper
)

func (b Backend) String() string {
	switch b {
	case StreamSummary:
		return "stream-summary"
	case CuckooHeavyKeeper:
		return "chk"
	default:
		return fmt.Sprintf("backend(%d)", int(b))
	}
}

// Config parameterizes a Monitor. Zero values get sensible defaults where a
// default exists; Epsilon and Delta must be set explicitly since they
// determine memory and convergence.
type Config struct {
	// Dims is 1 (source hierarchy) or 2 (source × destination).
	Dims int
	// Granularity is the hierarchy step (default Byte).
	Granularity Granularity
	// IPv6 selects 128-bit hierarchies.
	IPv6 bool
	// Epsilon is the frequency estimation error bound ε ∈ (0,1); memory is
	// proportional to H/ε.
	Epsilon float64
	// Delta is the failure probability δ ∈ (0,1) of the probabilistic
	// guarantees; with Epsilon and V it sets the convergence bound ψ.
	Delta float64
	// V is RHHH's performance parameter (0 → H; larger is faster but
	// converges proportionally slower).
	V int
	// R is the number of independent RHHH updates per packet
	// (Corollary 6.8; 0 → 1).
	R int
	// Seed makes RHHH's randomized update path reproducible.
	Seed uint64
	// Algorithm must be RHHH (the zero value).
	//
	// Deprecated: RHHH is the only algorithm; see Algorithm.
	Algorithm Algorithm
	// Backend selects the engine's counter structure (default
	// StreamSummary; see Backend).
	Backend Backend
}

// HeavyHitter is one reported prefix.
type HeavyHitter struct {
	// Src is the source prefix; Dst is only valid when Dims == 2.
	Src netip.Prefix
	Dst netip.Prefix
	// Text is the paper-style rendering, e.g. "181.7.*" or
	// "(181.7.* -> 10.0.0.1)".
	Text string
	// Lower and Upper bound the prefix's frequency (f̂−, f̂+).
	Lower, Upper float64
	// Cond is the conservative conditioned-frequency estimate that
	// admitted the prefix (Ĉp|P ≥ θ·N).
	Cond float64
	// Level is the generalization distance from fully specified addresses
	// (0 = exact address/pair).
	Level int
}

// String renders the heavy hitter in paper style with its bounds.
func (h HeavyHitter) String() string {
	return fmt.Sprintf("%s [%.0f, %.0f]", h.Text, h.Lower, h.Upper)
}

// Monitor finds hierarchical heavy hitters over a packet stream. It is not
// safe for concurrent use; shard streams across Monitors or serialize
// externally.
type Monitor struct {
	impl monImpl
	eng  engine // impl's engine, for the calls that do not need its key type
	cfg  Config
}

// monImpl is the key-typed half of a Monitor: one impl per carrier type
// (uint32, uint64, hierarchy.Addr, hierarchy.AddrPair).
type monImpl interface {
	update(src, dst hierarchy.Addr, w uint64)
	updateBatch(srcs, dsts []netip.Addr, ws []uint64)
	output(theta float64) []HeavyHitter
	snapshotInto(dst *Snapshot) *Snapshot
	loadSnapshot(sc snapCore) error
	watch(opts WatchOptions) (*Subscription, error)
	tickWatch()
	instrument(reg *telemetry.Registry)
	windowRing(k int) windowRing
}

// engine is the part of *core.Engine[K] that does not depend on K.
type engine interface {
	Weight() uint64
	Psi() float64
	H() int
	V() int
	Reset()
	Reseed(seed uint64)
	TelemetryInto(st *telemetry.EngineStats)
}

// New validates cfg and builds a Monitor.
func New(cfg Config) (*Monitor, error) {
	if cfg.Dims != 1 && cfg.Dims != 2 {
		return nil, fmt.Errorf("rhhh: Dims must be 1 or 2, got %d", cfg.Dims)
	}
	if !(cfg.Epsilon > 0 && cfg.Epsilon < 1) {
		return nil, errors.New("rhhh: Epsilon must be in (0, 1)")
	}
	if !(cfg.Delta > 0 && cfg.Delta < 1) {
		return nil, errors.New("rhhh: Delta must be in (0, 1)")
	}
	if cfg.R < 0 {
		return nil, fmt.Errorf("rhhh: R must not be negative, got %d", cfg.R)
	}
	switch cfg.Granularity {
	case Byte, Nibble, Bit:
	default:
		return nil, fmt.Errorf("rhhh: unknown granularity %d", int(cfg.Granularity))
	}
	if cfg.Algorithm != RHHH {
		return nil, fmt.Errorf("rhhh: unknown algorithm %d (RHHH is the only one)", int(cfg.Algorithm))
	}
	var backend core.Backend
	switch cfg.Backend {
	case StreamSummary:
		backend = core.SpaceSavingBackend
	case CuckooHeavyKeeper:
		backend = core.CHKBackend
	default:
		return nil, fmt.Errorf("rhhh: unknown backend %d (want StreamSummary or CuckooHeavyKeeper)", int(cfg.Backend))
	}

	switch {
	case cfg.Dims == 1 && !cfg.IPv6:
		dom := hierarchy.NewIPv4OneDim(cfg.Granularity.hier())
		return build(cfg, backend, dom,
			func(src, _ hierarchy.Addr) uint32 { return src.IPv4() },
			split1v4)
	case cfg.Dims == 2 && !cfg.IPv6:
		dom := hierarchy.NewIPv4TwoDim(cfg.Granularity.hier())
		return build(cfg, backend, dom,
			func(src, dst hierarchy.Addr) uint64 {
				return hierarchy.Pack2D(src.IPv4(), dst.IPv4())
			},
			split2v4)
	case cfg.Dims == 1 && cfg.IPv6:
		dom := hierarchy.NewIPv6OneDim(cfg.Granularity.hier())
		return build(cfg, backend, dom,
			func(src, _ hierarchy.Addr) hierarchy.Addr { return src },
			split1v6)
	default:
		dom := hierarchy.NewIPv6TwoDim(cfg.Granularity.hier())
		return build(cfg, backend, dom,
			func(src, dst hierarchy.Addr) hierarchy.AddrPair {
				return hierarchy.AddrPair{Src: src, Dst: dst}
			},
			split2v6)
	}
}

// MustNew is New, panicking on error — convenient in examples and tests.
func MustNew(cfg Config) *Monitor {
	m, err := New(cfg)
	if err != nil {
		panic(err)
	}
	return m
}

// Update records one packet. For Dims == 1 dst is ignored (pass the zero
// netip.Addr). Addresses of the wrong family are a programming error and
// panic.
func (m *Monitor) Update(src, dst netip.Addr) {
	m.impl.update(toAddr(src, m.cfg.IPv6), toAddr(dst, m.cfg.IPv6), 1)
}

// UpdateWeighted records one packet carrying weight w (e.g. its byte count).
func (m *Monitor) UpdateWeighted(src, dst netip.Addr, w uint64) {
	m.impl.update(toAddr(src, m.cfg.IPv6), toAddr(dst, m.cfg.IPv6), w)
}

// UpdateBatch records a batch of packets in one call — the DPDK-style unit
// of work. For Dims == 1 pass dsts == nil; otherwise dsts must be the same
// length as srcs. Results are identical to updating each packet in order;
// the RHHH engine amortizes per-call overhead and, when V > H (with R = 1),
// skips over non-sampled packets in bulk: every address's family is checked,
// but only the sampled packets are converted to keys. A panic on a bad batch
// leaves the monitor unchanged.
func (m *Monitor) UpdateBatch(srcs, dsts []netip.Addr) {
	checkBatch(m.cfg, srcs, dsts, nil, false)
	m.impl.updateBatch(srcs, dsts, nil)
}

// UpdateWeightedBatch records a batch of packets carrying per-packet weights
// (e.g. byte counts) in one call. For Dims == 1 pass dsts == nil; dsts (when
// given) and ws must be the same length as srcs. Results are identical to
// updating each (packet, weight) pair through UpdateWeighted in order; the
// RHHH engine applies the batch's samples node-grouped through its pipelined
// update kernel.
func (m *Monitor) UpdateWeightedBatch(srcs, dsts []netip.Addr, ws []uint64) {
	checkBatch(m.cfg, srcs, dsts, ws, true)
	m.impl.updateBatch(srcs, dsts, ws)
}

// checkBatch enforces the batch surfaces' length contract before any state
// changes: dsts is nil only on a one-dimensional monitor and otherwise as
// long as srcs, and a weighted batch has one weight per packet. Address
// families are checked by impl.updateBatch.
func checkBatch(cfg Config, srcs, dsts []netip.Addr, ws []uint64, weighted bool) {
	op := "UpdateBatch"
	if weighted {
		op = "UpdateWeightedBatch"
	}
	if dsts == nil {
		if cfg.Dims == 2 {
			panic("rhhh: " + op + " needs dsts on a two-dimensional monitor")
		}
	} else if len(dsts) != len(srcs) {
		panic("rhhh: " + op + " srcs/dsts length mismatch")
	}
	if weighted && len(ws) != len(srcs) {
		panic("rhhh: UpdateWeightedBatch srcs/weights length mismatch")
	}
}

// checkFamilies panics, with toAddr's message, on the first address not of
// the monitor's family (v6). It lets a batch skip converting a packet
// without skipping its check.
func checkFamilies(v6 bool, srcs, dsts []netip.Addr) {
	for _, addrs := range [2][]netip.Addr{srcs, dsts} {
		for _, a := range addrs {
			if a.Is4() == v6 {
				toAddr(a, v6)
			}
		}
	}
}

// HeavyHitters returns the approximate HHH set for threshold θ ∈ (0, 1]:
// every prefix whose conditioned frequency estimate reaches θ·N. The
// guarantees of Definition 10 (accuracy within εN, coverage with
// probability 1−δ) hold once Converged().
//
// The returned slice is the monitor's reusable query buffer: treat it as
// read-only, valid until the monitor's next HeavyHitters call — copy it
// (e.g. with slices.Clone) to retain or reorder results.
func (m *Monitor) HeavyHitters(theta float64) []HeavyHitter {
	if !(theta > 0 && theta <= 1) {
		panic("rhhh: theta must be in (0, 1]")
	}
	return m.impl.output(theta)
}

// N returns the total stream weight processed.
func (m *Monitor) N() uint64 { return m.eng.Weight() }

// Psi returns the convergence bound ψ: the minimum number of packets before
// the probabilistic guarantees hold (Theorem 6.17, divided by R per
// Corollary 6.8).
func (m *Monitor) Psi() float64 { return m.eng.Psi() }

// Converged reports whether N ≥ ψ.
func (m *Monitor) Converged() bool { return float64(m.eng.Weight()) >= m.eng.Psi() }

// H returns the hierarchy size (number of lattice nodes).
func (m *Monitor) H() int { return m.eng.H() }

// V returns the performance parameter in effect (Config.V, or H when it is
// 0).
func (m *Monitor) V() int { return m.eng.V() }

// Reset clears all measurement state, keeping the configuration.
func (m *Monitor) Reset() { m.eng.Reset() }

// Registry collects the telemetry that the Instrument methods of Monitor,
// Sharded, Windowed and Checkpointer register, and renders it in the
// Prometheus text exposition format (WritePrometheus, Gather).
type Registry = telemetry.Registry

// NewRegistry returns an empty telemetry registry.
func NewRegistry() *Registry { return telemetry.NewRegistry() }

// Instrument registers the monitor's telemetry (engine counters, backend
// occupancy, standing-query stats) with reg. The update path publishes its
// counters every telemetryPublishPackets packets — the uninstrumented cost
// is one predictable branch per update. Call it before feeding traffic; the
// monitor is single-threaded, so the hookup shares its owner's ordering.
// A nil reg is a no-op.
func (m *Monitor) Instrument(reg *Registry) {
	if reg != nil {
		m.impl.instrument(reg)
	}
}

// toAddr converts a netip.Addr to the internal 128-bit form, validating the
// family. The zero Addr maps to the zero value (used for the ignored
// dimension).
func toAddr(a netip.Addr, v6 bool) hierarchy.Addr {
	if a == (netip.Addr{}) {
		return hierarchy.Addr{}
	}
	if v6 {
		if a.Is4() {
			panic("rhhh: IPv4 address given to an IPv6 monitor")
		}
		return hierarchy.AddrFrom16(a.As16())
	}
	if !a.Is4() && !a.Is4In6() {
		panic("rhhh: IPv6 address given to an IPv4 monitor")
	}
	b := a.As4()
	return hierarchy.AddrFromIPv4(uint32(b[0])<<24 | uint32(b[1])<<16 | uint32(b[2])<<8 | uint32(b[3]))
}

// impl ties a domain, a key extractor and a per-dimension splitter to the
// RHHH engine.
type impl[K comparable] struct {
	dom    *hierarchy.Domain[K]
	key    func(src, dst hierarchy.Addr) K
	split  func(k K, srcBits, dstBits int) (netip.Prefix, netip.Prefix)
	eng    *core.Engine[K]
	keyBuf []K // scratch: batch keys by position (see updateBatch)
	conv   converter[K]
	v6     bool

	// Standing-query state, created by the first Watch: the hub holds the
	// subscriptions, hubSnap is the reused capture buffer its ticks read.
	hub     *watchHub[K]
	hubSnap core.EngineSnapshot[K]

	// Telemetry state installed by instrument (tm nil when uninstrumented):
	// the update path republishes the engine block when the engine's packet
	// count reaches tmNext, amortizing the O(H) backend walk over the
	// publish interval.
	tm      *telemetry.EngineStats
	tmNext  uint64
	tmEvery uint64
	watchTM *telemetry.WatchStats
}

// telemetryPublishPackets is the monitor-level telemetry publish cadence.
const telemetryPublishPackets = 4096

func (im *impl[K]) instrument(reg *telemetry.Registry) {
	im.tm = &telemetry.EngineStats{}
	im.tm.Register(reg, "")
	im.tmEvery = telemetryPublishPackets
	im.tmNext = im.eng.N() + im.tmEvery
	im.eng.TelemetryInto(im.tm)
	im.watchTM = &telemetry.WatchStats{}
	im.watchTM.Register(reg, "")
	if im.hub != nil {
		im.hub.instrument(im.watchTM)
	}
}

// publishTelemetry refreshes the engine block and re-arms the watermark.
func (im *impl[K]) publishTelemetry() {
	im.eng.TelemetryInto(im.tm)
	im.tmNext = im.eng.N() + im.tmEvery
}

// watch lazily builds the monitor-level hub (capture = engine snapshot into
// the reused buffer, so unchanged ticks skip the copy) and registers opts.
func (im *impl[K]) watch(opts WatchOptions) (*Subscription, error) {
	if im.hub == nil {
		var one [1]*core.EngineSnapshot[K]
		im.hub = newWatchHub(im.dom, im.split, im.v6, func() []*core.EngineSnapshot[K] {
			one[0] = im.eng.SnapshotInto(&im.hubSnap)
			return one[:]
		}, nil)
		if im.watchTM != nil {
			im.hub.instrument(im.watchTM)
		}
	}
	return im.hub.register(opts)
}

func (im *impl[K]) tickWatch() {
	if im.hub != nil {
		im.hub.tick()
	}
}

func build[K comparable](
	cfg Config,
	backend core.Backend,
	dom *hierarchy.Domain[K],
	key func(src, dst hierarchy.Addr) K,
	split func(k K, srcBits, dstBits int) (netip.Prefix, netip.Prefix),
) (*Monitor, error) {
	if cfg.V != 0 && cfg.V < dom.Size() {
		return nil, fmt.Errorf("rhhh: V=%d below hierarchy size H=%d", cfg.V, dom.Size())
	}
	eng := core.New(dom, core.Config{
		Epsilon: cfg.Epsilon, Delta: cfg.Delta,
		V: cfg.V, R: cfg.R, Seed: cfg.Seed, Backend: backend,
	})
	im := &impl[K]{dom: dom, key: key, split: split, eng: eng, v6: cfg.IPv6}
	return &Monitor{impl: im, eng: eng, cfg: cfg}, nil
}

func (im *impl[K]) update(src, dst hierarchy.Addr, w uint64) {
	k := im.key(src, dst)
	if w == 1 {
		im.eng.Update(k)
	} else {
		im.eng.UpdateWeighted(k, w)
	}
	if im.tm != nil && im.eng.N() >= im.tmNext {
		im.publishTelemetry()
	}
}

// updateBatch records a batch whose lengths checkBatch has accepted; ws is
// nil for unit weights. Every address's family is checked before any state
// changes. Under the engine's skip sampler (V > H) a check-only pass comes
// first and only the sampled packets are converted to keys, so a skipped
// packet costs one family check. Otherwise every packet is converted up
// front, and the conversion is the check.
func (im *impl[K]) updateBatch(srcs, dsts []netip.Addr, ws []uint64) {
	n := len(srcs)
	if cap(im.keyBuf) < n {
		im.keyBuf = make([]K, n)
	}
	keys := im.keyBuf[:n]
	sparse := im.eng.UsesSkipSampling()
	if sparse {
		checkFamilies(im.v6, srcs, dsts)
	} else {
		for i := range keys {
			keys[i] = im.key(toAddr(srcs[i], im.v6), toAddr(dstAt(dsts, i), im.v6))
		}
	}
	pos := im.eng.SampleBatch(n)
	if sparse {
		for _, p := range pos {
			keys[p] = im.key(toAddr(srcs[p], im.v6), toAddr(dstAt(dsts, int(p)), im.v6))
		}
	}
	im.eng.ApplyBatch(keys, ws)
	if im.tm != nil && im.eng.N() >= im.tmNext {
		im.publishTelemetry()
	}
}

// dstAt is packet i's destination; a one-dimensional batch (nil dsts) has
// the zero destination.
func dstAt(dsts []netip.Addr, i int) netip.Addr {
	if dsts == nil {
		return netip.Addr{}
	}
	return dsts[i]
}

func (im *impl[K]) output(theta float64) []HeavyHitter {
	return im.conv.convert(im.dom, im.split, im.eng.Output(theta))
}

// textKey identifies one rendered prefix in a converter's string cache.
type textKey[K comparable] struct {
	node int32
	key  K
}

// converter renders engine results into the public HeavyHitter shape on a
// reused buffer, caching the formatted prefix texts across queries — the
// last allocating stage of the warm query path. The returned slice is owned
// by the converter and valid until its next use.
type converter[K comparable] struct {
	buf   []HeavyHitter
	texts map[textKey[K]]string
	dom   *hierarchy.Domain[K] // the cache's domain; a switch resets it
}

// convTextCacheMax bounds the rendered-text cache: when prefixes churn past
// this many distinct (node, key) entries the cache is dropped and rebuilt
// from the live result set, so a long-running monitor cannot leak formatted
// strings indefinitely while steady-state queries stay allocation-free.
const convTextCacheMax = 1 << 14

func (c *converter[K]) convert(
	dom *hierarchy.Domain[K],
	split func(k K, srcBits, dstBits int) (netip.Prefix, netip.Prefix),
	rs []core.Result[K],
) []HeavyHitter {
	if c.texts == nil || c.dom != dom {
		c.texts = make(map[textKey[K]]string)
		c.dom = dom
	}
	if len(c.texts) > convTextCacheMax && len(c.texts) > 4*len(rs) {
		clear(c.texts)
	}
	c.buf = c.buf[:0]
	for _, r := range rs {
		node := dom.Node(r.Node)
		tk := textKey[K]{node: int32(r.Node), key: r.Key}
		text, ok := c.texts[tk]
		if !ok {
			text = dom.Format(r.Key, r.Node)
			c.texts[tk] = text
		}
		srcP, dstP := split(r.Key, node.SrcBits, node.DstBits)
		c.buf = append(c.buf, HeavyHitter{
			Src:   srcP,
			Dst:   dstP,
			Text:  text,
			Lower: r.Lower,
			Upper: r.Upper,
			Cond:  r.Cond,
			Level: node.Level,
		})
	}
	return c.buf
}

// snapshotInto captures the engine state into dst (see Monitor.Snapshot).
func (im *impl[K]) snapshotInto(dst *Snapshot) *Snapshot {
	if dst == nil {
		dst = &Snapshot{}
	}
	st, ok := dst.impl.(*snapState[K])
	if !ok {
		st = &snapState[K]{}
		dst.impl = st
	}
	// Always re-point dom/split: a reused dst may come from a monitor with
	// the same carrier type but a different lattice.
	st.dom, st.split = im.dom, im.split
	im.eng.SnapshotInto(&st.es)
	return dst
}

// loadSnapshot restores the engine state from a captured snapshot (see
// Monitor.LoadSnapshot).
func (im *impl[K]) loadSnapshot(sc snapCore) error {
	st, ok := sc.(*snapState[K])
	if !ok {
		return errors.New("rhhh: snapshot hierarchy does not match the monitor")
	}
	if err := im.eng.LoadSnapshot(&st.es); err != nil {
		return fmt.Errorf("rhhh: %w", err)
	}
	return nil
}

// Per-key-type prefix splitters.

func split1v4(k uint32, srcBits, _ int) (netip.Prefix, netip.Prefix) {
	return v4Prefix(k, srcBits), netip.Prefix{}
}

func split2v4(k uint64, srcBits, dstBits int) (netip.Prefix, netip.Prefix) {
	s, d := hierarchy.Unpack2D(k)
	return v4Prefix(s, srcBits), v4Prefix(d, dstBits)
}

func split1v6(k hierarchy.Addr, srcBits, _ int) (netip.Prefix, netip.Prefix) {
	return v6Prefix(k, srcBits), netip.Prefix{}
}

func split2v6(k hierarchy.AddrPair, srcBits, dstBits int) (netip.Prefix, netip.Prefix) {
	return v6Prefix(k.Src, srcBits), v6Prefix(k.Dst, dstBits)
}

func v4Prefix(v uint32, bits int) netip.Prefix {
	a := netip.AddrFrom4([4]byte{byte(v >> 24), byte(v >> 16), byte(v >> 8), byte(v)})
	return netip.PrefixFrom(a, bits)
}

func v6Prefix(a hierarchy.Addr, bits int) netip.Prefix {
	return netip.PrefixFrom(netip.AddrFrom16(a.Bytes16()), bits)
}

// Psi computes the paper's convergence bound ψ = Z(1−δs/2)·V·ε⁻² without
// building a Monitor — useful for sizing measurement intervals (§6.3
// discusses choosing V from the interval length). It uses the same δ split
// as the engine (δa = δs = δ/3).
func Psi(epsilon, delta float64, v int) float64 {
	if !(epsilon > 0 && epsilon < 1) || !(delta > 0 && delta < 1) || v < 1 {
		return math.NaN()
	}
	return stats.Z(delta/6) * float64(v) / (epsilon * epsilon)
}
