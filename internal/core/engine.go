package core

import (
	"fmt"
	"math"

	"rhhh/internal/chk"
	"rhhh/internal/fastrand"
	"rhhh/internal/hierarchy"
	"rhhh/internal/spacesaving"
	"rhhh/internal/stats"
)

// Backend selects the per-lattice-node heavy hitters algorithm.
type Backend int

// Available backends. SpaceSavingBackend is the paper's choice and the
// default: the stream summary with O(1) worst-case updates. CHKBackend
// stores counters directly in a cuckoo table with exponential-decay eviction
// (probabilistic accuracy, no bucket list — see internal/chk).
const (
	SpaceSavingBackend Backend = iota
	CHKBackend
)

// Config parameterizes an RHHH engine.
//
// Following the authors' configuration (§6.1's worked example and their
// released implementation), the per-instance error and the sampling error
// are both set to Epsilon (εa = εs = ε), and the Space Saving instances are
// provisioned with ⌈(1+εs)/εa⌉ counters to absorb over-sampling. The formal
// guarantee of Theorem 6.17 then holds for total error εa+εs and total
// confidence δa+2δs with δa = δs = Delta/3.
type Config struct {
	// Epsilon is the target estimation error ε (e.g. 0.001). Must be in
	// (0, 1).
	Epsilon float64
	// Delta is the target failure probability δ (e.g. 0.001). Must be in
	// (0, 1).
	Delta float64
	// V is the paper's performance parameter: each packet draws a uniform
	// number in [0, V) and updates a lattice node only when the draw is
	// below H. V=H updates one node per packet; V=10H ("10-RHHH") updates
	// one node for 10% of packets. 0 means V=H. Must be ≥ H otherwise.
	V int
	// R is the number of independent update draws per packet
	// (Corollary 6.8); the engine then converges R times faster. 0 means 1.
	R int
	// Seed seeds the update-path RNG; runs with equal seeds and inputs are
	// bit-identical.
	Seed uint64
	// Backend selects the HH algorithm (default SpaceSavingBackend).
	Backend Backend
}

// Engine is an RHHH instance over lattice domain K. Not safe for concurrent
// use; shard by flow and merge results, or lock externally.
type Engine[K comparable] struct {
	dom *hierarchy.Domain[K]
	// ss holds one Space Saving summary per lattice node under
	// SpaceSavingBackend, chk one CHK sketch per node under CHKBackend; the
	// other is nil. Every update goes to them directly. inst is their read
	// view for Output and EstimateFrequency.
	ss   []*spacesaving.Summary[K]
	chk  []*chk.Sketch[K]
	inst []Instance[K]
	mask func(k K, node int) K // devirtualized dom.Masker()
	rng  *fastrand.Source

	v, h    uint64
	r       int
	packets uint64 // number of Update/UpdateWeighted calls
	samples uint64 // sampled updates forwarded to a lattice node
	batches uint64 // UpdateBatch/UpdateWeightedBatch calls
	// extraW tracks stream weight beyond one unit per packet, so the unit
	// Update path maintains a single counter; total weight is
	// packets + extraW (extraW is negative when zero-weight packets occur).
	extraW int64

	// Geometric skip sampling (V > H, r == 1): each packet is sampled with
	// probability H/V, so instead of drawing per packet we draw the gap to
	// the next sampled packet once and compare against a watermark — the
	// non-sampled path is a single compare, with no stores beyond the
	// packet counter. nextSample is the value of packets at which the next
	// sample fires; geo draws the gaps.
	useSkip    bool
	nextSample uint64
	geo        *fastrand.GeometricSampler

	// Batch state (see SampleBatch and ApplyBatch): the batch positions the
	// sampler picked and their node draws, in sample order, plus the length
	// of the batch awaiting its apply step (-1 when none is). The apply step
	// regroups the masked keys by node, touching each node's counter store
	// once per batch instead of once per sample. Update itself applies
	// samples immediately — every single call stays O(1) worst case, the
	// paper's headline property.
	smpPos  []int32 // batch position per sample, in sample order
	smpNode []int32 // node draw per sample
	smpN    int
	grpKey  []K      // scratch: masked keys regrouped by node
	grpNode []int32  // scratch: node per grouped sample
	grpW    []uint64 // scratch: weights regrouped by node
	grpOff  []int32  // scratch: per-node group boundaries
	// planSlot/planHash hold one resolve window's plan (see ApplyBatch).
	planSlot [spacesaving.BatchChunk]int32
	planHash [spacesaving.BatchChunk]uint32
	// directApply short-circuits the resolve/apply kernel when the whole
	// counter state is small enough to live in cache (see ApplyBatch):
	// with nothing stalling, the planning pass is pure overhead.
	directApply bool

	epsilon, delta float64
	z              float64 // Z(1−δ), for the output correction
	psi            float64

	// ex is the engine's reusable query workspace, built on first Output.
	ex *Extractor[K]
	// epoch counts the discontinuities (Reset, Reseed, LoadSnapshot) that
	// invalidate the "unchanged since capture" check SnapshotInto relies on;
	// between discontinuities the packet counter alone is monotone.
	epoch uint64
}

// New builds an RHHH engine over dom with cfg. It panics on invalid
// configuration (this is a constructor-time programming error, not a runtime
// condition).
func New[K comparable](dom *hierarchy.Domain[K], cfg Config) *Engine[K] {
	if !(cfg.Epsilon > 0 && cfg.Epsilon < 1) {
		panic("core: Epsilon must be in (0, 1)")
	}
	if !(cfg.Delta > 0 && cfg.Delta < 1) {
		panic("core: Delta must be in (0, 1)")
	}
	h := dom.Size()
	v := cfg.V
	if v == 0 {
		v = h
	}
	if v < h {
		panic(fmt.Sprintf("core: V=%d must be at least H=%d", v, h))
	}
	r := cfg.R
	if r == 0 {
		r = 1
	}
	if r < 0 {
		panic("core: R must be positive")
	}
	deltaS := cfg.Delta / 3
	e := &Engine[K]{
		dom:     dom,
		mask:    dom.Masker(),
		rng:     fastrand.New(cfg.Seed),
		v:       uint64(v),
		h:       uint64(h),
		r:       r,
		epsilon: cfg.Epsilon,
		delta:   cfg.Delta,
		z:       stats.Z(cfg.Delta),
		psi:     stats.Z(deltaS/2) * float64(v) / (cfg.Epsilon * cfg.Epsilon) / float64(r),
		smpN:    -1,
	}
	counters := CountersFor(cfg.Epsilon)
	switch cfg.Backend {
	case SpaceSavingBackend:
		e.ss = make([]*spacesaving.Summary[K], h)
		total := 0
		for i := range e.ss {
			e.ss[i] = spacesaving.New[K](counters)
			total += e.ss[i].Capacity()
		}
		e.inst = WrapSummaries(e.ss)
		// ~64 B of slab+index+bucket state per counter; below ~512 KiB the
		// lattice fits alongside the working set in L2 on anything current,
		// and the batch path applies samples directly instead of going
		// through the two-phase kernel (identical results either way).
		e.directApply = total < 8192
	case CHKBackend:
		e.chk = make([]*chk.Sketch[K], h)
		e.inst = make([]Instance[K], h)
		for i := range e.chk {
			e.chk[i] = chk.New[K](counters, chkNodeSeed(cfg.Seed, i))
			e.inst[i] = chkInstance[K]{e.chk[i]}
		}
	default:
		panic(fmt.Sprintf("core: unknown backend %d", cfg.Backend))
	}
	if v > h && r == 1 {
		e.useSkip = true
		e.geo = fastrand.NewGeometricSampler(float64(h) / float64(v))
		e.nextSample = 1 + e.geo.Next(e.rng)
	}
	e.grpOff = make([]int32, h+1)
	return e
}

// CountersFor is the Space Saving provisioning rule from §6.1: ⌈(1+εs)/εa⌉
// counters per lattice node with εa = εs = ε ("Space Saving requires 1,000
// counters for εa = 0.001; if we set εs = 0.001, we now require 1001
// counters"). Total space is H·CountersFor(ε) entries (Theorem 6.19).
func CountersFor(epsilon float64) int {
	if !(epsilon > 0 && epsilon < 1) {
		panic("core: Epsilon must be in (0, 1)")
	}
	return int(math.Ceil((1 + epsilon) / epsilon))
}

// Domain returns the engine's lattice domain.
func (e *Engine[K]) Domain() *hierarchy.Domain[K] { return e.dom }

// N returns the number of packets processed.
func (e *Engine[K]) N() uint64 { return e.packets }

// Weight returns the total stream weight processed (equals N on unitary
// streams).
func (e *Engine[K]) Weight() uint64 { return e.packets + uint64(e.extraW) }

// V returns the performance parameter in effect.
func (e *Engine[K]) V() int { return int(e.v) }

// H returns the hierarchy size.
func (e *Engine[K]) H() int { return int(e.h) }

// Psi returns ψ, the minimum stream length after which the probabilistic
// guarantees of Theorem 6.17 hold (divided by r per Corollary 6.8).
func (e *Engine[K]) Psi() float64 { return e.psi }

// Converged reports whether N has passed ψ.
func (e *Engine[K]) Converged() bool { return float64(e.packets) >= e.psi }

// Update processes one packet: with probability H/V, update one uniformly
// drawn lattice node's instance with the packet's masked key (Algorithm 1
// lines 1–7). O(1) worst case — at most r constant-time instance updates.
//
// When V > H (and r == 1) the Bernoulli decision is realized by geometric
// skip sampling: the common non-sampled case is a compare-and-decrement
// with no RNG draw at all. At V = H every packet updates a node and the
// historical one-draw-per-packet path is kept, preserving bit-identical
// results for a given seed.
func (e *Engine[K]) Update(k K) {
	e.packets++
	if e.useSkip {
		if e.packets < e.nextSample {
			return
		}
		e.samples++
		node := int(e.rng.Uint64n(e.h))
		if e.ss != nil {
			e.ss[node].Increment(e.mask(k, node))
		} else {
			e.chk[node].Increment(e.mask(k, node))
		}
		e.nextSample = e.packets + 1 + e.geo.Next(e.rng)
		return
	}
	if e.r == 1 {
		if d := e.rng.Uint64n(e.v); d < e.h {
			e.samples++
			node := int(d)
			if e.ss != nil {
				e.ss[node].Increment(e.mask(k, node))
			} else {
				e.chk[node].Increment(e.mask(k, node))
			}
		}
		return
	}
	for i := 0; i < e.r; i++ {
		if d := e.rng.Uint64n(e.v); d < e.h {
			e.samples++
			node := int(d)
			if e.ss != nil {
				e.ss[node].Increment(e.mask(k, node))
			} else {
				e.chk[node].Increment(e.mask(k, node))
			}
		}
	}
}

// UpdateWeighted processes one packet carrying weight w (e.g. byte counts).
// The sampled node receives the full weight, keeping the estimator
// unbiased; this is the natural weighted extension of Algorithm 1 (the
// paper analyzes unitary streams only — variance grows with the weight
// spread, so ψ is a lower bound on convergence here). Sampling decisions
// are per packet, so the skip sampler applies unchanged.
func (e *Engine[K]) UpdateWeighted(k K, w uint64) {
	e.packets++
	e.extraW += int64(w) - 1
	if e.useSkip {
		if e.packets < e.nextSample {
			return
		}
		e.samples++
		node := int(e.rng.Uint64n(e.h))
		if e.ss != nil {
			e.ss[node].IncrementBy(e.mask(k, node), w)
		} else {
			e.chk[node].IncrementBy(e.mask(k, node), w)
		}
		e.nextSample = e.packets + 1 + e.geo.Next(e.rng)
		return
	}
	for i := 0; i < e.r; i++ {
		if d := e.rng.Uint64n(e.v); d < e.h {
			e.samples++
			node := int(d)
			if e.ss != nil {
				e.ss[node].IncrementBy(e.mask(k, node), w)
			} else {
				e.chk[node].IncrementBy(e.mask(k, node), w)
			}
		}
	}
}

// UpdateBatch processes a slice of packets in one call — semantically
// identical to calling Update on each key in order (same RNG consumption,
// same state): SampleBatch picks the packets that update a node, and
// ApplyBatch masks their keys and applies them node-grouped. Per-batch work
// is O(samples) with the skip sampler (V > H), O(len(keys)) draws otherwise,
// plus O(samples) instance updates.
func (e *Engine[K]) UpdateBatch(keys []K) {
	e.SampleBatch(len(keys))
	e.ApplyBatch(keys, nil)
}

// UpdateWeightedBatch processes a slice of packets carrying weights in one
// call — semantically identical to calling UpdateWeighted on each pair in
// order (same RNG consumption, same state). len(ws) must equal len(keys).
// Each sampled node receives its packet's full weight.
func (e *Engine[K]) UpdateWeightedBatch(keys []K, ws []uint64) {
	if len(ws) != len(keys) {
		panic("core: UpdateWeightedBatch keys/weights length mismatch")
	}
	e.SampleBatch(len(keys))
	e.ApplyBatch(keys, ws)
}

// UsesSkipSampling reports whether the engine runs the geometric skip
// sampler (V > H and r == 1): then SampleBatch picks about n·H/V positions
// in increasing order, and a batch caller gains by preparing only those
// packets. Otherwise every packet takes r per-draw decisions.
func (e *Engine[K]) UsesSkipSampling() bool { return e.useSkip }

// SampleBatch advances the stream by n packets and returns the batch
// positions (0 ≤ p < n) whose packets update a lattice node, in order — the
// engine's one sampling loop. It consumes the RNG exactly as n Update calls
// would: with V > H (and r == 1) the skip sampler draws a node and then the
// gap to the next sample, so unsampled packets cost nothing; at V = H or
// with r > 1 every packet takes r per-draw decisions, and a position
// repeats once per hit. The slice is engine scratch, valid until the next
// SampleBatch. ApplyBatch must complete the batch before any other update.
func (e *Engine[K]) SampleBatch(n int) []int32 {
	e.smpPos, e.smpNode = e.smpPos[:0], e.smpNode[:0]
	e.smpN = n
	base := e.packets
	e.packets += uint64(n)
	if e.useSkip {
		for e.nextSample <= e.packets {
			// Draw node then gap, exactly as the per-packet path would.
			e.smpPos = append(e.smpPos, int32(e.nextSample-base-1))
			e.smpNode = append(e.smpNode, int32(e.rng.Uint64n(e.h)))
			e.nextSample += 1 + e.geo.Next(e.rng)
		}
		return e.smpPos
	}
	for i := 0; i < n; i++ {
		for j := 0; j < e.r; j++ {
			if d := e.rng.Uint64n(e.v); d < e.h {
				e.smpPos = append(e.smpPos, int32(i))
				e.smpNode = append(e.smpNode, int32(d))
			}
		}
	}
	return e.smpPos
}

// ApplyBatch completes the batch SampleBatch started: it masks the key at
// each sampled position with that sample's node and applies the samples
// node-grouped. keys, and ws for a weighted batch, are indexed by batch
// position and must have the batch's length; only the sampled positions of
// keys are read, so a caller may fill just those. A nil ws means unit
// weights; otherwise every packet's weight counts toward the stream weight
// and each sampled node receives its packet's full weight.
//
// The samples are regrouped by node with a stable counting sort, preserving
// each node's update order, and then drive the two-phase spacesaving kernel
// in BatchChunk-sized windows that span node boundaries:
// spacesaving.ResolveAcross walks a whole window level by level — every
// sample's index words, then every candidate ref and slab confirm, then
// every bucket/victim line — so up to 64 samples' cache misses overlap
// across nodes, and the per-run applies then replay the window's plan
// against warm lines.
func (e *Engine[K]) ApplyBatch(keys []K, ws []uint64) {
	if len(keys) != e.smpN || (ws != nil && len(ws) != e.smpN) {
		panic("core: ApplyBatch needs one key (and weight) per packet of the sampled batch")
	}
	e.smpN = -1
	weighted := ws != nil
	for _, w := range ws {
		e.extraW += int64(w) - 1
	}
	e.batches++
	n := len(e.smpPos)
	e.samples += uint64(n)
	if n == 0 {
		return
	}
	if cap(e.grpKey) < n {
		e.grpKey = make([]K, n)
		e.grpNode = make([]int32, n)
	}
	e.grpKey = e.grpKey[:n]
	e.grpNode = e.grpNode[:n]
	if weighted {
		if cap(e.grpW) < n {
			e.grpW = make([]uint64, n)
		}
		e.grpW = e.grpW[:n]
	}
	off := e.grpOff
	for i := range off {
		off[i] = 0
	}
	for _, nd := range e.smpNode {
		off[nd+1]++
	}
	for nd := 0; nd < int(e.h); nd++ {
		off[nd+1] += off[nd]
	}
	pos := off // off[nd] advances to off[nd+1] while scattering
	for i, nd := range e.smpNode {
		p := e.smpPos[i]
		e.grpKey[pos[nd]] = e.mask(keys[p], int(nd))
		e.grpNode[pos[nd]] = nd
		if weighted {
			e.grpW[pos[nd]] = ws[p]
		}
		pos[nd]++
	}
	// After the scatter pass each node's group is contiguous in grpKey, in
	// arrival order.
	if e.chk != nil {
		// CHK has no resolve/apply split to drive: its update is already
		// two bucket probes with no list surgery, so the node-grouped order
		// alone delivers the cache locality the kernel buys the stream
		// summary.
		for j := 0; j < n; j++ {
			if weighted {
				e.chk[e.grpNode[j]].IncrementBy(e.grpKey[j], e.grpW[j])
			} else {
				e.chk[e.grpNode[j]].Increment(e.grpKey[j])
			}
		}
		return
	}
	if e.directApply {
		// The whole lattice state is cache-resident: apply the grouped
		// samples without the planning pass (same state transitions, no
		// stalls for the kernel to overlap).
		for j := 0; j < n; j++ {
			if weighted {
				e.ss[e.grpNode[j]].IncrementBy(e.grpKey[j], e.grpW[j])
			} else {
				e.ss[e.grpNode[j]].Increment(e.grpKey[j])
			}
		}
		return
	}
	// Resolve a window across nodes, then apply it run by run. A node run
	// that straddles a window boundary is resolved in two pieces, each
	// planned after every earlier apply on that summary — plans never go
	// stale across windows.
	for win := 0; win < n; win += spacesaving.BatchChunk {
		end := win + spacesaving.BatchChunk
		if end > n {
			end = n
		}
		slots := e.planSlot[:end-win]
		hashes := e.planHash[:end-win]
		spacesaving.ResolveAcross(e.ss, e.grpNode[win:end], e.grpKey[win:end], slots, hashes)
		for i := win; i < end; {
			nd := e.grpNode[i]
			j := i + 1
			for j < end && e.grpNode[j] == nd {
				j++
			}
			if weighted {
				e.ss[nd].ApplyWeightedPlanned(e.grpKey[i:j], e.grpW[i:j], slots[i-win:j-win], hashes[i-win:j-win])
			} else {
				e.ss[nd].ApplyPlanned(e.grpKey[i:j], slots[i-win:j-win], hashes[i-win:j-win])
			}
			i = j
		}
	}
}

// Output returns the HHH set for threshold θ (Algorithm 1 lines 8–21): every
// prefix whose conservative conditioned-frequency estimate reaches θ·N.
// Frequencies in the results are scaled to stream units.
//
// The returned slice is the engine's reusable query workspace: treat it as
// read-only, valid until the engine's next Output call — copy it to retain
// results across queries.
func (e *Engine[K]) Output(theta float64) []Result[K] {
	if !(theta > 0 && theta <= 1) {
		panic("core: theta must be in (0, 1]")
	}
	n := float64(e.Weight())
	if n == 0 {
		return nil
	}
	if e.ex == nil {
		e.ex = NewExtractor(e.dom)
	}
	scale := float64(e.v) / float64(e.r)
	corr := 2 * e.z * math.Sqrt(n*float64(e.v)/float64(e.r))
	return e.ex.Extract(e.inst, n, scale, corr, theta)
}

// EstimateFrequency returns (f̂p−, f̂p+) for an arbitrary prefix given by
// its node and masked key, in stream units.
func (e *Engine[K]) EstimateFrequency(key K, node int) (lower, upper float64) {
	up, lo := e.inst[node].Bounds(key)
	scale := float64(e.v) / float64(e.r)
	return float64(lo) * scale, float64(up) * scale
}

// Reseed resets the update-path RNG to seed and redraws any in-flight skip
// gap. After Reset followed by Reseed(s), the engine's outputs are
// bit-identical to a freshly constructed engine with Seed s — the epoch
// deployments (Windowed) use this to keep windows statistically independent
// and reproducible without reallocating the engine. A CHK node's key hash
// follows the seed too, so call Reseed only right after Reset.
func (e *Engine[K]) Reseed(seed uint64) {
	e.rng.Seed(seed)
	// CHK sketches hold per-node decay RNGs; restart them from the same
	// derivation New used so the whole engine replays bit-identically.
	for i, c := range e.chk {
		c.Reseed(chkNodeSeed(seed, i))
	}
	e.epoch++
	if e.useSkip {
		e.nextSample = e.packets + 1 + e.geo.Next(e.rng)
	}
}

// Reset clears all state, keeping the configuration. The RNG is not
// reseeded; use a fresh engine for bit-identical reruns.
func (e *Engine[K]) Reset() {
	for _, s := range e.ss {
		s.Reset()
	}
	for _, c := range e.chk {
		c.Reset()
	}
	if e.useSkip {
		e.nextSample -= e.packets // keep the in-flight gap across the reset
	}
	e.packets = 0
	e.extraW = 0
	e.epoch++
}
